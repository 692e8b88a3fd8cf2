"""Command-line interface: output formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2rep import cli, cyclotomic, gl2, harmonic, oracle, sl3, tensor
from gl2rep.cli import SUITES, _value_ids, _value_json, build_parser, chartable_bytes, run
from gl2rep.cyclotomic import Cyclotomic, coords_text, demote, euler_phi, root
from gl2rep.gl2 import (
    TABLE_BYTES_LIMIT,
    GL2Irrep,
    char_value,
    enumerate_classes,
    enumerate_irreps,
    label_bytes,
    params,
    parse_class,
    parse_irrep,
    table_bytes,
)


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_tensor_json_schema():
    code, text = _run(["tensor", "--q", "5", "--left", "V:1", "--right", "W:0,2", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["q"] == 5
    assert payload["left"] == "V:1" and payload["right"] == "W:0,2"
    assert payload["dim_check"] is True
    assert {"irrep": "W:1,3", "mult": 2} in payload["constituents"]


def test_gelfand_q128_lists_the_dimension_rule():
    # the closed-form family norms need no character table: q = 128 lists
    # r + qr/2 = 8255 labels, U:a and X:n, in canonical order
    code, text = _run(["gelfand", "--q", "128", "--format", "csv"])
    assert code == 0
    pr = params(128)
    assert text.splitlines() == ["irrep", *(pi.label() for pi in enumerate_irreps(pr) if pi.dim() in (1, 127))]
    assert len(text.splitlines()) - 1 == 127 + 128 * 127 // 2 == 8255


def test_gelfand_q7_lists_exactly_u_and_x():
    code, text = _run(["gelfand", "--q", "7", "--format", "json"])
    assert code == 0
    got = json.loads(text)["gelfand"]
    pr = params(7)
    expected = [pi.label() for pi in enumerate_irreps(pr) if pi.kind in ("U", "X")]
    assert sorted(got) == sorted(expected)


def test_output_is_byte_stable():
    for argv in (
        ["classes", "--q", "4"],
        ["irreps", "--q", "5", "--format", "json"],
        ["chartable", "--q", "3", "--format", "csv"],
        ["sl3-witness", "--q", "4", "--format", "json"],
    ):
        assert _run(argv) == _run(argv)


# sha256 of the exit codes and stdout of the 60 commands below.  Output
# bytes are a contract: a change that alters any of them must say so and
# record the new digest.
PINNED_OUTPUT_SHA256 = "458f08d64bf27bced5ed9ef4377f0b28e80df991a510cd3d74104e334621e197"


def test_output_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for q in (2, 3, 4, 5, 7):
        for fmt in ("text", "json", "csv"):
            for argv in (
                ["gelfand"],
                ["induct", "--pi", "X:1"],
                ["tensor", "--left", "V:0", "--right", "X:1"],
                ["sl3-witness"],
            ):
                argv = [*argv, "--q", str(q), "--format", fmt]
                code, text = _run(argv)
                digest.update(f"{' '.join(argv)}\n{code}\n{text}".encode())
    assert digest.hexdigest() == PINNED_OUTPUT_SHA256


def _reference_chartable(q: int, fmt: str) -> str:
    """chartable's output, rendered from char_value entry by entry: the stdlib
    encoder on the whole payload for json, csv.writer for csv, and the padded
    columns of the text layout."""
    pr = params(q)
    classes, irreps = enumerate_classes(pr), enumerate_irreps(pr)
    if fmt == "json":
        payload = {
            "q": q,
            "classes": [{"class": c.label(), "size": c.size()} for c in classes],
            "rows": [{"irrep": pi.label(), "values": [char_value(pi, c, pr).as_json() for c in classes]} for pi in irreps],
        }
        return json.dumps(payload, indent=2) + "\n"
    table = [["irrep"] + [c.label() for c in classes]]
    table += [[pi.label()] + [char_value(pi, c, pr).render() for c in classes] for pi in irreps]
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows(table)
        return buffer.getvalue()
    widths = [max(len(row[j]) for row in table) for j in range(len(table[0]))]
    return "".join("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n" for row in table)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_chartable_json_matches_the_reference_encoder(q):
    # chartable writes its JSON from pre-encoded entries, a row at a time;
    # the bytes must be those of the stdlib encoder on the whole payload
    assert _run(["chartable", "--q", str(q), "--format", "json"]) == (0, _reference_chartable(q, "json"))


def test_value_json_is_the_stdlib_indented_text():
    # the text of a value inside chartable's JSON, against the pure-Python
    # indenting encoder: every value at q = 16 on a sample of irreps, integers
    # and roots of unity of other orders
    pr = params(16)
    values = {char_value(pi, c, pr) for pi in enumerate_irreps(pr)[::7] for c in enumerate_classes(pr)}
    values |= {Cyclotomic.zero(), Cyclotomic.from_int(-3), root(5, 2), root(12, 7)}
    for value in values:
        assert _value_json(value.order, value.coeffs) == json.dumps(value.as_json(), indent=2).replace("\n", "\n" + " " * 8)


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_chartable_text_and_csv_match_a_char_value_reference(q, fmt):
    # chartable renders every entry from per-q value ids and encoded values
    assert _run(["chartable", "--q", str(q), "--format", fmt]) == (0, _reference_chartable(q, fmt))


@st.composite
def coordinates(draw):
    """An order and phi(order) coordinates: mixed, all zero, or a rational integer."""
    order = draw(st.sampled_from((1, 2, 3, 4, 5, 8, 12, 15, 24, 48, 63, 80, 255)))
    deg = euler_phi(order)
    shape = draw(st.sampled_from(("mixed", "zero", "integer")))
    if shape == "zero":
        return order, [0] * deg
    if shape == "integer":
        return order, [draw(st.integers(-(10**6), 10**6))] + [0] * (deg - 1)
    return order, draw(st.lists(st.integers(-40, 40) | st.just(0), min_size=deg, max_size=deg))


@settings(max_examples=300, deadline=None)
@given(coordinates())
def test_the_coordinate_renderers_give_the_cyclotomic_bytes(value):
    # chartable demotes and renders folded coordinates without a Cyclotomic:
    # the same order, coordinates, text and indented JSON as the object's
    order, coeffs = value
    x = Cyclotomic(order, coeffs)
    demoted = demote(order, coeffs)
    assert (demoted[0], tuple(demoted[1])) == (x.order, x.coeffs)
    assert coords_text(*demoted) == x.render()
    assert _value_json(*demoted) == json.dumps(x.as_json(), indent=2).replace("\n", "\n" + " " * 8)


def test_chartable_builds_no_cyclotomic(monkeypatch):
    built = []
    real = Cyclotomic.__init__

    def counting(self, order, coeffs):
        built.append(order)
        real(self, order, coeffs)

    monkeypatch.setattr(Cyclotomic, "__init__", counting)
    for fmt in ("text", "json", "csv"):
        assert _run(["chartable", "--q", "7", "--format", fmt])[0] == 0
    assert built == []
    char_value(GL2Irrep.X(params(7), 1), enumerate_classes(params(7))[-1], params(7))
    assert built == [48]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32])
def test_the_label_columns_are_the_labels_of_the_objects(q):
    # classes, irreps and chartable read these columns in place of label() and dual()
    pr = params(q)
    t, irreps = gl2.label_table(q), enumerate_irreps(pr)
    assert t.class_labels.tolist() == [c.label() for c in enumerate_classes(pr)]
    assert t.irrep_labels.tolist() == [pi.label() for pi in irreps]
    assert t.irrep_labels[t.dual].tolist() == [pi.dual().label() for pi in irreps]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_the_label_tables_round_trip_through_the_parsers(q):
    # the label texts of both families are built from the rows of
    # label_arrays alone: every label parses back to itself, in strictly
    # rising sort_key order, at the row that position computes from its kind
    # and data, which is the row the table builds its object from, and an
    # irrep's row is its operand
    pr = params(q)
    t = gl2.label_table(q)
    for labels, parse in ((t.irrep_labels.tolist(), parse_irrep), (t.class_labels.tolist(), parse_class)):
        parsed = [parse(label, pr) for label in labels]
        assert [x.label() for x in parsed] == labels
        keys = [x.sort_key() for x in parsed]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert [gl2.position(x, pr) for x in parsed] == list(range(len(labels)))
        assert [t.label(type(x), k) for k, x in enumerate(parsed)] == parsed
    irreps = [parse_irrep(label, pr) for label in t.irrep_labels]
    assert np.array_equal(gl2.operands(irreps, pr), t.rows)
    assert t.irrep_labels[t.dual].tolist() == [pi.dual().label() for pi in irreps]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_the_encoded_labels_are_their_json_text(q):
    t = gl2.label_table(q)
    assert t.irrep_json.tolist() == [json.dumps(label) for label in t.irrep_labels]
    assert t.class_json.tolist() == [json.dumps(label) for label in t.class_labels]


def _count_labels(monkeypatch) -> list[str]:
    """The type name of every GL2 or SL3 label object built from now on."""
    built = []
    real = gl2._Label.__init__

    def counting(self, *args):
        built.append(type(self).__name__)
        real(self, *args)

    monkeypatch.setattr(gl2._Label, "__init__", counting)
    return built


def _run_cold(argv):
    """_run with the per-q label table cleared, as in one CLI run."""
    gl2.label_table.cache_clear()
    return _run(argv)


# A command, and the labels it parses from its arguments.  chartable runs at
# q = 16: at q = 64 it writes 16.8 million entries.
ARGUMENT_LABELS = [
    (["irreps", "--q", "64"], []),
    (["classes", "--q", "64"], []),
    (["chartable", "--q", "16"], []),
    (["sl3-restrict", "--q", "64", "--pi", "piQS", "--to", "U:0"], ["SL3Irrep", "GL2Irrep"]),
    (["induct", "--q", "64", "--pi", "X:1"], ["GL2Irrep"]),
]


@pytest.mark.parametrize("argv, parsed", ARGUMENT_LABELS, ids=[argv[0] for argv, _ in ARGUMENT_LABELS])
def test_label_commands_build_no_label_object_past_their_arguments(argv, parsed, monkeypatch):
    built = _count_labels(monkeypatch)
    for fmt in ("text", "json", "csv"):
        built.clear()
        assert _run_cold([*argv, "--format", fmt])[0] == 0
        assert built == parsed, fmt


@pytest.mark.parametrize(
    "argv",
    [["tensor", "--q", "64", "--left", "X:1", "--right", "X:3"], ["gelfand", "--q", "64"]],
    ids=["tensor", "gelfand"],
)
def test_tensor_and_gelfand_build_at_most_the_labels_they_print(argv, monkeypatch):
    payload = json.loads(_run_cold([*argv, "--format", "json"])[1])
    printed = len(payload.get("constituents", payload.get("gelfand"))) + 2 * ("left" in payload)
    built = _count_labels(monkeypatch)
    for fmt in ("text", "json", "csv"):
        built.clear()
        assert _run_cold([*argv, "--format", fmt])[0] == 0
        assert len(built) <= printed, fmt


def test_a_passing_tensor_agree_builds_no_label_object(monkeypatch):
    # all 3375 triples at q = 4 and 10 000 sampled at q = 7, read as positions
    built = _count_labels(monkeypatch)
    code, text = _run_cold(["verify", "--suite", "tensor-agree", "--q", "4,7"])
    assert code == 0 and text.count("PASS") >= 2
    assert built == []


def test_gelfand_renders_only_the_labels_it_prints(monkeypatch):
    rendered = []
    real = gl2.label_texts

    def counting(kinds, rows, quote=""):
        rendered.append(rows.shape[1])
        return real(kinds, rows, quote)

    monkeypatch.setattr(gl2, "label_texts", counting)
    printed = len(json.loads(_run_cold(["gelfand", "--q", "64", "--format", "json"])[1])["gelfand"])
    for fmt in ("text", "json", "csv"):
        rendered.clear()
        assert _run_cold(["gelfand", "--q", "64", "--format", fmt])[0] == 0
        assert rendered == [printed], fmt


def test_csv_reads_an_int_array_a_block_at_a_time(monkeypatch):
    # text and json need the str of every int of a column for its width; csv
    # converts one block of rows at a time and never holds the whole column
    real, sizes = cli._int_texts, []
    monkeypatch.setattr(cli, "_int_texts", lambda values: sizes.append(len(values)) or real(values))
    monkeypatch.setattr(cli, "CSV_ROWS", 2)
    out = io.StringIO()
    labels = np.array(["U:0", "U:1", "X:1", "X:2", "X:3"], dtype=object)
    cli._emit(["irrep", "dim"], [labels, np.array([1, 1, 40, 40, 41])], "csv", out)
    assert out.getvalue() == "irrep,dim\r\nU:0,1\r\nU:1,1\r\nX:1,40\r\nX:2,40\r\nX:3,41\r\n"
    assert sizes == [2, 2, 1]


@pytest.mark.parametrize(
    "argv",
    [["tensor", "--q", "64", "--left", "X:1", "--right", "X:3"], ["sl3-restrict", "--q", "64", "--pi", "piQS", "--to", "U:0"]],
    ids=["tensor", "sl3-restrict"],
)
def test_tensor_and_sl3_restrict_render_no_label_text(argv, monkeypatch):
    # each label they print is rendered from its own label object; the label
    # text of a family is rendered only by a command that reads it
    rendered = []
    real = gl2.label_texts

    def counting(kinds, rows):
        rendered.append(rows.shape[1])
        return real(kinds, rows)

    for module in (gl2, tensor, sl3, cli):
        if getattr(module, "label_texts", None) is real:
            monkeypatch.setattr(module, "label_texts", counting)
    for fmt in ("text", "json", "csv"):
        rendered.clear()
        assert _run_cold([*argv, "--format", fmt])[0] == 0
        assert rendered == [], fmt
        kept = {"irrep_labels", "irrep_json", "class_labels", "class_json"} & vars(gl2.label_table(64)).keys()
        assert kept == set(), fmt


def test_a_second_chartable_in_one_interpreter_gives_the_same_bytes():
    # nothing is kept from one chartable for the next: the second round, with
    # the per-q class and label caches warm, prints the bytes of the first
    want = {fmt: (0, _reference_chartable(7, fmt)) for fmt in ("text", "json", "csv")}
    for _ in range(2):
        for fmt in want:
            assert _run(["chartable", "--q", "7", "--format", fmt]) == want[fmt]


@pytest.mark.parametrize("command", ["chartable", "sl3-witness"])
def test_table_commands_refuse_a_table_past_the_budget_before_allocating(command):
    # q = 1024 would need about 35 TB of table; the estimate from q refuses it
    run(["classes", "--q", "2"], out=io.StringIO())  # builds the parser outside the trace
    tracemalloc.start()
    try:
        code, text = _run([command, "--q", "1024"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and text.startswith("error: ") and "GL2(1024) needs about" in text
    assert peak < 1 << 20


LABEL_COMMANDS = [["classes"], ["irreps"], ["tensor", "--left", "U:0", "--right", "V:1"], ["gelfand"]]


@pytest.mark.parametrize("argv", LABEL_COMMANDS)
def test_label_commands_refuse_a_huge_q_before_enumerating(argv, monkeypatch):
    # q = 1000003 has about 10^12 labels of each kind; the estimate from q
    # refuses them, and refuses the prime 2^61 - 1 before trial division,
    # which would take about 1.5 * 10^9 steps
    run(["classes", "--q", "2"], out=io.StringIO())  # builds the parser outside the trace

    def no_factoring(q):
        raise AssertionError(f"factored {q}")

    monkeypatch.setattr(gl2, "_factor_prime_power", no_factoring)
    for q in (1000003, 2**61 - 1):
        tracemalloc.start()
        try:
            code, text = _run([*argv, "--q", str(q)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and text.startswith("error: ") and f"labels of GL2({q}) needs about" in text
        assert peak < 1 << 20


@pytest.mark.parametrize("argv", LABEL_COMMANDS)
def test_the_label_budget_is_at_least_what_a_label_command_holds(argv):
    run(["classes", "--q", "2"], out=io.StringIO())
    for fmt in ("text", "json", "csv"):
        # cold per-q caches, as in one CLI run
        gl2.label_table.cache_clear()
        tracemalloc.start()
        try:
            code, _ = _run([*argv, "--q", "32", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak <= label_bytes(32)


def test_chartable_budget_counts_the_ids_and_what_each_format_keeps_per_entry():
    # worked out from q, never allocated: the last q that fits and the first
    # that does not, per format
    for fmt, fits, refused in (("json", 79, 81), ("csv", 97, 101), ("text", 73, 79)):
        assert chartable_bytes(fits, fmt) <= TABLE_BYTES_LIMIT < chartable_bytes(refused, fmt)
    # the JSON text grows with phi(q^2 - 1): 2560 at q = 81, 1920 at q = 83 and 89
    assert chartable_bytes(83, "json") <= TABLE_BYTES_LIMIT < chartable_bytes(89, "json")
    # at q = 16 the json estimate is the int32 ids, the JSON text of the values
    # and a row of them, and one chunk of rows with its keys, less than the
    # whole closed-form table
    ids = _value_ids(16)[0]
    assert ids.nbytes == 4 * 255 * 255
    text = (2 * 16 * 15 + 10 * 15 + 3 + 2 * 255) * (cli._JSON_COORD_BYTES * 128 + cli._JSON_VALUE_BYTES)
    assert 0 < chartable_bytes(16, "json") - ids.nbytes - text < table_bytes(16)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_the_json_text_budget_bounds_the_distinct_values(q):
    # chartable_bytes counts at most 2qr + 10r + 3 distinct values, each of
    # at most _JSON_COORD_BYTES per coordinate and _JSON_VALUE_BYTES besides
    pr = params(q)
    ids, coefs, exps = _value_ids(q)
    assert int(ids.max()) + 1 <= 2 * q * pr.r + 10 * pr.r + 3
    longest = max(
        len(_value_json(*demote(pr.rs, cyclotomic._fold(pr.rs, zip(e, c)))))
        for c, e in zip(coefs.T.tolist(), exps.T.tolist())
    )
    # the text, its str header (49 bytes) and two pointers to it (16)
    assert longest + 49 + 16 <= cli._JSON_COORD_BYTES * euler_phi(pr.rs) + cli._JSON_VALUE_BYTES


class _HashSink:
    """Write-only stdout that keeps a digest of the bytes, not the text."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


@pytest.mark.parametrize("q", [9, 16, 25])
def test_the_chartable_budget_is_at_least_the_traced_peak(q):
    # the padded rows are formatted a block at a time: at q = 25 the whole
    # padded text would be 34 MB, against an estimate of about 12 MB
    run(["classes", "--q", "2"], out=io.StringIO())  # builds the parser outside the trace
    # json at q = 25 writes 607 MB, about 1 s to hash alone: it runs at 9 and 16
    for fmt in ("text", "csv", "json") if q < 25 else ("text", "csv"):
        # cold per-q caches, as in one CLI run
        for cache in (gl2.label_table, cyclotomic._power_table, cyclotomic._cyclotomic_polynomial,
                      cyclotomic._crt_order):
            cache.cache_clear()
        tracemalloc.start()
        try:
            code = run(["chartable", "--q", str(q), "--format", fmt], out=_HashSink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak <= chartable_bytes(q, fmt), fmt


class _WriteLog:
    """Stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_a_write_block_of_one_row_gives_the_same_bytes(monkeypatch):
    # the seams between write blocks leave no trace in the output: with a
    # one-byte bound every block holds one row, and the bytes are those of
    # the default bound and of the char_value reference
    argvs = (
        ["chartable", "--q", "5", "--format", "text"],
        ["induct", "--q", "5", "--pi", "X:1", "--format", "text"],
        ["induct", "--q", "5", "--pi", "X:1", "--format", "json"],
        ["irreps", "--q", "7", "--format", "json"],
    )
    want = [_run(argv) for argv in argvs]
    assert want[0] == (0, _reference_chartable(5, "text"))
    monkeypatch.setattr(cli, "WRITE_BYTES", 1)
    for argv, (code, text) in zip(argvs, want):
        log = _WriteLog()
        assert run(argv, out=log) == code
        assert "".join(log.writes) == text
        if argv[-1] == "text":
            # the header, then each row a column at a time, its newline
            # written last, then induct's count line: no write holds two lines
            assert all(w.count("\n") <= 1 for w in log.writes)
            assert len(log.writes) > text.count("\n")
        else:
            # one flat record per write, after "[\n" or ",\n"
            payload = json.loads(text)
            records = payload["constituents"] if argv[0] == "induct" else payload
            blocks = [w for w in log.writes if w.startswith(("[\n", ",\n"))]
            assert len(blocks) == len(records) and all(w.count("{") == 1 for w in blocks)


def test_a_row_written_in_column_groups_drops_only_the_trailing_blanks_of_the_whole_row(monkeypatch):
    # blank cells inside a row keep their padding, and a row whose last
    # groups are all blank loses them as rstrip would the whole row
    names = ["a", "b", "c", "d"]
    columns = [["x", "", "y"], ["", "", "z"], ["long value", "", ""], ["", "", ""]]
    want = io.StringIO()
    cli._emit(names, columns, "text", want)
    monkeypatch.setattr(cli, "WRITE_BYTES", 1)
    log = _WriteLog()
    cli._emit(names, columns, "text", log)
    assert "".join(log.writes) == want.getvalue()
    assert want.getvalue().splitlines() == ["a  b  c           d", "x     long value", "", "y  z"]


def test_chartable_csv_labels_round_trip():
    code, text = _run(["chartable", "--q", "5", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    pr = params(5)
    assert header[0] == "irrep"
    parsed_classes = [parse_class(h, pr) for h in header[1:]]
    assert parsed_classes == enumerate_classes(pr)
    parsed_irreps = [parse_irrep(r[0], pr) for r in body]
    assert parsed_irreps == enumerate_irreps(pr)


def test_usage_errors_exit_2():
    code, _ = _run(["tensor", "--q", "5", "--left", "V:1"])  # missing --right
    assert code == 2
    code, text = _run(["tensor", "--q", "5", "--left", "V:1", "--right", "W:3,3"])
    assert code == 2
    assert "label grammar" in text
    code, _ = _run(["classes", "--q", "6"])
    assert code == 2


def test_the_usage_line_is_the_join_of_the_label_grammars():
    grammars = (gl2.IRREP_GRAMMAR, gl2.CLASS_GRAMMAR, sl3.SL3_IRREP_GRAMMAR)
    tables = [[kind + (f":{','.join(names)}" if names else "") for kind, (_, names) in g.items()] for g in grammars]
    usage = "label grammar: " + " | ".join(" ".join(forms) for forms in tables)
    assert usage == "label grammar: U:a V:a W:a,b X:n | c1:k c2:k c3:k,l c4:m | piQS piT:u piRT:u"
    assert _run(["tensor", "--q", "3", "--left", "Q:1", "--right", "U:0"]) == (
        2,
        f"error: unknown irrep label 'Q:1'\n{usage}\n",
    )
    assert _run(["sl3-restrict", "--q", "3", "--pi", "piX", "--to", "U:0"]) == (
        2,
        f"error: unknown SL3 irrep label 'piX' ({', '.join(tables[2])})\n{usage}\n",
    )


# Verify runners and text forms that the workloads of the benchmark run: their exact output.
@pytest.mark.parametrize(
    "argv, want",
    [
        (["verify", "--suite", "orthogonality", "--q", "3"], "PASS orthogonality q=3\nPASS\n"),
        (
            ["verify", "--suite", "indx-counts", "--q", "2,3"],
            "SKIP indx-counts q=2: degenerate at q=2\nPASS indx-counts q=3\nPASS\n",
        ),
        (["verify", "--suite", "sl3", "--q", "4"], "PASS sl3 q=4\nPASS\n"),
        (["verify", "--suite", "harmonic", "--q", "2"], "PASS harmonic q=2\nPASS\n"),
        (["verify", "--suite", "tensor-agree", "--q", "7"], "PASS tensor-agree q=7\nPASS\n"),
        (["sl3-restrict", "--q", "3", "--pi", "piQS", "--to", "U:0"], "[piQS restricted to GL2(3) : U:0] = 2\n"),
    ],
)
def test_verify_runners_and_text_forms_print_their_exact_text(argv, want):
    assert _run(argv) == (0, want)


def test_the_sampled_tensor_agree_and_sl3_reports():
    code, text = _run(["verify", "--suite", "tensor-agree", "--q", "7", "--format", "json"])
    assert code == 0
    assert json.loads(text)["reports"] == [
        {"check": "tensor-agree", "q": 7, "mode": "sampled:10000", "triples": 10000, "pass": True, "disagreements": []}
    ]
    code, text = _run(["verify", "--suite", "sl3", "--q", "4", "--format", "json"])
    assert code == 0
    note = "d=3: X-type witnesses computed as d+1 = 4, not 2"
    assert json.loads(text)["reports"] == [
        {"check": "sl3", "q": 4, "pass": True, "witnesses": 15, "failures": [], "note": note}
    ]


def test_a_bad_q_list_is_a_usage_error(capsys):
    assert _run(["verify", "--q", "3,x"]) == (2, "")
    assert capsys.readouterr().err.endswith("gl2rep verify: error: argument --q: bad q list '3,x'\n")


def _failed(report: dict) -> str:
    return f"FAIL {report['check']} q={report['q']}\n{json.dumps(report, indent=2)}\nFAIL\n"


def test_a_failed_indx_count_prints_its_report(monkeypatch):
    real = tensor.ind_X_counts
    monkeypatch.setattr(tensor, "ind_X_counts", lambda pr: {n: {} if n == 1 else got for n, got in real(pr).items()})
    mismatch = {"n": 1, "got": {}, "expected": {"2": 4, "12": 4, "6": 4, "8": 2}, "total": 0}
    report = {"check": "indx-counts", "q": 3, "pass": False, "mismatches": [mismatch]}
    assert _run(["verify", "--suite", "indx-counts", "--q", "3"]) == (1, _failed(report))


def test_a_tensor_agree_disagreement_prints_its_report(monkeypatch):
    real = tensor.mult_closed_array
    X = tensor.X

    def kernel(pr, x, y, z):
        # X x X -> X one too high: at q = 2 the sign character squares to the trivial one
        return real(pr, x, y, z) + ((x[0] == X) & (y[0] == X) & (z[0] == X))

    monkeypatch.setattr(tensor, "mult_closed_array", kernel)
    bad = {"q": 2, "cell": "XxX->X", "left": "X:1", "right": "X:1", "target": "X:1", "closed": 1, "class_sum": 0}
    report = {"check": "tensor-agree", "q": 2, "mode": "exhaustive", "triples": 27, "pass": False, "disagreements": [bad]}
    assert _run(["verify", "--suite", "tensor-agree", "--q", "2"]) == (1, _failed(report))


@pytest.mark.parametrize(
    "name, wrong, counterexample",
    [
        # at q = 2 the row pairs run (U:0, U:0), (U:0, V:0), ...: the second should sum to 0
        ("char_inner_products", (1, 1), {"kind": "row", "a": "U:0", "b": "V:0", "got": 1}),
        # the column pairs run (c1:0, c1:0), (c1:0, c2:0), (c1:0, c4:1), (c2:0, c2:0): the fourth should be 6 / 3
        ("class_inner_products", (3, 5), {"kind": "column", "a": "c2:0", "b": "c2:0", "got": 5}),
    ],
)
def test_a_failed_orthogonality_names_its_first_bad_pair(monkeypatch, name, wrong, counterexample):
    real = getattr(cli, name)
    at, value = wrong

    def corrupted(pr):
        sums = real(pr)
        sums[at] = value
        return sums

    monkeypatch.setattr(cli, name, corrupted)
    report = {"check": "orthogonality", "q": 2, "pass": False, "counterexample": counterexample}
    assert _run(["verify", "--suite", "orthogonality", "--q", "2"]) == (1, _failed(report))


def test_verify_small_suites_pass():
    code, text = _run(["verify", "--q", "3", "--suite", "census"])
    assert code == 0
    assert "PASS census q=3" in text
    code, text = _run(["verify", "--suite", "s4-fixture", "--format", "json"])
    assert code == 0
    assert json.loads(text)["pass"] is True


def test_verify_tensor_agree_q2():
    code, text = _run(["verify", "--q", "2", "--suite", "tensor-agree", "--format", "json"])
    assert code == 0
    report = json.loads(text)["reports"][0]
    assert report["mode"] == "exhaustive" and report["triples"] == 27


def test_verify_gelfand_q2_expects_all_of_s3():
    # GL2(2) ~ S3: the Steinberg V:0 induces multiplicity free besides {1, q-1}
    code, text = _run(["verify", "--q", "2", "--suite", "gelfand", "--format", "json"])
    assert code == 0
    report = json.loads(text)["reports"][0]
    assert report["pass"] is True
    assert report["classified"] == ["U:0", "V:0", "X:1"]
    assert report["dims_rule"] == ["U:0", "X:1"]


def test_verify_gelfand_reports_the_sweep_only_on_a_disagreement(monkeypatch):
    code, text = _run(["verify", "--q", "3", "--suite", "gelfand", "--format", "json"])
    assert code == 0
    report = json.loads(text)["reports"][0]
    assert list(report) == ["check", "q", "pass", "classified", "dims_rule"]
    # a norm test that drops U:0 disagrees with the mult_closed sweep
    real = tensor.classify_gelfand
    monkeypatch.setattr(tensor, "classify_gelfand", lambda pr: real(pr) - {GL2Irrep.U(pr, 0)})
    code, text = _run(["verify", "--q", "3", "--suite", "gelfand", "--format", "json"])
    assert code == 1
    report = json.loads(text)["reports"][0]
    assert report["pass"] is False
    assert report["sweep"] == ["U:0", "U:1", "X:1", "X:2", "X:5"]
    assert "U:0" not in report["classified"]


@pytest.mark.parametrize("kind, wrong", [("U", (9, 9)), ("X", (4, 3))])
def test_verify_gelfand_fails_on_a_wrong_family_norm(monkeypatch, kind, wrong):
    # at q = 3 U's norms are (8, 8) and X's (14, 14): a wrong U keeps the
    # classification, which only the class sums catch; a wrong X also drops
    # the X family from it, which the sweep catches too
    real = tensor.family_norms
    monkeypatch.setattr(tensor, "family_norms", lambda k, q: wrong if k == kind else real(k, q))
    code, text = _run(["verify", "--q", "3", "--suite", "gelfand", "--format", "json"])
    assert code == 1
    (report,) = json.loads(text)["reports"]
    assert report["pass"] is False
    labels = [pi.label() for pi in enumerate_irreps(params(3)) if pi.kind == kind]
    assert report["norms"] == [
        {"irrep": label, "class_sum": list(real(kind, 3)), "family_norms": list(wrong)} for label in labels
    ][:5]
    assert ("sweep" in report) == (kind == "X")


def test_empty_q_list_is_a_usage_error():
    # an empty list must not fall back to the suite's default q sweep, and a q
    # below 2 must not pass as a skip past every suite's ceiling
    for q_list, suite in (
        (",", "gelfand"),
        ("", "gelfand"),
        ("1", "all"),
        ("0", "all"),
        ("-3", "all"),
        ("3,1", "all"),
        ("1", "harmonic"),
    ):
        code, text = _run(["verify", "--q", q_list, "--suite", suite])
        assert code == 2, q_list
        assert text == "", q_list


def test_verify_respects_ceiling():
    code, text = _run(["verify", "--q", "11", "--suite", "census", "--format", "json"])
    # skipped, nothing failed
    assert code == 0
    assert json.loads(text)["reports"][0]["skipped"] == f"q outside ceiling {oracle.CENSUS_MAX_Q}"
    code, text = _run(["verify", "--q", "4", "--suite", "harmonic"])
    assert code == 0
    assert text == f"SKIP harmonic q=4: q outside ceiling {harmonic.HARMONIC_MAX_Q}\nPASS\n"


def test_max_q_clamps_the_ceiling_and_never_raises_it():
    code, text = _run(["verify", "--suite", "gelfand", "--q", "3,5", "--max-q", "4"])
    assert code == 0
    assert text == "PASS gelfand q=3\nSKIP gelfand q=5: q outside ceiling 4\nPASS\n"
    code, text = _run(["verify", "--suite", "harmonic", "--q", "4", "--max-q", "9"])
    assert code == 0
    assert text == f"SKIP harmonic q=4: q outside ceiling {harmonic.HARMONIC_MAX_Q}\nPASS\n"


def test_suite_choices_are_the_registry_keys_plus_all():
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    suite = next(a for a in verify._actions if a.dest == "suite")
    assert list(suite.choices) == [*SUITES, "all"]


def test_budget_env_soft_caps_suites(monkeypatch):
    # a zero budget means no new checks start; nothing ran, nothing failed
    monkeypatch.setenv("GT_BUDGET_SECONDS", "0")
    code, text = _run(["verify", "--q", "3", "--suite", "all", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["budget_exhausted"] is True
    assert all("skipped" in r for r in payload["reports"])
    code, text = _run(["verify", "--suite", "s4-fixture"])
    assert code == 0
    assert text == "SKIP s4-fixture q=0: budget exhausted\nPASS\n"


def test_bad_sl3_parameter_is_a_usage_error():
    code, text = _run(["sl3-restrict", "--q", "3", "--pi", "piT:x", "--to", "U:0"])
    assert code == 2
    assert text.startswith("error:") and "label grammar" in text


@pytest.mark.parametrize("budget", ["abc", "nan"])
def test_bad_budget_env_is_a_usage_error(monkeypatch, budget):
    monkeypatch.setenv("GT_BUDGET_SECONDS", budget)
    code, text = _run(["verify", "--q", "3", "--suite", "census"])
    assert code == 2
    assert text == f"error: GT_BUDGET_SECONDS={budget!r} is not a number of seconds\n"


def test_sl3_restrict_command():
    code, text = _run(["sl3-restrict", "--q", "3", "--pi", "piQS", "--to", "U:0", "--format", "json"])
    assert code == 0
    assert json.loads(text)["multiplicity"] == 2


def test_induct_counts():
    code, text = _run(["induct", "--q", "3", "--pi", "X:1", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["count"] == 14
    assert payload["total_dim"] == 48 * 2


# -- the renderers against the stdlib and today's text layout


def _reference_table(rows: list[dict], columns: list[str], fmt: str) -> str:
    """A table of dict rows as json.dumps(indent=2), csv.DictWriter or the padded text layout."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})
        return out.getvalue()
    widths = {c: max([len(c), *(len(str(r.get(c, ""))) for r in rows)]) for c in columns}
    out.write("  ".join(c.ljust(widths[c]) for c in columns).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns).rstrip() + "\n")
    return out.getvalue()


def _reference_induct(q: int, label: str, fmt: str) -> str:
    pr = params(q)
    pi = parse_irrep(label, pr)
    dec = tensor.ind_decompose(pi, pr)
    rows = [{"left": p1.label(), "right": p2.label(), "mult": m} for (p1, p2), m in dec]
    count, total_dim = len(dec), sum(m * p1.dim() * p2.dim() for (p1, p2), m in dec)
    if fmt == "json":
        payload = {"q": q, "pi": pi.label(), "count": count, "total_dim": total_dim, "constituents": rows}
        return json.dumps(payload, indent=2) + "\n"
    text = _reference_table(rows, ["left", "right", "mult"], fmt)
    return text + f"count: {count}  total_dim: {total_dim}\n" if fmt == "text" else text


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_induct_matches_the_reference_renderers(q, fmt):
    for label in ("U:0", "V:1", "W:0,1", "X:1"):
        if label == "W:0,1" and q == 2:  # GL2(2) has no W family
            continue
        argv = ["induct", "--q", str(q), "--pi", label, "--format", fmt]
        assert _run(argv) == (0, _reference_induct(q, label, fmt)), argv


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_emit_matches_the_reference_renderers(fmt):
    from gl2rep.cli import _emit

    names = ["a", "bb", "c"]
    # True == 1 and hash(True) == hash(1): the two must still render apart
    rows = [{"a": True, "bb": 1, "c": "x y"}, {"a": 1, "bb": True, "c": ""}, {"a": "W:0,1", "bb": 0, "c": None}]
    for table in (rows, []):
        out = io.StringIO()
        _emit(names, [[row[n] for row in table] for n in names], fmt, out)
        assert out.getvalue() == _reference_table(table, names, fmt)


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_an_empty_witness_table_prints_its_header(monkeypatch, fmt):
    # every GL2 irrep has a witness, so only a report with no rows is empty
    from gl2rep import sl3

    monkeypatch.setattr(sl3, "witness_report", lambda pr: [])
    code, text = _run(["sl3-witness", "--q", "3", "--irrep", "X:1", "--format", fmt])
    assert code == 0
    assert text == _reference_table([], ["tau", "witness", "multiplicity", "expected", "ok"], fmt)
