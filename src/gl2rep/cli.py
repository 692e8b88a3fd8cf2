"""Command-line front end: tables, single queries, and verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from itertools import islice

import numpy as np

from . import gl2, harmonic, oracle, sl3, tensor
from .cyclotomic import _fold, coords_json, coords_text, demote, euler_phi
from .errors import GL2RepError, InvalidLabel, NotPrimePower
from .gl2 import (
    GL2Irrep,
    char_inner_products,
    char_rows,
    class_inner_products,
    class_table,
    enumerate_classes,
    enumerate_irreps,
    params,
    parse_irrep,
    require_budget,
    table_bytes,
    x_orbit_reps,
)

SAMPLED_TRIPLES = 10_000
EXHAUSTIVE_TENSOR_MAX_Q = 5


def _write_json(payload, out, indent: int | None = None) -> None:
    """One JSON document and its newline, in one write."""
    # json.dumps takes the C encoder when not indenting; json.dump never does
    out.write(json.dumps(payload, indent=indent) + "\n")


# Bytes of text per write of a table or a list of JSON records: a block of
# rows and their join hold about twice this.
WRITE_BYTES = 1 << 16


class _Encodings(dict):
    """JSON text of values, keyed by (type, value): True == 1, but they encode apart."""

    def __missing__(self, key):
        text = self[key] = json.dumps(key[1])
        return text


def _encode(values) -> list[str]:
    memo = _Encodings()
    return [memo[type(v), v] for v in values]


def _blocks(columns: list[list], width: int):
    """The rows of these columns, as many rows of ``width`` per block as fill WRITE_BYTES, at least one."""
    rows, step = zip(*columns), max(1, WRITE_BYTES // width)
    for _ in range(0, len(columns[0]), step):
        yield islice(rows, step)


def _write_records(out, names: list[str], columns: list[list[str]], depth: int) -> None:
    """A list of flat records with these keys, from columns of JSON-encoded
    values: the bytes json.dumps(records, indent=2) gives for the list at
    nesting depth ``depth``, without a trailing newline."""
    if not columns[0]:
        out.write("[]")
        return
    outer = "  " * depth
    field = outer + "    "
    fields = ",\n".join(f"{field}{json.dumps(name).replace('%', '%%')}: %s" for name in names)
    record = f"{outer}  {{\n{fields}\n{outer}  }}"
    # values repeat down a column: the widest is found among the distinct ones
    for i, block in enumerate(_blocks(columns, len(record) + sum(max(map(len, set(col))) for col in columns))):
        out.write(("," if i else "[") + "\n" + ",\n".join([record % row for row in block]))
    out.write(f"\n{outer}]")


def _emit(names: list[str], columns: list[list], fmt: str, out) -> None:
    """A table given by its column names and one list of values per column; text
    formats each column's str copy through one template of ``%-{width}s`` fields."""
    if fmt == "json":
        _write_records(out, names, [_encode(col) for col in columns], 0)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(names)
        writer.writerows(zip(*columns))
    else:
        columns = [list(map(str, col)) for col in columns]
        widths = [max(len(name), max(map(len, col), default=0)) for name, col in zip(names, columns)]
        line = "  ".join(f"%-{w}s" for w in widths)
        head = line % tuple(names)
        out.write(head.rstrip() + "\n")
        for block in _blocks(columns, len(head) + 1):
            out.write("".join([(line % row).rstrip() + "\n" for row in block]))


def cmd_classes(args, out) -> int:
    _, sizes, _, labels = class_table(args.q)
    _emit(["class", "size"], [labels, sizes], args.format, out)
    return 0


def cmd_irreps(args, out) -> int:
    t = tensor.irrep_table(args.q)
    _emit(["irrep", "dim", "dual"], [t.labels.tolist(), t.dim.tolist(), t.duals.tolist()], args.format, out)
    return 0


# Bytes of closed-form table one chunk of _value_ids's rows may hold.
VALUE_ID_CHUNK_BYTES = 1 << 18

# Bytes chartable holds per entry, past one chunk and one write block: for csv
# the int32 value id and a pointer in the column lists; for text also one in
# their str copies, and 8 for a padded row wider than a block, held about twice
# (at most 2.4 bytes per entry at q <= 73: 2.5 MB at q = 32, 1.25 MB at q = 73).
_ENTRY_BYTES = {"json": 4, "csv": 12, "text": 28}


def _chunk_rows(q: int) -> int:
    return max(1, VALUE_ID_CHUNK_BYTES // table_bytes(q, 1))


# Bytes of one distinct value's JSON text (``_value_json``) per coordinate,
# and per value for its braces, order, approx and the pointers to it: at most
# 15.7 and 160 at every q <= 49 measured (q = 2 to 16, 25, 27, 31, 32, 37, 49).
_JSON_COORD_BYTES, _JSON_VALUE_BYTES = 16, 256


def chartable_bytes(q: int, fmt: str) -> int:
    """About the most bytes chartable holds at once, from q alone: what its
    format keeps per entry (``_ENTRY_BYTES``), a write block and its join, and
    one chunk of closed-form rows with 104 bytes per entry for its keys: the
    padded terms (32), their two digits and the key (24), and np.unique's
    sorted copy, order and inverse with the ids gathered through it (48).

    JSON also holds the text of every distinct value, and a row of them
    joined, which the sink encodes once more.  The values are at most
    2qr + 10r + 3, r = q - 1: a value is keyed by its terms, which per class
    kind take at most 4r (c1), 2r + 1 (c2), r^2 + 2r + 1 (c3) and
    rs + 2r + 1 (c4) forms, s = q + 1."""
    n = q * q - 1
    held = _ENTRY_BYTES[fmt] * n * n + 2 * WRITE_BYTES + table_bytes(q, _chunk_rows(q), per_entry=104)
    if fmt == "json":
        values = 2 * q * (q - 1) + 10 * (q - 1) + 3
        held += (values + 2 * n) * (_JSON_COORD_BYTES * euler_phi(n) + _JSON_VALUE_BYTES)
    return held


def _value_ids(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The character table of GL2(q) as value ids: an (irreps, classes) int32
    array of ids, and the (coef, exp) terms of each id as two (2, ids) arrays.

    The closed-form table is built a chunk of rows at a time and never held
    whole.  Each entry is keyed by its terms, padded to two with zero terms
    (at q = 16, 65 025 entries have 541 keys).  np.unique finds a chunk's
    distinct keys and the entries of each; a dict numbers only the distinct
    keys, each new one with the next id.
    """
    pr = params(q)
    irreps = tensor.irrep_table(q).irreps
    # a term (coef, exp) is the digit (coef + 1) * rs + exp: every coefficient lies in [-1, s]
    radix = (pr.s + 2) * pr.rs
    n = len(irreps)
    ids = np.empty((n, n), dtype=np.int32)
    numbers: dict[int, int] = {}
    step = _chunk_rows(q)
    for lo in range(0, n, step):
        chunk = irreps[lo : lo + step]
        terms = np.zeros((2, 2, len(chunk), n), dtype=np.int64)
        at = 0
        for block in char_rows(chunk, pr):
            terms[:, : block.width, :, at : at + block.length] = block.terms
            at += block.length
        digits = (terms[0] + 1) * pr.rs + terms[1]
        keys = digits[0] * radix + digits[1]
        distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
        numbered = np.array([numbers.setdefault(k, len(numbers)) for k in distinct.tolist()], dtype=np.int32)
        ids[lo : lo + step] = numbered[inverse].reshape(keys.shape)
    digits = np.fromiter(numbers, dtype=np.int64, count=len(numbers))
    digits = np.stack([digits // radix, digits % radix])
    return ids, digits // pr.rs - 1, digits % pr.rs


def _value_json(order: int, coeffs) -> str:
    """The final text of a value, given by its demoted coordinates, at depth 4
    of chartable's JSON (payload["rows"][i]["values"][j]):
    json.dumps(coords_json(order, coeffs), indent=2) with 8 more spaces after
    each line break.

    coords_json is a flat dict of an int and nonempty flat lists of numbers,
    so the stdlib's C encoder writes it on one line and only the line breaks
    are placed here: ', "' separates its fields, and ", " the items of a list.
    """
    text = json.dumps(coords_json(order, coeffs)).replace(', "', ',\n          "').replace(", ", ",\n            ")
    text = text.replace("[", "[\n            ").replace("]", "\n          ]")
    return text.replace("{", "{\n          ").replace("}", "\n        }")


def cmd_chartable(args, out) -> int:
    """The character table, rendered from value ids (``_value_ids``): each
    distinct value is folded from its terms and encoded once, from its
    coordinates (no Cyclotomic is built), and every entry is a lookup.
    Nothing is kept for the next call.  BudgetExceeded is raised, before
    anything is allocated, if ``chartable_bytes`` passes the table limit."""
    pr = params(args.q)
    require_budget(chartable_bytes(pr.q, args.format), f"chartable --format {args.format} over GL2({pr.q})")
    _, sizes, _, classes = class_table(pr.q)
    t = tensor.irrep_table(args.q)
    ids, coefs, exps = _value_ids(pr.q)
    encode = _value_json if args.format == "json" else coords_text
    texts = np.array(
        [encode(*demote(pr.rs, _fold(pr.rs, zip(e, c)))) for c, e in zip(coefs.T.tolist(), exps.T.tolist())],
        dtype=object,
    )
    if args.format == "json":
        # the bytes of json.dumps(payload, indent=2), an irrep row at a time:
        # the whole document is 80 MB at q = 16
        head = json.dumps({"q": args.q, "classes": [{"class": c, "size": n} for c, n in zip(classes, sizes)]}, indent=2)
        out.write(head[: -len("\n}")] + ',\n  "rows": [')
        for i, (label, row) in enumerate(zip(t.encoded.tolist(), ids)):
            # the values are written apart: a row of them is 9 MB at q = 32
            out.write(f'{"," if i else ""}\n    {{\n      "irrep": {label},\n      "values": [\n        ')
            out.write(",\n        ".join(texts[row].tolist()))
            out.write("\n      ]\n    }")
        out.write("\n  ]\n}\n")
    else:
        names = ["irrep", *classes]
        _emit(names, [t.labels.tolist(), *(texts[col].tolist() for col in ids.T)], args.format, out)
    return 0


def cmd_tensor(args, out) -> int:
    pr = params(args.q)
    left = parse_irrep(args.left, pr)
    right = parse_irrep(args.right, pr)
    constituents = tensor.decompose(left, right, pr)
    total = sum(m * pi.dim() for pi, m in constituents)
    payload = {
        "q": args.q,
        "left": left.label(),
        "right": right.label(),
        "constituents": [{"irrep": pi.label(), "mult": m} for pi, m in constituents],
        "dim_check": total == left.dim() * right.dim(),
    }
    if args.format == "json":
        _write_json(payload, out)
    else:
        _emit(["irrep", "mult"], [[pi.label() for pi, _ in constituents], [m for _, m in constituents]], args.format, out)
        if args.format == "text":
            out.write(f"dim_check: {payload['dim_check']}\n")
    return 0


def cmd_induct(args, out) -> int:
    pr = params(args.q)
    pi = parse_irrep(args.pi, pr)
    t = tensor.irrep_table(args.q)
    i, j, m = tensor.ind_sweep(pi, pr)
    count, total_dim = len(m), int((m * t.dim[i] * t.dim[j]).sum())
    names = ["left", "right", "mult"]
    if args.format == "json":
        head = json.dumps({"q": args.q, "pi": pi.label(), "count": count, "total_dim": total_dim}, indent=2)
        out.write(head[: -len("\n}")] + ',\n  "constituents": ')
        _write_records(out, names, [t.encoded[i].tolist(), t.encoded[j].tolist(), _encode(m.tolist())], 1)
        out.write("\n}\n")
    else:
        _emit(names, [t.labels[i].tolist(), t.labels[j].tolist(), m.tolist()], args.format, out)
        if args.format == "text":
            out.write(f"count: {count}  total_dim: {total_dim}\n")
    return 0


def cmd_gelfand(args, out) -> int:
    pr = params(args.q)
    labels = [pi.label() for pi in sorted(tensor.classify_gelfand(pr), key=GL2Irrep.sort_key)]
    if args.format == "json":
        _write_json({"q": args.q, "gelfand": labels}, out)
    else:
        _emit(["irrep"], [labels], args.format, out)
    return 0


def cmd_sl3_restrict(args, out) -> int:
    pr = params(args.q)
    pi = sl3.parse_sl3_irrep(args.pi, pr)
    tau = parse_irrep(args.to, pr)
    mult = sl3.restriction_mult(pi, tau, pr)
    payload = {"q": args.q, "pi": pi.label(), "tau": tau.label(), "multiplicity": mult}
    if args.format == "json":
        _write_json(payload, out)
    else:
        out.write(f"[{pi.label()} restricted to GL2({args.q}) : {tau.label()}] = {mult}\n")
    return 0


def cmd_sl3_witness(args, out) -> int:
    pr = params(args.q)
    rows = sl3.witness_report(pr)
    if args.irrep:
        wanted = parse_irrep(args.irrep, pr).label()
        rows = [r for r in rows if r["tau"] == wanted]
    if args.format == "json":
        _write_json({"q": args.q, "witnesses": rows}, out, indent=2)
    else:
        names = ["tau", "witness", "multiplicity", "expected", "ok"]
        _emit(names, [[row[name] for row in rows] for name in names], args.format, out)
    ok = all(r["ok"] for r in rows)
    return 0 if ok else 1


# -- verification suites --------------------------------------------------------


def _suite_orthogonality(q: int, seed: int) -> dict:
    pr = params(q)
    irreps = enumerate_irreps(pr)
    classes = enumerate_classes(pr)
    first_bad = None
    # every row pair in one class sum, then every column pair in another
    row_sums = iter(char_inner_products(pr))
    for i, a in enumerate(irreps):
        for b in irreps[i:]:
            want = pr.order if a is b else 0
            got = next(row_sums)
            if got != want and first_bad is None:
                first_bad = {"kind": "row", "a": a.label(), "b": b.label(), "got": got}
    column_sums = iter(class_inner_products(pr))
    for i, c in enumerate(classes):
        for c2 in classes[i:]:
            want = pr.order // c.size() if c is c2 else 0
            got = next(column_sums)
            if got != want and first_bad is None:
                first_bad = {"kind": "column", "a": c.label(), "b": c2.label(), "got": got}
    return {
        "check": "orthogonality",
        "q": q,
        "pass": first_bad is None,
        "counterexample": first_bad,
    }


def _suite_tensor_agree(q: int, seed: int) -> dict:
    pr = params(q)
    if q <= EXHAUSTIVE_TENSOR_MAX_Q:
        triples = tensor.all_triples(pr)
        mode = "exhaustive"
        count = (q * q - 1) ** 3
    else:
        triples = tensor.sample_triples(pr, SAMPLED_TRIPLES, seed)
        mode = f"sampled:{SAMPLED_TRIPLES}"
        count = SAMPLED_TRIPLES
    bad = tensor.verify_agreement(pr, triples, stop_after=5)
    return {
        "check": "tensor-agree",
        "q": q,
        "mode": mode,
        "triples": count,
        "pass": not bad,
        "disagreements": [d.as_json() for d in bad],
    }


def _suite_indx_counts(q: int, seed: int) -> dict:
    pr = params(q)
    bad = []
    for n in x_orbit_reps(pr):
        got = tensor.ind_X_counts_by_dim(n, pr)
        expected = tensor.ind_X_expected(q, n % 2)
        total = sum(got.values())
        if got != expected or total != (q - 1) * (q * q - q + 1):
            bad.append({"n": n, "got": got, "expected": expected, "total": total})
    return {"check": "indx-counts", "q": q, "pass": not bad, "mismatches": bad[:5]}


def _suite_gelfand(q: int, seed: int) -> dict:
    pr = params(q)
    gelfand = tensor.classify_gelfand(pr)
    irreps = enumerate_irreps(pr)
    got = [pi.label() for pi in irreps if pi in gelfand]
    # the class-sum norms of every irrep must be the closed forms it was classified by
    norms = []
    for pi, found in zip(irreps, tensor.class_sum_norms(pr), strict=True):
        closed = tensor.family_norms(pi.kind, q)
        if found != closed:
            norms.append({"irrep": pi.label(), "class_sum": list(found), "family_norms": list(closed)})
    # the third route: the mult_closed sweep, (q^2-1)^3 triples at most, so
    # it runs only under the suite's ceiling q <= 9
    sweep = [pi.label() for pi in irreps if tensor.is_gelfand_triple_product(pi, pr)]
    dims_rule = [pi.label() for pi in irreps if pi.dim() in (1, q - 1)]
    # GL2(2) ~ S3 and V (x) V = 1 + sgn + V, so at q=2 the Steinberg V:0
    # induces multiplicity free as well (see notes/decisions.md)
    expected = set(dims_rule) | {"V:0"} if q == 2 else set(dims_rule)
    report = {
        "check": "gelfand",
        "q": q,
        "pass": set(got) == expected and sweep == got and not norms,
        "classified": got,
        "dims_rule": dims_rule,
    }
    if sweep != got:
        report["sweep"] = sweep
    if norms:
        report["norms"] = norms[:5]
    if q == 2:
        report["note"] = (
            "q=2: GL2(2) ~ S3 has no W family, and its two-dimensional V:0 "
            "also induces multiplicity free (V (x) V = 1 + sgn + V), so the "
            "expected set is the dimension rule {1, q-1} plus V:0"
        )
    return report


def _suite_sl3(q: int, seed: int) -> dict:
    pr = params(q)
    rows = sl3.witness_report(pr)
    bad = [r for r in rows if not r["ok"]]
    report = {"check": "sl3", "q": q, "pass": not bad, "witnesses": len(rows), "failures": bad[:5]}
    if pr.d == 3:
        report["note"] = "d=3: X-type witnesses computed as d+1 = 4, not 2"
    return report


def _suite_s4_fixture(q: int, seed: int) -> dict:
    table = oracle.generic_multiplicity(
        oracle.s4_char_table(), oracle.c3_char_table(), oracle.S4_OVER_C3_CLASS_MAP
    )
    return {
        "check": "s4-fixture",
        "pass": table == oracle.S4_OVER_C3_EXPECTED,
        "multiplicity_table": table,
    }


def _suite_harmonic(q: int, seed: int) -> dict:
    pr = params(q)
    rows = []
    ok = True
    for pi in enumerate_irreps(pr):
        basis = harmonic.build_I_pi(pi, q)
        comm = harmonic.commutativity_check(basis)
        # sum of m^2 over the constituents of the induction of pi, and whether
        # that equals sum of m, i.e. whether pi induces multiplicity free
        expected_dim, constituents = tensor.family_norms(pi.kind, q)
        gelf = expected_dim == constituents
        good = comm == gelf and len(basis) == expected_dim
        ok = ok and good
        rows.append(
            {
                "pi": pi.label(),
                "dim_I": len(basis),
                "expected_dim": expected_dim,
                "commutative": comm,
                "gelfand": gelf,
                "ok": good,
            }
        )
    return {"check": "harmonic", "q": q, "pass": ok, "rows": rows}


# The one place a suite is declared: name -> (runner(q, seed), default q
# sweep, q ceiling).  A ceiling a module enforces is read from that module.
# A ceiling of None marks a suite that takes no q: it runs once, at q = 0.
SUITES = {
    "census": (lambda q, seed: oracle.census(q), (2, 3, 4, 5), oracle.CENSUS_MAX_Q),
    "orthogonality": (_suite_orthogonality, (2, 3, 4, 5), 9),
    "tensor-agree": (_suite_tensor_agree, (2, 3, 4, 5), 9),
    "indx-counts": (_suite_indx_counts, (3, 4, 5), 9),
    "gelfand": (_suite_gelfand, (3, 4, 5), 9),
    "embed": (lambda q, seed: oracle.verify_embedding(q), (3, 4, 5), oracle.CENSUS_MAX_Q),
    "sl3": (_suite_sl3, (2, 3, 4, 5, 7, 8, 9), 16),
    "bessel": (lambda q, seed: oracle.bessel_check(q), (3, 4, 5), oracle.CENSUS_MAX_Q),
    "s4-fixture": (_suite_s4_fixture, (0,), None),
    "harmonic": (_suite_harmonic, (2, 3), harmonic.HARMONIC_MAX_Q),
}


def cmd_verify(args, out) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    budget = os.environ.get("GT_BUDGET_SECONDS")
    try:
        deadline = time.monotonic() + float(budget) if budget else None
        # a nan deadline is never passed, which would silently lift the budget
        if deadline is not None and math.isnan(deadline):
            raise ValueError(budget)
    except ValueError:
        out.write(f"error: GT_BUDGET_SECONDS={budget!r} is not a number of seconds\n")
        return 2
    reports = []
    all_pass = True
    exhausted = False
    for suite in suites:
        runner, qs, ceiling = SUITES[suite]
        if ceiling is not None:
            qs = args.q_list or qs
            if args.max_q is not None:
                ceiling = min(ceiling, args.max_q)
        for q in qs:
            if ceiling is not None and not 2 <= q <= ceiling:
                reports.append({"check": suite, "q": q, "skipped": f"q outside ceiling {ceiling}"})
                continue
            if suite == "indx-counts" and q == 2:
                reports.append({"check": suite, "q": q, "skipped": "degenerate at q=2"})
                continue
            if deadline is not None and time.monotonic() > deadline:
                reports.append({"check": suite, "q": q, "skipped": "budget exhausted"})
                exhausted = True
                continue
            rep = runner(q, args.seed)
            reports.append(rep)
            all_pass = all_pass and rep.get("pass", True)
    if args.format == "json":
        _write_json({"pass": all_pass, "budget_exhausted": exhausted, "reports": reports}, out, indent=2)
    else:
        for rep in reports:
            if "skipped" in rep:
                out.write(f"SKIP {rep['check']} q={rep.get('q', '-')}: {rep['skipped']}\n")
            else:
                status = "PASS" if rep.get("pass", True) else "FAIL"
                out.write(f"{status} {rep['check']} q={rep.get('q', '-')}\n")
                if status == "FAIL":
                    out.write(json.dumps(rep, indent=2, default=str) + "\n")
        out.write(("PASS" if all_pass else "FAIL") + "\n")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl2rep",
        description="Exact multiplicity tables for GL2(q) tensor products and SL3(q) restriction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_q=True):
        if needs_q:
            p.add_argument("--q", type=int, required=True, help="prime power >= 2")
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text", help="output format"
        )

    add_common(sub.add_parser("classes", help="conjugacy class labels and sizes"))
    add_common(sub.add_parser("irreps", help="irreducible labels, dimensions, duals"))
    add_common(sub.add_parser("chartable", help="full character table"))

    p = sub.add_parser("tensor", help="decompose a tensor product")
    add_common(p)
    p.add_argument("--left", required=True, help="irrep label, e.g. V:1")
    p.add_argument("--right", required=True, help="irrep label, e.g. W:0,2")

    p = sub.add_parser("induct", help="decompose the induction of an irrep to G x G")
    add_common(p)
    p.add_argument("--pi", required=True, help="irrep label")

    add_common(sub.add_parser("gelfand", help="irreps inducing multiplicity free"))

    p = sub.add_parser("sl3-restrict", help="multiplicity in an SL3(q) restriction")
    add_common(p)
    p.add_argument("--pi", required=True, help="SL3 irrep: piQS, piT:u or piRT:u")
    p.add_argument("--to", required=True, help="GL2 irrep label")

    p = sub.add_parser("sl3-witness", help="multiplicity >= 2 witnesses for every GL2 irrep")
    add_common(p)
    p.add_argument("--irrep", help="restrict the table to one GL2 irrep label")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--q", dest="q_list", type=_q_list, default=None, help="comma-separated q list")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps")
    p.add_argument("--max-q", type=int, default=None, help="clamp the per-suite q ceiling")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _q_list(text: str) -> list[int]:
    try:
        qs = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad q list {text!r}") from exc
    # an empty list would fall back to each suite's default sweep
    if not qs:
        raise argparse.ArgumentTypeError(f"empty q list {text!r}")
    return qs


_COMMANDS = {
    "classes": cmd_classes,
    "irreps": cmd_irreps,
    "chartable": cmd_chartable,
    "tensor": cmd_tensor,
    "induct": cmd_induct,
    "gelfand": cmd_gelfand,
    "sl3-restrict": cmd_sl3_restrict,
    "sl3-witness": cmd_sl3_witness,
    "verify": cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first run, not at import: building it is most of a short query
    return build_parser()


def run(argv: list[str] | None = None, out=None) -> int:
    """Parse argv and run one command; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, out)
    except (InvalidLabel, NotPrimePower) as exc:
        grammars = (gl2.IRREP_GRAMMAR, gl2.CLASS_GRAMMAR, sl3.SL3_IRREP_GRAMMAR)
        out.write(f"error: {exc}\nlabel grammar: {' | '.join(' '.join(gl2.label_forms(g)) for g in grammars)}\n")
        return 2
    except GL2RepError as exc:
        out.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
