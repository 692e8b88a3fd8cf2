"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from child import check_answer  # noqa: E402
from workloads import (  # noqa: E402
    CHARTABLE_MAX_Q,
    FORMATS,
    HARMONIC_SUBSET,
    PRIME_POWERS,
    QUERIES_PER_CELL,
    QUERY_COMMANDS,
    irrep_labels,
    query_stream,
)


# -- self time ------------------------------------------------------------------


def test_self_time_without_children_is_duration():
    assert tracer.self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_overlapping_children_once():
    # children [1, 4] and [3, 6] overlap on [3, 4]; together they cover [1, 6]
    assert tracer.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)


def test_self_time_counts_a_nested_child_once():
    # [2, 3] lies inside [1, 5]; only the outer interval counts
    assert tracer.self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == pytest.approx(6.0)


def test_self_time_clips_children_to_the_span_and_subtracts_leaves():
    assert tracer.self_time(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0), (4.0, 5.0)], 0.5) == pytest.approx(2.5)


def test_tracer_attributes_time_to_spans_and_leaves(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracer, "perf_counter", lambda: float(next(clock)))
    tr = tracer.Tracer()
    leaf = tr.leaf("leaf", lambda x: x, count_nonzero=True)
    inner = tr.span("inner", lambda: leaf(0))
    outer = tr.span("outer", lambda: (inner(), leaf(3), leaf(4)))
    outer()
    # clock: outer 0..9, inner 1..4, leaf 2..3 (inside inner), leaves 5..6 and 7..8
    groups = tr.group_totals()
    assert groups["outer"] == [1, 9 - 3 - 2, 0]
    assert groups["inner"] == [1, 3 - 1, 0]
    assert groups["leaf"] == [3, 3.0, 2]
    assert tr.parents == [tracer.ROOT, 0]


def test_calls_inside_a_leaf_are_not_traced(monkeypatch):
    monkeypatch.setattr(tracer, "perf_counter", iter(range(100)).__next__)
    tr = tracer.Tracer()
    span = tr.span("span", lambda: 1)
    leaf = tr.leaf("leaf", lambda: span())
    tr.span("root", leaf)()
    assert tr.names == ["root"]
    assert tr.group_totals()["leaf"][0] == 1


def test_install_patches_every_binding_and_class_method():
    code = (
        "import gl2rep, gl2rep.cli as cli, tracer\n"
        "orig = gl2rep.gl2.char_terms\n"
        "tracer.install(tracer.Tracer())\n"
        "from gl2rep import gl2, tensor, oracle, sl3, cyclotomic\n"
        "assert gl2.char_terms is not orig\n"
        "assert tensor.char_terms is oracle.char_terms is sl3.char_terms is gl2.char_terms\n"
        "assert cli.char_value is gl2.char_value is gl2rep.char_value\n"
        "assert gl2rep.mult_closed is tensor.mult_closed\n"
        "assert cyclotomic.Cyclotomic.as_json.__wrapped__\n"
        "assert all(v is not orig for m in (gl2, tensor, oracle, sl3) for v in vars(m).values())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- percentile rule ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_tail_uses_nearest_rank_or_the_maximum():
    values = [float(v) for v in range(1, 1001)]
    assert run.tail(values) == ("p99 of 1000", 990.0)
    assert run.tail([3.0, 1.0, 2.0]) == ("max of 3", 3.0)


# -- queries stream ----------------------------------------------------------------


def test_one_seed_always_gives_the_same_query_stream():
    assert query_stream(7) == query_stream(7)
    assert query_stream(7) != query_stream(8)


def test_default_seed_stream_matches_the_recorded_outputs():
    record = json.loads(run.EXPECTED.read_text())
    assert record["default_seed"] == run.DEFAULT_SEED
    stream = query_stream(run.DEFAULT_SEED)
    assert run.argv_digest(stream) == record["workloads"]["queries"]["argv_sha256"]


def test_query_stream_has_the_same_number_of_queries_in_every_cell():
    stream = query_stream(3)
    assert len(stream) >= 1000
    assert {int(argv[2]) for argv in stream} == set(PRIME_POWERS)
    cells: dict[tuple, int] = {}
    for argv in stream:
        cell = (argv[0], int(argv[2]), argv[argv.index("--format") + 1])
        cells[cell] = cells.get(cell, 0) + 1
    assert set(cells.values()) == {QUERIES_PER_CELL}
    assert {fmt for _, _, fmt in cells} == set(FORMATS)
    assert {cmd for cmd, _, _ in cells} == set(QUERY_COMMANDS)
    assert max(q for cmd, q, _ in cells if cmd == "chartable") == CHARTABLE_MAX_Q


def test_restrict_irreps_cuts_only_the_listed_q(monkeypatch):
    from child import restrict_irreps
    from gl2rep import cli
    from gl2rep.gl2 import params

    monkeypatch.setattr(cli, "enumerate_irreps", cli.enumerate_irreps)
    restrict_irreps(HARMONIC_SUBSET)
    assert [pi.label() for pi in cli.enumerate_irreps(params(3))] == list(HARMONIC_SUBSET[3])
    assert [pi.label() for pi in cli.enumerate_irreps(params(2))] == irrep_labels(2)


def test_irrep_labels_match_the_library():
    from gl2rep.gl2 import enumerate_irreps, params

    for q in PRIME_POWERS:
        assert irrep_labels(q) == [pi.label() for pi in enumerate_irreps(params(q))]


# -- output checks -----------------------------------------------------------------


def test_skip_guard_allows_only_ceiling_skips():
    text = "PASS census q=4\nSKIP harmonic q=4: q outside ceiling 3\nSKIP census q=5: budget exhausted\nPASS\n"
    assert run.unexpected_skips("verify-exact", text) == ["SKIP census q=5: budget exhausted"]
    assert run.unexpected_skips("harmonic", "SKIP harmonic q=4: q outside ceiling 3\n") != []


@pytest.mark.parametrize("fmt", FORMATS)
def test_check_answer_accepts_the_cli_output_and_catches_a_wrong_one(fmt):
    from child import HashSink
    from gl2rep import cli

    for argv in (
        ["tensor", "--q", "4", "--left", "W:0,1", "--right", "X:1", "--format", fmt],
        ["induct", "--q", "3", "--pi", "V:1", "--format", fmt],
    ):
        sink = HashSink(keep=True)
        assert cli.run(argv, out=sink) == 0
        text = sink.text()
        assert check_answer(argv, text) is None
        # drop the last constituent: the dimension no longer adds up
        if fmt == "json":
            payload = json.loads(text)
            payload["constituents"].pop()
            broken = json.dumps(payload)
        else:
            lines = text.splitlines()
            del lines[-2 if fmt == "text" else -1]  # text ends with a summary line
            broken = "\n".join(lines)
        assert check_answer(argv, broken) is not None


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_names_exactly_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    traced = {"groups": {}, "arrays": {}, "basis_dim_total": 0, "commands": [], "wall_s": 2.0}
    layers = run.layer_metrics(traced, {"wall_s": 1.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: run.unit(k) for k in layers}
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])
