"""gl2rep benchmark: end-to-end times of CLI workloads and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                       # every workload, in turn
    python3 bench/run.py --record              # rewrite bench/expected.json

Each pass over a workload runs in a fresh child interpreter (bench/child.py),
so module caches start cold as they do for a CLI user.  Passes repeat until
``--seconds`` is used up.  ``--trace 0`` reports the end-to-end metrics:

    setup_s       import gl2rep and build the CLI parser, median of fresh starts
    wall_s        one pass over the workload's commands, median over passes
    peak_rss_mb   ru_maxrss of the pass's interpreter
    query_p50_ms  per-command latency: median, and the highest percentile with
    query_p99_ms  at least 10 samples beyond it (the maximum when none has)

A query is one command of the pass: one of the 1026 queries of `queries`,
or one CLI command of the other workloads.  Times are reference seconds
(bench/speed.py), which take out the machine's changing speed.
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics of bench/tracer.py and the tracing overhead.

Every command's exit code and the sha256 of its stdout are checked against
bench/expected.json, recorded at the default seed; failures are counted,
and the fail ratio printed.  The last line of stdout is one JSON object
with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
sys.path.insert(0, str(BENCH))

from workloads import EXPECTED_SKIPS, WORKLOADS, answer_checked, commands  # noqa: E402

DEFAULT_SEED = 0
SETUP_STARTS_PER_PASS = 8
RUN_LIMIT_S = 170.0
# Workloads whose stdout does not depend on the seed, so every seed is
# checked against the outputs recorded for the default seed.
SEED_FREE_OUTPUT = ("verify-exact", "large-q", "harmonic")
# Times the import, then samples the machine's speed right after it.
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import gl2rep.cli; gl2rep.cli.build_parser(); "
    "t = time.perf_counter() - t; import sys; sys.path.insert(0, 'bench'); import speed; "
    "print(t * speed.reference_scale([speed.time_ref() for _ in range(15)]), t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}

LAYER_GROUPS = (
    "harmonic.pair_context",
    "harmonic.n_tensor",
    "harmonic.pair_count",
    "harmonic.build_I_pi",
    "harmonic.commutativity_check",
    "tensor.mult_closed",
    "tensor.sweep",
    "tensor.mult_sum",
    "cyclotomic.reduce_root_sum",
    "gl2.char_terms",
    "gl2.inner_product",
    "sl3.restriction_mult",
    "oracle.classify_element",
    "oracle.enumerate_gl2",
    "oracle.checks",
    "fields.build_tower",
    "gl2.char_value",
    "cyclotomic.as_json",
    "cyclotomic.render",
    "cyclotomic.ops",
    "gl2.enumerate",
    "cli",
)
LAYER_CALLS = (
    "harmonic.build_I_pi",
    "harmonic.commutativity_check",
    "tensor.mult_closed",
    "tensor.mult_sum",
    "cyclotomic.reduce_root_sum",
    "gl2.char_terms",
    "sl3.restriction_mult",
    "oracle.classify_element",
    "gl2.char_value",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- statistics ----------------------------------------------------------------

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least 10 of n samples beyond it."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[str, float]:
    """The tail latency by the percentile rule, or the maximum when no percentile qualifies."""
    p = tail_percentile(len(values))
    if p is None:
        return f"max of {len(values)}", max(values)
    return f"p{p:g} of {len(values)}", percentile(values, p)


# -- child processes ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GT_BUDGET_SECONDS", None)  # a soft budget would turn checks into SKIPs
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # imports use cached bytecode, as an installed CLI does
    env["PYTHONPATH"] = str(SRC)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run time limit reached")
    return left


def run_child(argv: list[str], deadline: float) -> str:
    """Run one fresh interpreter to completion and return its stdout."""
    try:
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv[1:])} did not finish within the run time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(deadline: float, starts: int) -> list[float]:
    """Reference seconds to import gl2rep and build the CLI parser, in fresh interpreters."""
    snippet = [sys.executable, "-c", SETUP_SNIPPET]
    return [float(run_child(snippet, deadline).split()[0]) for _ in range(starts)]


def run_pass(workload: str, seed: int, trace: bool, check_answers: bool, deadline: float) -> dict:
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(int(trace)), str(int(check_answers))]
    result = json.loads(run_child(argv, deadline).strip().splitlines()[-1])
    if not Path(result["gl2rep_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"gl2rep was imported from {result['gl2rep_file']}, not from {SRC}")
    return result


# -- correctness -------------------------------------------------------------------------


def argv_digest(argvs: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()


def load_expected(workload: str, seed: int, argvs: list[list[str]]) -> dict | None:
    """Recorded exit codes and stdout hashes that apply to this seed, if any."""
    if not EXPECTED.is_file():
        raise BenchError(f"{EXPECTED} is missing; run with --record")
    expected = json.loads(EXPECTED.read_text())["workloads"][workload]
    if seed == DEFAULT_SEED and expected["argv_sha256"] != argv_digest(argvs):
        raise BenchError(f"the {workload} commands changed since bench/expected.json was recorded")
    if seed == DEFAULT_SEED or workload in SEED_FREE_OUTPUT:
        return expected
    return None


def unexpected_skips(workload: str, text: str) -> list[str]:
    """SKIP lines other than the ceiling skips the workload expects."""
    allowed = EXPECTED_SKIPS.get(workload, frozenset())
    bad = []
    for line in text.splitlines():
        if not line.startswith("SKIP "):
            continue
        head, _, reason = line[5:].partition(": ")
        check, _, q = head.partition(" q=")
        if (check, int(q) if q.lstrip("-").isdigit() else q, reason) not in allowed:
            bad.append(line)
    return bad


def failures(workload: str, argvs: list[list[str]], result: dict, expected: dict | None) -> list[str]:
    """One message per failed command of a pass."""
    out = []
    for i, (argv, res) in enumerate(zip(argvs, result["commands"])):
        why = []
        if res["error"] is not None:
            why.append(f"raised:\n{res['error']}")
        want_rc = expected["rc"][i] if expected else 0
        if res["rc"] != want_rc:
            why.append(f"exit {res['rc']}, expected {want_rc}")
        if expected and res["sha256"] != expected["sha256"][i]:
            why.append("stdout differs from the recorded output")
        why += [f"unexpected {line!r}" for line in unexpected_skips(workload, res.get("text", ""))]
        if res.get("check"):
            why.append(res["check"])
        if why:
            out.append(f"{' '.join(argv)}: " + "; ".join(why))
    return out


def differing(argvs: list[list[str]], a: dict, b: dict) -> list[str]:
    """Commands whose stdout differs between two passes over the same argv list."""
    return [
        f"{' '.join(argv)}: stdout differs between passes"
        for argv, ra, rb in zip(argvs, a["commands"], b["commands"])
        if ra["sha256"] != rb["sha256"]
    ]


# -- one workload --------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    argvs = commands(workload, seed)
    expected = load_expected(workload, seed, argvs)
    problems: list[str] = []
    if trace:
        plain = run_pass(workload, seed, False, False, deadline)
        traced = run_pass(workload, seed, True, False, deadline)
        problems += failures(workload, argvs, plain, expected)
        problems += [f"traced run: {p}" for p in differing(argvs, plain, traced)]
        return summary(workload, argvs, [plain, traced], problems, layer_metrics(traced, plain), None)

    measure_setup(deadline, 1)  # writes the bytecode cache; not counted
    setup: list[float] = []
    passes: list[dict] = []
    checked = check_answers(workload, seed, argvs, deadline)
    if checked:
        problems += checked["problems"]
    t0 = time.monotonic()
    while True:
        setup += measure_setup(deadline, SETUP_STARTS_PER_PASS)
        t_pass = time.monotonic()
        result = run_pass(workload, seed, False, False, deadline)
        problems += failures(workload, argvs, result, expected)
        problems += differing(argvs, (passes or [result])[0], result)
        passes.append(result)
        now = time.monotonic()
        if now - t0 + (now - t_pass) > seconds:
            break
    setup += measure_setup(deadline, SETUP_STARTS_PER_PASS)
    # Times are in reference seconds (bench/speed.py); each command's time is
    # its median over the passes.
    latencies = [
        statistics.median(p["commands"][i]["ref_s"] for p in passes) * 1e3 for i in range(len(argvs))
    ]
    tail_rule, p99 = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "query_p50_ms": statistics.median(latencies),
        "query_p99_ms": p99,
    }
    raw = f"raw wall_s {statistics.median(p['wall_s'] for p in passes):.4g} s"
    note = f"{tail_rule}; {raw}"
    if checked:
        note += f"; {len(checked['commands'])} answers re-derived in one more pass"
    return summary(workload, argvs, passes + [checked] if checked else passes, problems, metrics, note)


def check_answers(workload: str, seed: int, argvs: list[list[str]], deadline: float) -> dict | None:
    """Re-derive the queries' tensor and induct answers at small q, in a pass of their own.

    That pass keeps the outputs in memory, so it counts in no metric; its
    commands count as attempted, and its failures as failed.
    """
    if workload != "queries":
        return None
    result = run_pass(workload, seed, False, True, deadline)
    result["problems"] = failures(workload, [a for a in argvs if answer_checked(a)], result, None)
    return result


def summary(workload, argvs, passes, problems, metrics, note) -> dict:
    attempted = sum(len(p["commands"]) for p in passes)
    return {
        "workload": workload,
        "passes": len(passes),
        "commands": len(argvs),
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "problems": problems,
        "metrics": metrics,
        "note": note,
    }


def layer_metrics(traced: dict, plain: dict) -> dict:
    groups = traced["groups"]

    def group(name):
        return groups.get(name, [0, 0.0, 0])

    metrics = {f"{name}.self_s": group(name)[1] for name in LAYER_GROUPS}
    metrics.update({f"{name}.calls": group(name)[0] for name in LAYER_CALLS})
    calls, _, nonzero = group("tensor.mult_closed")
    metrics["tensor.mult_closed.nonzero_ratio"] = nonzero / calls if calls else 0.0
    metrics["harmonic.n_tensor_bytes"] = traced["arrays"].get("harmonic.n_tensor", 0)
    metrics["harmonic.pair_count_bytes"] = traced["arrays"].get("harmonic.pair_count", 0)
    metrics["harmonic.basis_dim_total"] = traced["basis_dim_total"]
    metrics["cli.out_bytes"] = sum(c["bytes"] for c in traced["commands"])
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("nonzero_ratio", "overhead")):
        return "ratio"
    return "count"


def unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or layer_unit(name)


# -- reporting -----------------------------------------------------------------------------


def machine() -> dict:
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": blas or f"default ({os.cpu_count()})",
    }


def report(res: dict, seed: int) -> None:
    print(
        f"{res['workload']} seed={seed}: {res['passes']} pass(es) of {res['commands']} command(s); "
        f"fail_ratio = {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4g}"
    )
    if res["note"]:
        print(f"  ({res['note']})")
    for name, value in res["metrics"].items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    for problem in res["problems"][:20]:
        print(f"  FAIL {problem}")


def result_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            key = f"{res['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit(name)}
    failed = sum(r["failed"] for r in results)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "metrics": metrics,
        }
    )


def record(deadline: float) -> None:
    """Run every workload once at the default seed and store its outputs as the reference."""
    out = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        argvs = commands(workload, DEFAULT_SEED)
        result = run_pass(workload, DEFAULT_SEED, False, False, deadline)
        problems = failures(workload, argvs, result, None)
        checked = check_answers(workload, DEFAULT_SEED, argvs, deadline)
        problems += checked["problems"] if checked else []
        if problems:
            raise BenchError(f"not recording failing output of {workload}: {problems[:5]}")
        out["workloads"][workload] = {
            "argv_sha256": argv_digest(argvs),
            "rc": [c["rc"] for c in result["commands"]],
            "sha256": [c["sha256"] for c in result["commands"]],
        }
        print(f"recorded {workload}: {len(argvs)} command(s)")
    EXPECTED.write_text(json.dumps(out, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite bench/expected.json")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "gl2rep" / "cli.py").is_file():
            raise BenchError(f"no gl2rep sources under {SRC}")
        if args.record:
            record(time.monotonic() + 10 * RUN_LIMIT_S)
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
        print("machine: " + json.dumps(machine()))
        results = []
        for workload in workloads:
            res = measure(workload, args.seed, args.seconds, bool(args.trace), deadline)
            report(res, args.seed)
            results.append(res)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(result_line(results, prefix=len(results) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
