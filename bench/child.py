"""One pass over a workload, in a fresh interpreter with cold module caches.

    python3 bench/child.py <workload> <seed> <trace 0|1> <check_answers 0|1>

Runs each command of the workload as a CLI user would, through
``gl2rep.cli.run``, with stdout hashed by a write-only sink, and writes one
JSON result line to its own stdout.  ``gl2rep`` is imported from the
PYTHONPATH that bench/run.py sets.  With check_answers 1, only the queries
whose answers are re-derived run, and their stdout is kept for the check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import resource
import sys
import traceback
from time import perf_counter

from speed import SpeedProbe
from tracer import Tracer, install
from workloads import HARMONIC_SUBSET, answer_checked, commands


class HashSink:
    """Write-only stdout: hashes and counts bytes, keeps text only on request."""

    def __init__(self, keep: bool):
        self._hash = hashlib.sha256()
        self.nbytes = 0
        self._chunks = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self._hash.update(data)
        self.nbytes += len(data)
        if self._chunks is not None:
            self._chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def text(self) -> str:
        return "".join(self._chunks or ())


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def restrict_irreps(subset: dict[int, tuple[str, ...]]) -> None:
    """Make the CLI enumerate only the listed irreps at each q in ``subset``."""
    from gl2rep import cli

    full = cli.enumerate_irreps

    def enumerate_irreps(pr):
        irreps = full(pr)
        if pr.q not in subset:
            return irreps
        kept = [pi for pi in irreps if pi.label() in subset[pr.q]]
        if len(kept) != len(subset[pr.q]):
            raise ValueError(f"not every irrep of {subset[pr.q]} exists at q={pr.q}")
        return kept

    cli.enumerate_irreps = enumerate_irreps


def _keeps_text(argv: list[str], check_answers: bool) -> bool:
    return argv[0] == "verify" or check_answers


def _rows(text: str, fmt: str, columns: list[str]) -> list[dict]:
    """Rows of a table the CLI printed in text or csv format."""
    lines = text.splitlines()
    if fmt == "csv":
        return list(csv.DictReader(lines))
    header = lines[0].split()
    if header != columns:
        raise ValueError(f"unexpected header {header}")
    rows = []
    for line in lines[1:]:
        if line.startswith(("dim_check:", "count:")):
            break
        rows.append(dict(zip(columns, line.split())))
    return rows


def check_answer(argv: list[str], text: str) -> str | None:
    """Re-derive a tensor or induct answer with the class-sum engine ``mult_sum``.

    Every listed multiplicity is recomputed, and the listed constituents must
    fill the whole dimension, so a missing constituent is caught as well.
    Returns a failure message, or None.
    """
    from gl2rep import tensor
    from gl2rep.gl2 import params, parse_irrep

    pr = params(int(_opt(argv, "--q")))
    fmt = _opt(argv, "--format", "text")
    if argv[0] == "tensor":
        left, right = parse_irrep(_opt(argv, "--left"), pr), parse_irrep(_opt(argv, "--right"), pr)
        if fmt == "json":
            rows = json.loads(text)["constituents"]
        else:
            rows = _rows(text, fmt, ["irrep", "mult"])
        triples = [(left, right, parse_irrep(r["irrep"], pr), int(r["mult"])) for r in rows]
        want_dim = left.dim() * right.dim()
        got_dim = sum(m * t.dim() for _, _, t, m in triples)
    else:
        target = parse_irrep(_opt(argv, "--pi"), pr)
        if fmt == "json":
            rows = json.loads(text)["constituents"]
        else:
            rows = _rows(text, fmt, ["left", "right", "mult"])
        triples = [
            (parse_irrep(r["left"], pr), parse_irrep(r["right"], pr), target, int(r["mult"]))
            for r in rows
        ]
        want_dim = pr.order * target.dim()
        got_dim = sum(m * a.dim() * b.dim() for a, b, _, m in triples)
    if len({(a, b, t) for a, b, t, _ in triples}) != len(triples):
        return "a constituent is listed twice"
    for a, b, t, m in triples:
        exact = tensor.mult_sum(a, b, t, pr)
        if m < 1 or m != exact:
            return f"[{a.label()} x {b.label()} : {t.label()}] printed {m}, mult_sum gives {exact}"
    if got_dim != want_dim:
        return f"constituents fill dimension {got_dim}, expected {want_dim}"
    return None


def run_commands(argvs: list[list[str]], check_answers: bool, tracer: Tracer | None) -> dict:
    from gl2rep import cli

    run_one = cli.run if tracer is None else tracer.span("cli", cli.run)
    results = []
    sinks = []
    spans = []
    # an untraced pass samples the machine's speed; a traced one is only compared with it
    probe = SpeedProbe() if tracer is None else None
    with probe or contextlib.nullcontext():
        for argv in argvs:
            sink = HashSink(_keeps_text(argv, check_answers))
            error = None
            spent = probe.spent if probe else 0.0
            t0 = perf_counter()
            try:
                rc = run_one(argv, out=sink)
            except Exception:
                rc, error = None, traceback.format_exc(limit=3)
            t1 = perf_counter()
            elapsed = (t1 - t0) - ((probe.spent - spent) if probe else 0.0)
            results.append({"rc": rc, "s": elapsed, "sha256": sink.hexdigest(), "bytes": sink.nbytes, "error": error})
            sinks.append(sink)
            spans.append((t0, t1))
    if probe:
        for res, (t0, t1) in zip(results, spans):
            res["ref_s"] = res["s"] * probe.scale(t0, t1)
    wall = sum(res["s"] for res in results)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for argv, sink, res in zip(argvs, sinks, results):
        if argv[0] == "verify":
            res["text"] = sink.text()
        elif check_answers and res["error"] is None:
            try:
                res["check"] = check_answer(argv, sink.text())
            except Exception as exc:
                res["check"] = f"answer does not parse: {exc!r}"
    return {
        "wall_s": wall,
        "wall_ref_s": sum(res.get("ref_s", 0.0) for res in results),
        "peak_rss_mb": maxrss_kb / 1024.0,
        "commands": results,
    }


def main() -> None:
    workload, seed, trace, check_answers = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
    result_out = sys.stdout
    sys.stdout = sys.stderr  # nothing the program prints may reach the result channel
    import gl2rep.cli  # noqa: F401  (imported before timing, as the CLI's own start-up)

    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    if workload == "harmonic":
        restrict_irreps(HARMONIC_SUBSET)
    argvs = commands(workload, seed)
    if check_answers:
        argvs = [argv for argv in argvs if answer_checked(argv)]
    result = run_commands(argvs, check_answers, tracer)
    result["gl2rep_file"] = sys.modules["gl2rep"].__file__
    if tracer is not None:
        result["groups"] = tracer.group_totals()
        result["arrays"] = {k: sum(v.values()) for k, v in tracer.arrays.items()}
        result["basis_dim_total"] = tracer.basis_dim_total
    json.dump(result, result_out)
    result_out.write("\n")
    result_out.flush()


if __name__ == "__main__":
    main()
