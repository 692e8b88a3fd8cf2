"""The four benchmark workloads, as lists of ``gl2rep`` CLI argv lists.

Every command runs through ``gl2rep.cli.run``.  Every workload is built
from the seed alone, without importing ``gl2rep``.
"""

from __future__ import annotations

import random

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
FORMATS = ("text", "json", "csv")
CHARTABLE_MAX_Q = 9
# tensor and induct answers up to this q are re-derived with tensor.mult_sum
CHECK_MAX_Q = 9

QUERY_COMMANDS = ("tensor", "sl3-restrict", "induct", "classes", "irreps", "chartable")
# Queries per (command, q, format) cell: every cell is equally likely, as
# nothing is known of real usage.  57 (command, q) pairs x 3 formats x 6 =
# 1026 queries.
QUERIES_PER_CELL = 6

WORKLOADS = ("verify-exact", "large-q", "harmonic", "queries")

# The harmonic workload runs the CLI's harmonic suite with the q = 3 irreps
# cut to this subset: X:1 sweeps every basis pair, V:0 and W:0,1 exit at the
# first non-commuting pair.  The whole q = 3 suite would take about 35 s.
HARMONIC_SUBSET = {3: ("V:0", "W:0,1", "X:1")}

# The only SKIP lines a workload may print: the harmonic suite's ceiling is q = 3.
EXPECTED_SKIPS = {
    "verify-exact": frozenset(("harmonic", q, "q outside ceiling 3") for q in (4, 5, 7, 8, 9)),
}


def irrep_labels(q: int) -> list[str]:
    """Canonical GL2(q) irrep labels, in the order ``gl2.enumerate_irreps`` uses."""
    r, s = q - 1, q + 1
    rs = r * s
    out = [f"U:{a}" for a in range(r)] + [f"V:{a}" for a in range(r)]
    out += [f"W:{a},{b}" for a in range(r) for b in range(a + 1, r)]
    out += [f"X:{n}" for n in range(rs) if n % s and n <= (q * n) % rs]
    return out


def sl3_labels(q: int) -> list[str]:
    """The SL3(q) irrep labels the CLI accepts: piQS, piT:u and piRT:u."""
    r, s = q - 1, q + 1
    rs = r * s
    out = ["piQS"] + [f"piT:{u}" for u in range(1, r)]
    out += [f"piRT:{n}" for n in range(rs) if n % s and n <= (q * n) % rs]
    return out


def _query(rng: random.Random, command: str, q: int, fmt: str) -> list[str]:
    """One query; its irrep arguments are drawn uniformly from the valid labels."""
    argv = [command, "--q", str(q)]
    labels = irrep_labels(q)
    if command == "tensor":
        argv += ["--left", rng.choice(labels), "--right", rng.choice(labels)]
    elif command == "induct":
        argv += ["--pi", rng.choice(labels)]
    elif command == "sl3-restrict":
        argv += ["--pi", rng.choice(sl3_labels(q)), "--to", rng.choice(labels)]
    return argv + ["--format", fmt]


def query_stream(seed: int) -> list[list[str]]:
    """The seeded `queries` stream: QUERIES_PER_CELL queries per (command, q, format), shuffled."""
    rng = random.Random(seed)
    stream = [
        _query(rng, command, q, fmt)
        for q in PRIME_POWERS
        for command in QUERY_COMMANDS
        if command != "chartable" or q <= CHARTABLE_MAX_Q
        for fmt in FORMATS
        for _ in range(QUERIES_PER_CELL)
    ]
    rng.shuffle(stream)
    return stream


def answer_checked(argv: list[str]) -> bool:
    """Whether a query's answer is re-derived: tensor and induct at q <= CHECK_MAX_Q."""
    return argv[0] in ("tensor", "induct") and int(argv[argv.index("--q") + 1]) <= CHECK_MAX_Q


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv list of one pass over a workload."""
    if workload == "verify-exact":
        return [["verify", "--suite", "all", "--q", "4,5,7,8,9", "--seed", str(seed)]]
    if workload == "large-q":
        return [
            ["gelfand", "--q", "16"],
            ["chartable", "--q", "16", "--format", "json"],
            ["induct", "--q", "16", "--pi", "X:1"],
            ["sl3-witness", "--q", "16"],
        ]
    if workload == "harmonic":
        return [["verify", "--suite", "harmonic", "--q", "2,3"]]
    if workload == "queries":
        return query_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")
