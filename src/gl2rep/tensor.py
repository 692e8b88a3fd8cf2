"""Tensor-product multiplicities for the diagonal GL2(q) inside GL2(q) x GL2(q).

Two independent evaluation routes are provided:

* ``mult_sum`` evaluates the weighted class sum

      q*s*r^2 * m = sum_c |c| chi_1(c) chi_2(c) conj(chi_3(c))

  exactly in Z[zeta_rs] and divides at the end.

* ``mult_closed`` evaluates indicator formulas in the label parameters,
  one formula per (family, family) -> family cell.  Conditions between
  plain U/V/W parameters live in Z_r; conditions on undecorated X
  parameters live in Z_rs; conditions on "bars" (X parameters pushed
  down to Z_r) live in Z_r.  Conditions involving orbit labels are
  evaluated over both representatives n and q*n and deduplicated, so a
  condition holding for either representative counts exactly once.

``mult_sum`` is authoritative: any disagreement is surfaced as a
structured report naming the offending cell, never patched over.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .cyclotomic import Cyclotomic
from .errors import (
    GL2RepError,
    MismatchedQ,
    NegativeMultiplicity,
    NotMultiplicityFree,
)
from .gl2 import (
    IRREP_KINDS,
    GL2Irrep,
    GroupParams,
    char_row,
    class_sum,
    class_table,
    divide_exact,
    enumerate_irreps,
)


def mult_sum_numerator(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> Cyclotomic:
    """The weighted class sum before division by |G| = q*s*r^2."""
    _, sizes, _ = class_table(pr.q)
    rows = (char_row(pi, pr) for pi in (pi1, pi2, pi3))
    return class_sum(pr.rs, sizes, *rows)


def mult_sum(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> int:
    """Exact multiplicity of pi3 inside pi1 (x) pi2 via the class sum."""
    total = mult_sum_numerator(pi1, pi2, pi3, pr).as_integer()
    what = f"class sum for [{pi1.label()} x {pi2.label()} : {pi3.label()}]"
    return divide_exact(total, pr.order, what)


def _orbit_eq(u: int, v: int, pr: GroupParams) -> bool:
    """Whether u and v generate the same orbit {v, q*v} in Z_rs."""
    rs = pr.rs
    return (u - v) % rs == 0 or (u - pr.q * v) % rs == 0


def cell_name(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep) -> str:
    return f"{pi1.kind}x{pi2.kind}->{pi3.kind}"


def mult_closed(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> int:
    """Multiplicity of pi3 inside pi1 (x) pi2 via the indicator formulas."""
    for pi in (pi1, pi2, pi3):
        if pi.q != pr.q:
            raise MismatchedQ(f"{pi!r} does not live over q={pr.q}")
    if IRREP_KINDS.index(pi1.kind) > IRREP_KINDS.index(pi2.kind):
        pi1, pi2 = pi2, pi1
    r, s, rs, q = pr.r, pr.s, pr.rs, pr.q
    k1, k2, k3 = pi1.kind, pi2.kind, pi3.kind
    value = 0

    if k1 == "U":
        a = pi1.data[0]
        if k2 == "U" and k3 == "U":
            value = int((a + pi2.data[0] - pi3.data[0]) % r == 0)
        elif k2 == "V" and k3 == "V":
            value = int((a + pi2.data[0] - pi3.data[0]) % r == 0)
        elif k2 == "W" and k3 == "W":
            b, c = pi2.data
            shifted = tuple(sorted(((a + b) % r, (a + c) % r)))
            value = int(shifted == pi3.data)
        elif k2 == "X" and k3 == "X":
            value = int(_orbit_eq(pi2.data[0] + s * a, pi3.data[0], pr))
    elif k1 == "V" and k2 == "V":
        a, b = pi1.data[0], pi2.data[0]
        if k3 == "U":
            value = int((a + b - pi3.data[0]) % r == 0)
        elif k3 == "V":
            value = int((2 * (a + b) - 2 * pi3.data[0]) % r == 0)
        elif k3 == "W":
            value = int((2 * (a + b) - pi3.data[0] - pi3.data[1]) % r == 0)
        else:
            value = int((2 * (a + b) - pi3.data[0]) % r == 0)
    elif k1 == "V" and k2 == "W":
        a = pi1.data[0]
        b, c = pi2.data
        if k3 == "V":
            value = int((2 * a + b + c - 2 * pi3.data[0]) % r == 0)
        elif k3 == "W":
            value = int((2 * a + b + c - pi3.data[0] - pi3.data[1]) % r == 0)
            shifted = tuple(sorted(((a + b) % r, (a + c) % r)))
            value += int(shifted == pi3.data)
        elif k3 == "X":
            value = int((2 * a + b + c - pi3.data[0]) % r == 0)
    elif k1 == "V" and k2 == "X":
        a, n = pi1.data[0], pi2.data[0]
        nbar = n % r
        if k3 == "V":
            value = int((2 * a + nbar - 2 * pi3.data[0]) % r == 0)
        elif k3 == "W":
            value = int((2 * a + nbar - pi3.data[0] - pi3.data[1]) % r == 0)
        elif k3 == "X":
            value = int((2 * a + nbar - pi3.data[0]) % r == 0)
            value -= int(_orbit_eq(n + s * a, pi3.data[0], pr))
    elif k1 == "W" and k2 == "W":
        a, b = pi1.data
        c, d = pi2.data
        if k3 == "U":
            ap = pi3.data[0]
            value = int(
                ((a + c - ap) % r == 0 and (b + d - ap) % r == 0)
                or ((a + d - ap) % r == 0 and (b + c - ap) % r == 0)
            )
        elif k3 == "V":
            bp = pi3.data[0]
            value = int((a + b + c + d - 2 * bp) % r == 0)
            value += int(
                ((a + c - bp) % r == 0 and (b + d - bp) % r == 0)
                or ((a + d - bp) % r == 0 and (b + c - bp) % r == 0)
            )
        elif k3 == "W":
            value = int((a + b + c + d - pi3.data[0] - pi3.data[1]) % r == 0)
            value += int(tuple(sorted(((a + c) % r, (b + d) % r))) == pi3.data)
            value += int(tuple(sorted(((a + d) % r, (b + c) % r))) == pi3.data)
        else:
            value = int((a + b + c + d - pi3.data[0]) % r == 0)
    elif k1 == "W" and k2 == "X":
        a, b = pi1.data
        nbar = pi2.data[0] % r
        if k3 == "V":
            value = int((a + b + nbar - 2 * pi3.data[0]) % r == 0)
        elif k3 == "W":
            value = int((a + b + nbar - pi3.data[0] - pi3.data[1]) % r == 0)
        elif k3 == "X":
            value = int((a + b + nbar - pi3.data[0]) % r == 0)
    elif k1 == "X" and k2 == "X":
        n, m = pi1.data[0], pi2.data[0]
        nbar, mbar = n % r, m % r
        # n + m or n + q*m equals s*a'; the two are exclusive on valid labels
        if k3 == "U":
            value = int(_orbit_eq(s * pi3.data[0] - n, m, pr))
        elif k3 == "V":
            value = int((nbar + mbar - 2 * pi3.data[0]) % r == 0)
            value -= int(_orbit_eq(s * pi3.data[0] - n, m, pr))
        elif k3 == "W":
            value = int((nbar + mbar - pi3.data[0] - pi3.data[1]) % r == 0)
        else:
            np = pi3.data[0]
            value = int((nbar + mbar - np) % r == 0)
            value -= int((n + m - np) % rs == 0)
            value -= int((q * n + m - np) % rs == 0)
            value -= int((n + q * m - np) % rs == 0)
            value -= int((n + m - q * np) % rs == 0)

    if value < 0:
        raise NegativeMultiplicity(
            f"cell {cell_name(pi1, pi2, pi3)} evaluated to {value} for "
            f"({pi1.label()}, {pi2.label()}, {pi3.label()}) at q={pr.q}"
        )
    return value


def decompose(pi1: GL2Irrep, pi2: GL2Irrep, pr: GroupParams) -> list[tuple[GL2Irrep, int]]:
    """All irreducible constituents of pi1 (x) pi2 with multiplicities."""
    out = []
    total = 0
    for pi3 in enumerate_irreps(pr):
        m = mult_closed(pi1, pi2, pi3, pr)
        if m:
            out.append((pi3, m))
            total += m * pi3.dim()
    expected = pi1.dim() * pi2.dim()
    if total != expected:
        raise GL2RepError(
            f"dimension leak in {pi1.label()} (x) {pi2.label()}: {total} != {expected}"
        )
    return out


def ind_decompose(pi3: GL2Irrep, pr: GroupParams) -> list[tuple[tuple[GL2Irrep, GL2Irrep], int]]:
    """Ordered pairs (pi1, pi2) whose tensor product contains pi3.

    By Frobenius reciprocity this is the decomposition of the module
    induced from pi3 on the diagonal subgroup up to the product group.
    """
    irreps = enumerate_irreps(pr)
    out = []
    for pi1 in irreps:
        for pi2 in irreps:
            m = mult_closed(pi1, pi2, pi3, pr)
            if m:
                out.append(((pi1, pi2), m))
    return out


def ind_X_counts_by_dim(n: int, pr: GroupParams) -> dict[int, int]:
    """Constituent counts of the induction of X_[n], grouped by pair dimension."""
    target = GL2Irrep.X(pr, n)
    counts: dict[int, int] = {}
    for (pi1, pi2), m in ind_decompose(target, pr):
        if m != 1:
            raise NotMultiplicityFree(
                f"{pi1.label()} (x) {pi2.label()} contains {target.label()} {m} times"
            )
        dim = pi1.dim() * pi2.dim()
        counts[dim] = counts.get(dim, 0) + 1
    return counts


def ind_X_expected(q: int, parity: int) -> dict[int, int]:
    """Closed-form constituent counts for the induction of X_[n'].

    ``parity`` is the parity of n'; it is ignored for even q, where a
    single column applies.
    """
    r, s = q - 1, q + 1
    if q % 2 == 0:
        by_family = {
            "r": 2 * r,
            "q2": r,
            "qs": r * (q - 2),
            "qr": r * (q - 2),
            "s2": r * (q - 2) ** 2 // 4,
            "rs": q * r * (q - 2) // 2,
            "r2": r * (q - 2) ** 2 // 4,
        }
    elif parity % 2 == 0:
        by_family = {
            "r": 2 * r,
            "q2": 2 * r,
            "qs": r * (q - 3),
            "qr": r * (q - 3),
            "s2": r * (q * q - 4 * q + 5) // 4,
            "rs": r**3 // 2,
            "r2": r * (q * q - 4 * q + 5) // 4,
        }
    else:
        by_family = {
            "r": 2 * r,
            "q2": 0,
            "qs": r * r,
            "qr": r * r,
            "s2": r * (q * q - 4 * q + 3) // 4,
            "rs": r * (q * q - 2 * q - 1) // 2,
            "r2": r * (q * q - 4 * q + 3) // 4,
        }
    dims = {
        "r": r,
        "q2": q * q,
        "qs": q * s,
        "qr": q * r,
        "s2": s * s,
        "rs": r * s,
        "r2": r * r,
    }
    out: dict[int, int] = {}
    for fam, count in by_family.items():
        if count:
            out[dims[fam]] = out.get(dims[fam], 0) + count
    return out


def is_gelfand_triple_product(pi: GL2Irrep, pr: GroupParams) -> bool:
    """Whether pi occurs with multiplicity <= 1 in every pi1 (x) pi2."""
    irreps = enumerate_irreps(pr)
    for pi1 in irreps:
        for pi2 in irreps:
            if mult_closed(pi1, pi2, pi, pr) > 1:
                return False
    return True


def classify_gelfand(pr: GroupParams) -> set[GL2Irrep]:
    """All irreducibles of GL2(q) that induce multiplicity free to the product."""
    return {pi for pi in enumerate_irreps(pr) if is_gelfand_triple_product(pi, pr)}


def dim_E(pi: GL2Irrep, pr: GroupParams) -> int:
    """Number of irreducible constituents of the induction of pi.

    Only defined for the multiplicity-free inducers (U and X families):
    it is then the dimension of the space of spherical functions of
    type pi.
    """
    if pi.kind not in ("U", "X"):
        raise NotMultiplicityFree(f"{pi.label()} does not induce multiplicity free")
    return sum(m for _, m in ind_decompose(pi, pr))


def e_module_freeness_obstruction(pi: GL2Irrep, pr: GroupParams) -> bool:
    """True when dim_E(U_0) fails to divide dim_E(pi).

    A free finitely generated module over the zonal algebra would force
    divisibility, so True certifies the module is not free.
    """
    base = dim_E(GL2Irrep.U(pr, 0), pr)
    return dim_E(pi, pr) % base != 0


@dataclass(frozen=True)
class Disagreement:
    """A triple where the indicator formula and the class sum differ."""

    q: int
    cell: str
    left: str
    right: str
    target: str
    closed: int
    class_sum: int

    def as_json(self) -> dict:
        return asdict(self)


def compare_methods(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> Disagreement | None:
    closed = mult_closed(pi1, pi2, pi3, pr)
    sums = mult_sum(pi1, pi2, pi3, pr)
    if closed == sums:
        return None
    return Disagreement(
        q=pr.q,
        cell=cell_name(pi1, pi2, pi3),
        left=pi1.label(),
        right=pi2.label(),
        target=pi3.label(),
        closed=closed,
        class_sum=sums,
    )


def all_triples(pr: GroupParams) -> Iterator[tuple[GL2Irrep, GL2Irrep, GL2Irrep]]:
    irreps = enumerate_irreps(pr)
    for pi1 in irreps:
        for pi2 in irreps:
            for pi3 in irreps:
                yield pi1, pi2, pi3


def sample_triples(pr: GroupParams, count: int, seed: int) -> Iterator[tuple[GL2Irrep, GL2Irrep, GL2Irrep]]:
    rng = random.Random(seed)
    irreps = enumerate_irreps(pr)
    for _ in range(count):
        yield rng.choice(irreps), rng.choice(irreps), rng.choice(irreps)


def verify_agreement(
    pr: GroupParams,
    triples: Iterable[tuple[GL2Irrep, GL2Irrep, GL2Irrep]] | None = None,
    stop_after: int | None = 10,
) -> list[Disagreement]:
    """Compare mult_closed against mult_sum; returns all disagreements found."""
    if triples is None:
        triples = all_triples(pr)
    bad: list[Disagreement] = []
    for pi1, pi2, pi3 in triples:
        report = compare_methods(pi1, pi2, pi3, pr)
        if report is not None:
            bad.append(report)
            if stop_after is not None and len(bad) >= stop_after:
                break
    return bad
