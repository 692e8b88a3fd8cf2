"""Tensor-product multiplicities for the diagonal GL2(q) inside GL2(q) x GL2(q).

Two independent evaluation routes are provided:

* ``mult_sum`` evaluates the weighted class sum

      q*s*r^2 * m = sum_c |c| chi_1(c) chi_2(c) conj(chi_3(c))

  exactly in Z[zeta_rs] and divides at the end.

* ``mult_closed`` evaluates indicator formulas in the label parameters,
  in three parts:

  - twist cells U_a (x) pi: pi twisted by alpha_a(det), compared by label;
  - U-target cells pi1 (x) pi2 -> U_t, nonzero only for V (x) V, W (x) W
    and X (x) X: whether pi2 is the dual of pi1 twisted by alpha_t;
  - every other cell starts from Schur's lemma on the centre,
    omega_1 + omega_2 = omega_3 (mod r), with the central exponents
    omega(U_a) = omega(V_a) = 2a, omega(W_[a,b]) = a + b and
    omega(X_[n]) = n.  Six cells add a correction: V(x)W->W and
    V(x)X->X a twist, W(x)W->V and X(x)X->V the U-target test,
    W(x)W->W two matched pairs, and X(x)X->X four conditions in Z_rs.

``mult_sum`` is authoritative: any disagreement is surfaced as a
structured report naming the offending cell, never patched over.
``verify_agreement`` compares the two routes over any iterable of triples.
It reads the triples in chunks of a fixed byte budget and batches the class
sums of a chunk, one ``gl2.class_sum`` call per kind triple; ``mult_closed``
stays per triple, called as the chunk is walked in order, so reports,
errors and ``stop_after`` follow the order of the triples.

The Gelfand classification does not sweep triples.  ``ind_norms`` gives,
for a fixed pi, two sums over all ordered pairs (pi1, pi2) of the
multiplicity m = [pi1 (x) pi2 : pi], each one class sum long:

    sum m^2 = sum_c |chi(c)|^2                    (no class sizes)
    sum m   = |G|^-1 sum_c |c| S(c)^2 conj(chi(c)),  S(c) = sum_pi chi_pi(c)

Every m is a non-negative integer, so pi induces multiplicity free iff the
two sums are equal.  ``classify_gelfand`` takes the column sums S(c) and
both norms of every irrep in three batched class sums; ``ind_norms`` reads
the weights |c| S(c)^2 from a per-q cache and packs only its own pi's row.
``is_gelfand_triple_product``, the ``mult_closed`` sweep of
``ind_decompose``, is kept as the route that cross-checks it.

``ind_decompose`` skips the pairs whose central characters do not match:
by Schur's lemma on the centre, [pi1 (x) pi2 : pi] = 0 unless
omega_1 + omega_2 = omega (mod r), so it visits about 1/r of the ordered pairs.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .cyclotomic import Cyclotomic, euler_phi
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
    Rows,
    char_row,
    char_terms,
    class_sum,
    class_table,
    columns,
    divide_exact,
    enumerate_irreps,
    pack_rows,
    rational,
    stack_rows,
    unit_like,
    x_canonical,
)

# Triples per verify_agreement chunk come from this byte budget.  A triple in
# a chunk holds about 512 bytes of Python objects and index arrays plus its
# phi(rs) int64 coordinates: 2730 triples at q = 9.  The rows are stacked once
# per distinct irrep, and class_sum bounds its own scratch.
_CHUNK_BYTES = 1 << 21


def _numerator_coords(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> np.ndarray:
    _, sizes, _ = class_table(pr.q)
    return class_sum(pr.rs, sizes, *(char_row(pi, pr) for pi in (pi1, pi2, pi3)))[0]


def mult_sum_numerator(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> Cyclotomic:
    """The weighted class sum before division by |G| = q*s*r^2."""
    return Cyclotomic(pr.rs, _numerator_coords(pi1, pi2, pi3, pr).tolist())


def _what(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep) -> str:
    return f"class sum for [{pi1.label()} x {pi2.label()} : {pi3.label()}]"


def mult_sum(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> int:
    """Exact multiplicity of pi3 inside pi1 (x) pi2 via the class sum."""
    what = _what(pi1, pi2, pi3)
    return divide_exact(rational(_numerator_coords(pi1, pi2, pi3, pr), what), pr.order, what)


def cell_name(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep) -> str:
    return f"{pi1.kind}x{pi2.kind}->{pi3.kind}"


def _twist(kind: str, data: tuple[int, ...], sign: int, a: int, pr: GroupParams) -> tuple[int, ...]:
    """Label data of pi twisted by the linear character alpha_a(det).

    pi is the irrep kind(data) for sign 1 and its dual for sign -1.
    """
    if kind == "W":
        return tuple(sorted(((sign * data[0] + a) % pr.r, (sign * data[1] + a) % pr.r)))
    if kind == "X":
        return (x_canonical(sign * data[0] + pr.s * a, pr),)
    return ((sign * data[0] + a) % pr.r,)


def _omega(kind: str, data: tuple[int, ...]) -> int:
    """Central exponent of an irrep: its central character is alpha_omega on F_q^x.

    omega(U_a) = omega(V_a) = 2a, omega(W_[a,b]) = a + b and omega(X_[n]) = n,
    so chi(c1:k) = dim * zeta_r^(omega k).  Callers reduce it mod r.
    """
    if kind == "W":
        return data[0] + data[1]
    if kind == "X":
        return data[0]
    return 2 * data[0]


def mult_closed(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> int:
    """Multiplicity of pi3 inside pi1 (x) pi2 via the indicator formulas."""
    for pi in (pi1, pi2, pi3):
        if pi.q != pr.q:
            raise MismatchedQ(f"{pi!r} does not live over q={pr.q}")
    if IRREP_KINDS.index(pi1.kind) > IRREP_KINDS.index(pi2.kind):
        pi1, pi2 = pi2, pi1
    r = pr.r
    k1, k2, k3 = pi1.kind, pi2.kind, pi3.kind
    x, y, z = pi1.data, pi2.data, pi3.data

    if k1 == "U":
        # twist cells: U_a (x) pi is pi twisted by alpha_a(det)
        value = int(k2 == k3 and _twist(k2, y, 1, x[0], pr) == z)
    elif k3 == "U":
        # U-target cells: U_t occurs iff pi2 is the dual of pi1 twisted by alpha_t
        value = int(k1 == k2 and _twist(k1, x, -1, z[0], pr) == y)
    else:
        # the central characters omega must match (Schur's lemma); six cells correct it
        value = int((_omega(k1, x) + _omega(k2, y) - _omega(k3, z)) % r == 0)
        if k3 == "V":
            if k1 == k2 == "W":
                value += _twist("W", x, -1, z[0], pr) == y
            elif k1 == "X":
                value -= _twist("X", x, -1, z[0], pr) == y
        elif k1 == "V":
            if k2 == k3 == "W":
                value += _twist("W", y, 1, x[0], pr) == z
            elif k2 == k3 == "X":
                value -= _twist("X", y, 1, x[0], pr) == z
        elif k1 == k2 == k3 == "W":
            (a, b), (c, d) = x, y
            value += tuple(sorted(((a + c) % r, (b + d) % r))) == z
            value += tuple(sorted(((a + d) % r, (b + c) % r))) == z
        elif k1 == k3 == "X":
            rs, q = pr.rs, pr.q
            n, m, np = x[0], y[0], z[0]
            value -= (n + m - np) % rs == 0
            value -= (q * n + m - np) % rs == 0
            value -= (n + q * m - np) % rs == 0
            value -= (n + m - q * np) % rs == 0

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
    Only the pairs with omega_1 + omega_2 = omega_3 (mod r) are evaluated;
    the buckets keep enumeration order, so the list is that of the full sweep.
    """
    irreps = enumerate_irreps(pr)
    r = pr.r
    buckets: list[list[GL2Irrep]] = [[] for _ in range(r)]
    for pi in irreps:
        buckets[_omega(pi.kind, pi.data) % r].append(pi)
    w3 = _omega(pi3.kind, pi3.data)
    out = []
    for pi1 in irreps:
        for pi2 in buckets[(w3 - _omega(pi1.kind, pi1.data)) % r]:
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
    return all(m <= 1 for _, m in ind_decompose(pi, pr))


def _rows(pr: GroupParams, irreps: list[GL2Irrep]) -> Rows:
    """The character rows of these irreps as one stack, built afresh.

    The rows of all irreps hold (q^2 - 1)^2 entries and the norm test reads
    them once; the char_row cache would keep them for the life of the process.
    """
    classes = class_table(pr.q)[0]
    return pack_rows(([char_terms(pi, c, pr) for c in classes] for pi in irreps), pr.q)


def _pair_weights(pr: GroupParams, rows: Rows) -> list[int]:
    """|c| * S(c)^2 for every class c, where S(c) is the column sum of ``rows``.

    S(c) = sum over irreps of chi_pi(c) is a rational integer: a Galois
    automorphism of Z[zeta_rs] permutes the irreducible characters, so it
    fixes their sum.
    """
    classes, sizes, _ = class_table(pr.q)
    ones = [1] * rows[0].rows
    sums = []
    for cols in columns(rows):
        every = np.arange(cols[0].rows)
        first = np.zeros_like(every)
        sums.append(class_sum(pr.rs, ones, cols, unit_like(cols), unit_like(cols), (every, first, first)))
    coords = np.concatenate(sums)
    return [
        size * rational(x, f"column sum S({c.label()})") ** 2 for size, c, x in zip(sizes, classes, coords)
    ]


@lru_cache(maxsize=None)
def _class_weights(pr: GroupParams) -> tuple[int, ...]:
    """``_pair_weights`` of the rows of every irrep, kept per q: O(q^2) ints.

    ind_norms reads them here, so each call packs only its own pi's row.
    """
    return tuple(_pair_weights(pr, _rows(pr, enumerate_irreps(pr))))


def _norms(irreps: list[GL2Irrep], rows: Rows, weights: list[int], pr: GroupParams) -> list[tuple[int, int]]:
    """ind_norms of each irrep, from the stack of their rows: two class_sum calls."""
    unit = unit_like(rows)
    every, first = np.arange(len(irreps)), np.zeros(len(irreps), dtype=np.intp)
    squares = class_sum(pr.rs, [1] * len(weights), rows, unit, rows, (every, first, every))
    totals = class_sum(pr.rs, weights, unit, unit, rows, (first, first, every))
    out = []
    for pi, sq, total in zip(irreps, squares, totals):
        what = f"pair sum for {pi.label()}"
        sq = rational(sq, f"sum of squares for {pi.label()}")
        out.append((sq, divide_exact(rational(total, what), pr.order, what)))
    return out


def ind_norms(pi: GL2Irrep, pr: GroupParams) -> tuple[int, int]:
    """(sum of m^2, sum of m) over the ordered pairs (pi1, pi2), m = [pi1 (x) pi2 : pi].

    By Frobenius reciprocity these are the squared norm and the number of
    constituents, counted with multiplicity, of the induction of pi to the
    product group.
    """
    (norms,) = _norms([pi], _rows(pr, [pi]), list(_class_weights(pr)), pr)
    return norms


def classify_gelfand(pr: GroupParams) -> set[GL2Irrep]:
    """All irreducibles of GL2(q) that induce multiplicity free to the product.

    pi qualifies iff its two ``ind_norms`` agree: no multiplicity exceeds 1.
    """
    irreps = enumerate_irreps(pr)
    rows = _rows(pr, irreps)
    norms = _norms(irreps, rows, _pair_weights(pr, rows), pr)
    return {pi for pi, (squares, total) in zip(irreps, norms) if squares == total}


def dim_E(pi: GL2Irrep, pr: GroupParams) -> int:
    """Number of irreducible constituents of the induction of pi.

    Only defined for the multiplicity-free inducers (U and X families):
    it is then the dimension of the space of spherical functions of
    type pi.
    """
    if pi.kind not in ("U", "X"):
        raise NotMultiplicityFree(f"{pi.label()} does not induce multiplicity free")
    return ind_norms(pi, pr)[1]


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


def _disagreement(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, closed: int, sums: int, pr: GroupParams) -> Disagreement:
    return Disagreement(
        q=pr.q,
        cell=cell_name(pi1, pi2, pi3),
        left=pi1.label(),
        right=pi2.label(),
        target=pi3.label(),
        closed=closed,
        class_sum=sums,
    )


def compare_methods(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> Disagreement | None:
    closed = mult_closed(pi1, pi2, pi3, pr)
    sums = mult_sum(pi1, pi2, pi3, pr)
    return None if closed == sums else _disagreement(pi1, pi2, pi3, closed, sums, pr)


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


def _chunk_numerators(chunk: list[tuple[GL2Irrep, GL2Irrep, GL2Irrep]], pr: GroupParams) -> np.ndarray:
    """mult_sum_numerator of every triple of the chunk, as a (triples, phi(rs))
    array of power-basis coordinates.

    The chunk's irreps of each kind are stacked once, and each kind triple
    makes one class_sum call over the chunk's triples of that kind.
    """
    flat = [pi for triple in chunk for pi in triple]
    # labels are told apart by object, not by value: an equal label in another
    # object only repeats a row of a stack
    first, codes = np.unique(np.fromiter(map(id, flat), np.int64, len(flat)), return_index=True, return_inverse=True)[1:]
    irreps = [flat[i] for i in first.tolist()]
    kind = np.array([IRREP_KINDS.index(pi.kind) for pi in irreps])
    position = np.zeros(len(irreps), dtype=np.intp)
    stacks = {}
    for k in np.unique(kind).tolist():
        members = np.flatnonzero(kind == k)
        position[members] = np.arange(len(members))
        stacks[k] = stack_rows([char_row(irreps[i], pr) for i in members.tolist()])
    codes = codes.reshape(-1, 3)
    kinds = kind[codes]
    group = kinds @ np.array([16, 4, 1])
    sizes = class_table(pr.q)[1]
    out = np.empty((len(chunk), euler_phi(pr.rs)), dtype=np.int64)
    for g in np.unique(group).tolist():
        at = np.flatnonzero(group == g)
        k1, k2, k3 = kinds[at[0]].tolist()
        out[at] = class_sum(pr.rs, sizes, stacks[k1], stacks[k2], stacks[k3], position[codes[at]].T)
    return out


def verify_agreement(
    pr: GroupParams,
    triples: Iterable[tuple[GL2Irrep, GL2Irrep, GL2Irrep]] | None = None,
    stop_after: int | None = 10,
) -> list[Disagreement]:
    """Compare mult_closed against mult_sum; returns all disagreements found.

    The triples are read in chunks of a fixed byte budget, never all at once:
    the class sums of a chunk are batched per kind triple, then the chunk is
    walked in order, calling mult_closed on each triple.  Reports, errors and
    ``stop_after`` follow iteration order, as a triple-by-triple loop would.
    """
    if triples is None:
        triples = all_triples(pr)
    triples = iter(triples)
    size = max(1, _CHUNK_BYTES // (512 + 8 * euler_phi(pr.rs)))
    bad: list[Disagreement] = []
    while chunk := list(islice(triples, size)):
        coords = _chunk_numerators(chunk, pr)
        totals = coords[:, 0].tolist()
        integral = (~coords[:, 1:].any(axis=1)).tolist()
        for i, ((pi1, pi2, pi3), total, ok) in enumerate(zip(chunk, totals, integral)):
            closed = mult_closed(pi1, pi2, pi3, pr)
            if not ok or total % pr.order:  # raises NonIntegral naming the triple
                what = _what(pi1, pi2, pi3)
                divide_exact(rational(coords[i], what), pr.order, what)
            sums = total // pr.order
            if closed != sums:
                bad.append(_disagreement(pi1, pi2, pi3, closed, sums, pr))
                if stop_after is not None and len(bad) >= stop_after:
                    return bad
    return bad
