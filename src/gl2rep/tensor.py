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

  These formulas are one numpy kernel, ``mult_closed_array``, over label
  arrays: a kind code and data (d0, d1) per operand, every label read as
  an unordered pair (``gl2.operand``, with ``gl2.omega``), and a table of
  the coefficient of each part in each cell.  It returns values, negative
  ones too, and each caller raises NegativeMultiplicity for the first
  negative triple in its own order.  The scalar ``mult_closed`` is its batch of one.  The case
  table written triple by triple on labels is kept in tests/test_tensor.py
  as the reference the kernel is checked against.

``mult_sum`` is authoritative: any disagreement is surfaced as a
structured report naming the offending cell, never patched over.
``verify_agreement`` compares the two routes over an (m, 3) int array of
label_table positions (``sample_positions`` draws one), or every triple.
It reads them in chunks sized from q by two byte budgets, one for the
triples and one for the character rows of their irreps; per triple a chunk
keeps its positions, its class sum reduced to coordinate 0 and whether it
is a rational integer, and its indicator value.  Per chunk it batches the
class sums, one ``gl2.class_sum`` call per width triple (U and V share a
stack), reduced as they arrive, and the indicator values, one kernel call,
both from operands read off the table once; then it walks the triples that
fail a check in order, so reports, errors and ``stop_after`` follow their
order.  A sum that is not a rational integer multiple of |G| is taken
again for its triple alone, whose NonIntegral prints its coordinates.

The sweeps read the irreps by position from ``gl2.label_table(q)``: their
operands, dimensions and omega buckets.  A ``GL2Irrep`` is built from its
row only where an API returns one or an error names it.

The Gelfand classification sweeps no triples.  It reads, for a fixed pi,
two sums over all ordered pairs (pi1, pi2) of the multiplicity
m = [pi1 (x) pi2 : pi], each one class sum long:

    sum m^2 = sum_c |chi(c)|^2                    (no class sizes)
    sum m   = |G|^-1 sum_c |c| S(c)^2 conj(chi(c)),  S(c) = sum_pi chi_pi(c)

Every m is a non-negative integer, so pi induces multiplicity free iff the
two sums are equal.  S(c) is the twisted Frobenius-Schur count
#{h : h (h^T)^-1 = g_c}, which takes three values, and ``_class_weights``
gives |c| S(c)^2 in closed form from the class parameters: the table is
never transposed.  Both sums are the same polynomial in q for every irrep
of a family, ``family_norms``, and ``classify_gelfand`` reads only those:
O(#irreps) at any q.  Two routes check it: ``class_sum_norms``, the class
sums of every irrep, its rows built a chunk at a time, and
``is_gelfand_triple_product``, the ``mult_closed`` sweep of ``ind_sweep``.

``ind_sweep`` (and ``ind_decompose``, its list of labels) skips the pairs
whose central characters do not match: by Schur's lemma on the centre,
[pi1 (x) pi2 : pi] = 0 unless omega_1 + omega_2 = omega (mod r), so it
visits about 1/r of the ordered pairs, in kernel calls of a bounded size.
"""

from __future__ import annotations

import operator
import random
from dataclasses import asdict, dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .cyclotomic import Cyclotomic, euler_phi, power_coords
from .errors import GL2RepError, NegativeMultiplicity, NotMultiplicityFree
from .gl2 import (
    BUILD_ENTRY_BYTES,
    IRREP_KINDS,
    SLICE_BYTES,
    U,
    V,
    W,
    X,
    GL2Irrep,
    GroupParams,
    Rows,
    build_bytes,
    char_rows,
    class_params,
    class_sum,
    enumerate_irreps,
    exact_sums,
    label_table,
    omega,
    operand,
    operands,
    position,
    require_budget,
    table_bytes,
    triple_positions,
)

# A verify_agreement chunk holds, per triple, its positions (24 bytes), their
# places among its distinct irreps (24), its indicator value, class-sum
# coordinate 0 and integrality (17) and its place in the grouping by width
# triple (16), and, at the kernel call, its three operands (72): at most 128
# bytes, _CHUNK_TRIPLE_BYTES (np.unique, finding the places, holds 123 more
# but no rows or slice).  Beside them it holds the character rows of the
# chunk's distinct irreps, stacked per width: build_bytes of their count.
# A chunk is 16 384 triples (_CHUNK_BYTES of them) while the rows of every
# irrep fit _ROWS_BYTES, at q <= 32, so every default tensor-agree sweep at
# q <= 9 is one chunk; past that, as many as bring at most three new rows
# each within _ROWS_BYTES (136 at q = 64, 33 at q = 128).  Besides the chunk,
# one kernel slice (_KERNEL_BYTES) or one class_sum slice (SLICE_BYTES) of
# scratch with the coordinates of one class_sum call, at most _COORD_BYTES.
# Traced from cold per-q caches, the peak is at most 82 bytes per triple over
# one class_sum slice at q = 4 to 9 (all triples, or 10 000 sampled), 2.91 MB
# at q = 9, and half of _agreement_bytes at q = 49 and 64.
_CHUNK_BYTES = 1 << 21
_CHUNK_TRIPLE_BYTES = 128
_ROWS_BYTES = 1 << 26
_COORD_BYTES = 1 << 19


def mult_sum_numerator(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> Cyclotomic:
    """The weighted class sum before division by |G| = q*s*r^2."""
    rows = char_rows(operands([pi1, pi2, pi3], pr), pr)
    coords = class_sum(pr.rs, label_table(pr.q).sizes, rows, rows, rows, ([0], [1], [2]))[0]
    return Cyclotomic(pr.rs, power_coords(pr.rs, coords.tolist()))


def _what(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep) -> str:
    return f"class sum for [{pi1.label()} x {pi2.label()} : {pi3.label()}]"


def mult_sums(pr: GroupParams, triples) -> list[int]:
    """Exact multiplicity of pi3 inside pi1 (x) pi2 via the class sum, for each
    row of an (m, 3) array of label_table positions (pi1, pi2, pi3): one
    ``exact_sums`` call over the character rows of their distinct irreps."""
    triples = triple_positions(triples, pr, "a class-sum triple")
    present, codes = np.unique(triples, return_inverse=True)
    t = label_table(pr.q)
    rows = char_rows(t.rows[:, present], pr)
    return exact_sums(
        pr.rs, t.sizes, rows, rows, rows, codes.reshape(-1, 3).T,
        lambda i: _what(*(_irrep(k, pr) for k in triples[i].tolist())), pr.order,
    )


def mult_sum(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> int:
    """``mult_sums`` of one triple of labels."""
    return mult_sums(pr, [[position(pi, pr) for pi in (pi1, pi2, pi3)]])[0]


def cell_name(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep) -> str:
    return f"{pi1.kind}x{pi2.kind}->{pi3.kind}"


# -- the indicator kernel ------------------------------------------------------

# The five terms the kernel sums, and their coefficient in each cell
# 16*k1 + 4*k2 + k3 of kind codes with k1 <= k2.
_OMEGA, _TWIST, _DUAL, _PAIRS, _ORBITS = range(5)
# The six cells that correct Schur's lemma: the term each adds, and its sign.
_CORRECTIONS = {
    (W, W, V): (_DUAL, 1),
    (X, X, V): (_DUAL, -1),
    (V, W, W): (_TWIST, 1),
    (V, X, X): (_TWIST, -1),
    (W, W, W): (_PAIRS, 1),
    (X, X, X): (_ORBITS, -1),
}


def _cell_table() -> np.ndarray:
    table = np.zeros((5, 64), dtype=np.int64)
    for k1, k2, k3 in product(range(4), repeat=3):
        cell = 16 * k1 + 4 * k2 + k3
        if k1 == U:
            # twist cells: U_a (x) pi is pi twisted by alpha_a(det)
            table[_TWIST, cell] = k2 == k3
        elif k3 == U:
            # U-target cells: U_t occurs iff pi2 is the dual of pi1 twisted by alpha_t
            table[_DUAL, cell] = k1 == k2
        else:
            # the central characters omega must match (Schur's lemma); six cells correct it
            table[_OMEGA, cell] = 1
            if (k1, k2, k3) in _CORRECTIONS:
                term, sign = _CORRECTIONS[k1, k2, k3]
                table[term, cell] = sign
    return table


_CELLS = _cell_table()

# Scratch bytes one kernel slice may hold; a longer batch is cut to fit.
_KERNEL_BYTES = 1 << 21
# Bytes the kernel holds per triple at its peak, rounded up: nine operands and
# about 20 int64 temporaries (tracemalloc reads 163 bytes besides the operands).
_TRIPLE_BYTES = 8 * 32


def _kernel_step(extra: int = 0) -> int:
    """Triples per kernel slice when each also holds ``extra`` bytes of the caller's."""
    return max(1, _KERNEL_BYTES // (_TRIPLE_BYTES + extra))


def _same_pair(u, v, b0, b1) -> np.ndarray:
    return ((u == b0) & (v == b1)) | ((u == b1) & (v == b0))


def _twisted_is(kind, a0, a1, sign: int, t, b0, b1, pr: GroupParams) -> np.ndarray:
    """Whether the pair (b0, b1) is (a0, a1), dualised for sign -1, twisted by alpha_t(det)."""
    cusp = kind == X
    if np.ndim(cusp):
        modulus, shift = np.where(cusp, pr.rs, pr.r), t * np.where(cusp, pr.s, 1)
    elif cusp:
        modulus, shift = pr.rs, pr.s * t
    else:
        modulus, shift = pr.r, t
    return _same_pair((sign * a0 + shift) % modulus, (sign * a1 + shift) % modulus, b0, b1)


def _evaluate(pr: GroupParams, x, y, z) -> np.ndarray:
    # a scalar operand stays a Python int: scalar arithmetic is cheaper than numpy's on 0-d arrays
    (k1, x0, x1), (k2, y0, y1), (k3, z0, z1) = x, y, z
    swap = k1 > k2
    if np.any(swap):
        (k1, x0, x1), (k2, y0, y1) = (
            tuple(np.where(swap, b, a) for a, b in zip(x, y)),
            tuple(np.where(swap, a, b) for a, b in zip(x, y)),
        )
    coef = _CELLS[:, 16 * k1 + 4 * k2 + k3]
    present = coef.reshape(5, -1).any(axis=1).tolist()
    r, rs = pr.r, pr.rs
    value = np.zeros(coef.shape[1:], dtype=np.int64)
    # only the terms of the cells present in the batch are evaluated
    if present[_OMEGA]:
        w1, w2, w3 = (omega(k, d0, d1) for k, d0, d1 in ((k1, x0, x1), (k2, y0, y1), (k3, z0, z1)))
        value += coef[_OMEGA] * ((w1 + w2 - w3) % r == 0)
    if present[_TWIST]:
        # pi3 is pi2 twisted by pi1's alpha_a(det)
        value += coef[_TWIST] * _twisted_is(k2, y0, y1, 1, x0, z0, z1, pr)
    if present[_DUAL]:
        # pi2 is the dual of pi1 twisted by pi3's alpha_t(det)
        value += coef[_DUAL] * _twisted_is(k1, x0, x1, -1, z0, y0, y1, pr)
    if present[_PAIRS]:
        # W (x) W -> W: the two matchings of [a,b] and [c,d] that sum to pi3
        first = _same_pair((x0 + y0) % r, (x1 + y1) % r, z0, z1)
        value += coef[_PAIRS] * np.add(first, _same_pair((x0 + y1) % r, (x1 + y0) % r, z0, z1), dtype=np.int64)
    if present[_ORBITS]:
        # X (x) X -> X: n + m = n' in Z_rs with one of n, m, n' replaced by its q-multiple
        hits = sum((a + b - c) % rs == 0 for a, b, c in ((x0, y0, z0), (x1, y0, z0), (x0, y1, z0), (x0, y0, z1)))
        value += coef[_ORBITS] * hits
    return value


def mult_closed_array(pr: GroupParams, x, y, z) -> np.ndarray:
    """[pi1 (x) pi2 : pi3] by the indicator formulas, for a batch of triples.

    x, y and z are the ``operand`` (kind, d0, d1) of pi1, pi2 and pi3, each
    entry a 1-d int array or a scalar that broadcasts; the batch is as long
    as the longest kind array, and the kernel's scratch is worked out from
    that length before anything is allocated.  The values are
    returned, negative ones too: each caller raises NegativeMultiplicity for
    the first negative triple in its own order.  A batch longer than one
    slice of _KERNEL_BYTES of scratch is evaluated a slice at a time.
    """
    n = max(np.size(x[0]), np.size(y[0]), np.size(z[0]))
    step = _kernel_step()
    if n <= step:
        return _evaluate(pr, x, y, z)

    def cut(o, lo):
        return tuple(a[lo : lo + step] if np.ndim(a) else a for a in o)

    return np.concatenate([_evaluate(pr, cut(x, lo), cut(y, lo), cut(z, lo)) for lo in range(0, n, step)])


def _negative(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, value: int, pr: GroupParams) -> NegativeMultiplicity:
    if operand(pi1, pr)[0] > operand(pi2, pr)[0]:
        pi1, pi2 = pi2, pi1
    return NegativeMultiplicity(
        f"cell {cell_name(pi1, pi2, pi3)} evaluated to {value} for "
        f"({pi1.label()}, {pi2.label()}, {pi3.label()}) at q={pr.q}"
    )


def _first_negative(values: np.ndarray) -> int | None:
    bad = values < 0
    return int(bad.argmax()) if bad.any() else None


def mult_closed(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> int:
    """Multiplicity of pi3 inside pi1 (x) pi2 via the indicator formulas: a batch of one."""
    value = int(mult_closed_array(pr, *(operand(pi, pr) for pi in (pi1, pi2, pi3))))
    if value < 0:
        raise _negative(pi1, pi2, pi3, value, pr)
    return value


def _irrep(at: int, pr: GroupParams) -> GL2Irrep:
    """The irrep at this position of the canonical order, built from its row."""
    return label_table(pr.q).label(GL2Irrep, at)


def decompose(pi1: GL2Irrep, pi2: GL2Irrep, pr: GroupParams) -> list[tuple[GL2Irrep, int]]:
    """All irreducible constituents of pi1 (x) pi2 with multiplicities."""
    t = label_table(pr.q)
    values = mult_closed_array(pr, operand(pi1, pr), operand(pi2, pr), t.rows)
    if (at := _first_negative(values)) is not None:
        raise _negative(pi1, pi2, _irrep(at, pr), int(values[at]), pr)
    total = int(values @ t.dim)
    expected = pi1.dim() * pi2.dim()
    if total != expected:
        raise GL2RepError(f"dimension leak in {pi1.label()} (x) {pi2.label()}: {total} != {expected}")
    return [(_irrep(k, pr), m) for k, m in zip(np.flatnonzero(values).tolist(), values[values != 0].tolist())]


# Bytes ind_sweep holds per candidate pair besides the kernel's: the pair's
# indices, the index arithmetic that finds them, and pi1's and pi2's operands.
# A whole slice measures about 190 bytes per pair under tracemalloc.
_CANDIDATE_BYTES = 8 * 12


def _sweep_rows(pr: GroupParams) -> int:
    """pi1 rows per slice of ind_sweep: each holds at most this many times the
    largest omega bucket of candidate pairs."""
    return max(1, _kernel_step(_CANDIDATE_BYTES) // int(label_table(pr.q).buckets[2].max()))


def ind_sweep_bytes(pr: GroupParams) -> int:
    """The most scratch bytes one slice of ind_sweep holds, worked out without
    sweeping: its candidate pairs times their bytes and the kernel's."""
    return _sweep_rows(pr) * int(label_table(pr.q).buckets[2].max()) * (_TRIPLE_BYTES + _CANDIDATE_BYTES)


def ind_sweep(pi3: GL2Irrep, pr: GroupParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, m): the positions in canonical order of the ordered pairs
    (pi1, pi2) whose tensor product contains pi3, and m = [pi1 (x) pi2 : pi3] > 0.

    Only the pairs with omega_1 + omega_2 = omega_3 (mod r) are evaluated:
    pi1 in canonical order, then pi2 in its omega bucket, also in canonical
    order, so the pairs come in the order of the full sweep.  The pi1 rows
    run in slices of at most _KERNEL_BYTES of scratch (``ind_sweep_bytes``).
    """
    t = label_table(pr.q)
    by_omega, starts, counts = t.buckets
    target = operand(pi3, pr)
    w3 = omega(*target)
    rows = _sweep_rows(pr)
    found = []
    for lo in range(0, len(t.kind), rows):
        first = np.arange(lo, min(lo + rows, len(t.kind)))
        bucket = (w3 - t.omega[first]) % pr.r
        sizes = counts[bucket]
        i = np.repeat(first, sizes)
        within = np.arange(len(i)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        j = by_omega[np.repeat(starts[bucket], sizes) + within]
        values = mult_closed_array(pr, t.rows[:, i], t.rows[:, j], target)
        if (at := _first_negative(values)) is not None:
            raise _negative(_irrep(i[at], pr), _irrep(j[at], pr), pi3, int(values[at]), pr)
        keep = values > 0
        found.append((i[keep], j[keep], values[keep]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def ind_decompose(pi3: GL2Irrep, pr: GroupParams) -> list[tuple[tuple[GL2Irrep, GL2Irrep], int]]:
    """Ordered pairs (pi1, pi2) whose tensor product contains pi3.

    By Frobenius reciprocity this is the decomposition of the module
    induced from pi3 on the diagonal subgroup up to the product group.
    """
    return [((_irrep(a, pr), _irrep(b, pr)), m) for a, b, m in zip(*(x.tolist() for x in ind_sweep(pi3, pr)))]


def ind_X_counts_by_dim(n: int, pr: GroupParams) -> dict[int, int]:
    """Constituent counts of the induction of X_[n], grouped by pair dimension."""
    target = GL2Irrep.X(pr, n)
    t = label_table(pr.q)
    i, j, m = ind_sweep(target, pr)
    if (m != 1).any():
        at = int((m != 1).argmax())
        raise NotMultiplicityFree(
            f"{t.label(GL2Irrep, i[at]).label()} (x) {t.label(GL2Irrep, j[at]).label()} "
            f"contains {target.label()} {m[at]} times"
        )
    # in order of first appearance, as a dict filled pair by pair would be
    dims, first, counts = np.unique(t.dim[i] * t.dim[j], return_index=True, return_counts=True)
    order = np.argsort(first)
    return dict(zip(dims[order].tolist(), counts[order].tolist()))


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
    return not (ind_sweep(pi, pr)[2] > 1).any()


def _class_weights(pr: GroupParams) -> np.ndarray:
    """|c| * S(c)^2 for every class c, in canonical order, where S(c) = sum
    over irreps of chi_pi(c).

    S(c) is the number of h in GL2(q) with h (h^T)^-1 = g_c, the twisted
    Frobenius-Schur count of the transpose-inverse involution (R. Gow, Proc.
    LMS 47, 1983; N. Kawanaka and H. Matsuyama, Hokkaido Math. J. 19, 1990).
    It is q^2 r on the identity c1:0, 0 on the transvection class c2:0 and
    on every class whose determinant is not 1, and r on every other class.
    The determinant is 1 when 2k = 0 (mod r) for c1:k and c2:k, k + l = 0
    for c3:k,l, and m = 0 for c4:m.  The tests hold S(c) to the column sums
    of the character table.
    """
    k, k3, l3, m = class_params(pr.q)
    r = pr.r
    det_one = np.concatenate([2 * k % r == 0, 2 * k % r == 0, (k3 + l3) % r == 0, m % r == 0])
    sums = np.where(det_one, r, 0)
    sums[0] = pr.q * pr.q * r  # c1:0, the identity
    sums[r] = 0  # c2:0, the transvections
    return label_table(pr.q).sizes * sums**2


def _norms(lo: int, rows: Rows, weights: np.ndarray, pr: GroupParams) -> list[tuple[int, int]]:
    """The two norms of each irrep of the stack of rows of the irreps from
    position lo on: two ``exact_sums`` calls, sum_c |chi(c)|^2 and sum_c w(c)
    conj(chi(c)) divided by |G|, the factors 1 given as None.  A sum that
    fails is named by its irrep's label."""
    every = np.arange(rows[0].rows)
    squares = exact_sums(
        pr.rs, [1] * len(weights), rows, None, rows, (every, None, every),
        lambda i: f"sum of squares for {_irrep(lo + i, pr).label()}",
    )
    totals = exact_sums(
        pr.rs, weights, None, None, rows, (None, None, every),
        lambda i: f"pair sum for {_irrep(lo + i, pr).label()}", pr.order,
    )
    return list(zip(squares, totals))


def family_norms(kind: str, q: int) -> tuple[int, int]:
    """(sum of m^2, sum of m) over the ordered pairs (pi1, pi2), m = [pi1 (x) pi2 : pi],
    for every irrep pi of the family ``kind`` (U, V, W or X) of GL2(q).

    By Frobenius reciprocity these are the squared norm and the number of
    constituents, counted with multiplicity, of the induction of pi to the
    product group.  Both are polynomials in q, the same for every member of
    a family (notes/decisions.md derives them).  Their difference, the
    defect, is 0 for U and X, (q - 1)(q - 2) for V and 2(q - 1)^2 for W.
    """
    return {
        "U": (q * q - 1, q * q - 1),
        "V": (q**3 - 2 * q + 1, (q - 1) * (q * q + 1)),
        "W": (q**3 + 2 * q * q - 4 * q + 1, q**3 - 1),
        "X": ((q - 1) * (q * q - q + 1),) * 2,
    }[kind]


# Bytes of character rows, with what char_rows holds while it builds them,
# that one chunk of class_sum_norms may hold: every irrep fits one chunk at
# q <= 16.
_NORM_CHUNK_BYTES = 1 << 23
# Bytes class_sum_norms holds per irrep besides its chunk of rows: its row of
# the label table with the class sizes (built when cold) and its two norms,
# at most 165 under tracemalloc at q = 8 to 128, rounded up well past that.
_NORM_IRREP_BYTES = 768


def _norm_rows(q: int) -> int:
    """Irreps per chunk of class_sum_norms."""
    return max(1, min(q * q - 1, _NORM_CHUNK_BYTES // table_bytes(q, 1, per_entry=BUILD_ENTRY_BYTES)))


def class_sum_norms_bytes(q: int) -> int:
    """About the most bytes class_sum_norms holds, from q alone: one chunk of
    rows as char_rows builds it, a slice of the class sums' scratch, and
    ``_NORM_IRREP_BYTES`` per irrep."""
    return build_bytes(q, _norm_rows(q)) + SLICE_BYTES + _NORM_IRREP_BYTES * (q * q - 1)


def class_sum_norms(pr: GroupParams) -> list[tuple[int, int]]:
    """(sum of m^2, sum of m) of every irrep in canonical order, by class
    sums: the check of ``family_norms``.

    The rows are built a chunk of ``_norm_rows`` irreps at a time, and the
    character table is never held whole.  BudgetExceeded is raised, before
    anything is allocated, if ``class_sum_norms_bytes`` passes TABLE_BYTES_LIMIT.
    """
    require_budget(class_sum_norms_bytes(pr.q), f"the class-sum norms of GL2({pr.q})")
    t, weights, step = label_table(pr.q), _class_weights(pr), _norm_rows(pr.q)
    norms: list[tuple[int, int]] = []
    for lo in range(0, len(t.kind), step):
        norms += _norms(lo, char_rows(t.rows[:, lo : lo + step], pr), weights, pr)
    return norms


def gelfand_kinds(q: int) -> list[int]:
    """The kind codes of the families that induce multiplicity free: those whose
    two ``family_norms`` agree, since every m is a non-negative integer."""
    return [code for code, kind in enumerate(IRREP_KINDS) if operator.eq(*family_norms(kind, q))]


def classify_gelfand(pr: GroupParams) -> set[GL2Irrep]:
    """All irreducibles of GL2(q) that induce multiplicity free to the product: O(#irreps)."""
    free = [IRREP_KINDS[code] for code in gelfand_kinds(pr.q)]
    return {pi for pi in enumerate_irreps(pr) if pi.kind in free}


def dim_E(pi: GL2Irrep, pr: GroupParams) -> int:
    """Number of irreducible constituents of the induction of pi.

    Only defined for the multiplicity-free inducers (U and X families):
    it is then the dimension of the space of spherical functions of
    type pi.
    """
    if pi.kind not in ("U", "X"):
        raise NotMultiplicityFree(f"{pi.label()} does not induce multiplicity free")
    return family_norms(pi.kind, pr.q)[1]


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


def all_triples(pr: GroupParams) -> Iterator[tuple[GL2Irrep, GL2Irrep, GL2Irrep]]:
    return product(enumerate_irreps(pr), repeat=3)


def sample_positions(pr: GroupParams, count: int, seed: int) -> np.ndarray:
    """A (count, 3) array of label_table positions: the triples that
    ``random.Random(seed).choice`` draws over the q^2 - 1 irreps, three a triple.

    choice over n labels takes getrandbits(k), k = n.bit_length(), until one
    is below n, and getrandbits(k <= 32) is the top k bits of the next 32-bit
    word of the stream that getrandbits(32 m) returns little end first."""
    rng, n = random.Random(seed), pr.q * pr.q - 1
    k, kept, need = n.bit_length(), [np.zeros(0, dtype=np.uint32)], 3 * count
    while need:
        # about as many words as keep ``need``, and more while too few are kept
        words = (need << k) // n + 1
        drawn = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), "<u4") >> (32 - k)
        kept.append(drawn[drawn < n][:need])
        need -= len(kept[-1])
    return np.concatenate(kept).astype(np.intp).reshape(count, 3)


def sample_triples(pr: GroupParams, count: int, seed: int) -> Iterator[tuple[GL2Irrep, GL2Irrep, GL2Irrep]]:
    """The labels of ``sample_positions``."""
    return (tuple(_irrep(k, pr) for k in at) for at in sample_positions(pr, count, seed).tolist())


def _kind_sums(ops: np.ndarray, codes: np.ndarray, pr: GroupParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The mult_sum_numerator of some triples, width triple by width triple:
    pairs (at, coords) of their rising positions among the triples and their
    (len(at), phi(rs)) tensor-basis coordinates.  ``ops`` holds the operands
    of their distinct irreps and ``codes`` each triple's three places in it.

    The irreps are stacked once per term width, U and V in one stack (their
    rows are as wide in every class block but c2, where V's zero entries are
    padded), so a chunk makes one class_sum call per width triple, at most
    27, cut only where its coordinates would pass _COORD_BYTES.
    """
    width = np.maximum(ops[0] - V, 0)
    position = np.zeros(len(width), dtype=np.intp)
    stacks = {}
    for k in np.unique(width).tolist():
        members = np.flatnonzero(width == k)
        position[members] = np.arange(len(members))
        stacks[k] = char_rows(ops[:, members], pr)
    cells = width[codes] @ np.array([9, 3, 1])
    order = np.argsort(cells, kind="stable")
    step = max(1, _COORD_BYTES // (8 * euler_phi(pr.rs)))
    sizes = label_table(pr.q).sizes
    for group in np.split(order, np.flatnonzero(np.diff(cells[order])) + 1):
        k1, k2, k3 = width[codes[group[0]]].tolist()
        for lo in range(0, len(group), step):
            at = group[lo : lo + step]
            yield at, class_sum(pr.rs, sizes, stacks[k1], stacks[k2], stacks[k3], position[codes[at]].T)


def _flagged(chunk: np.ndarray, pr: GroupParams) -> list[tuple[list[int], int, int | None]]:
    """The triples of a chunk, an (m, 3) array of label_table positions, that
    fail a check, in order: each its positions with its mult_closed value and
    its class sum's coordinate 0, None when the sum is not a rational integer.
    The distinct irreps are read as operands once, off the table's rows, for
    one kernel call and for the class sums' stacks.
    """
    present, codes = np.unique(chunk, return_inverse=True)
    ops, codes = label_table(pr.q).rows[:, present], codes.reshape(-1, 3)
    closed = mult_closed_array(pr, *(ops[:, codes[:, k]] for k in range(3)))
    total = np.empty(len(codes), dtype=np.int64)
    integral = np.empty(len(codes), dtype=bool)
    for at, coords in _kind_sums(ops, codes, pr):
        total[at], integral[at] = coords[:, 0], ~coords[:, 1:].any(axis=1)
    flagged = (closed < 0) | ~integral | (total % pr.order != 0) | (closed != total // pr.order)
    return [
        (chunk[i].tolist(), int(closed[i]), int(total[i]) if integral[i] else None)
        for i in np.flatnonzero(flagged).tolist()
    ]


def _chunk_triples(q: int) -> int:
    """Triples per verify_agreement chunk at q, from _CHUNK_BYTES and _ROWS_BYTES."""
    most = _CHUNK_BYTES // _CHUNK_TRIPLE_BYTES
    if build_bytes(q) > _ROWS_BYTES:
        row = build_bytes(q, 1) - build_bytes(q, 0)
        most = min(most, (_ROWS_BYTES - build_bytes(q, 0)) // (3 * row))
    return max(1, most)


def _agreement_bytes(q: int) -> int:
    """The most bytes a verify_agreement chunk holds at q, worked out from q
    alone: its triples and the character rows of their irreps."""
    size = _chunk_triples(q)
    return size * _CHUNK_TRIPLE_BYTES + build_bytes(q, min(3 * size, q * q - 1))


def verify_agreement(
    pr: GroupParams,
    triples: np.ndarray | None = None,
    stop_after: int | None = 10,
) -> list[Disagreement]:
    """Compare mult_closed against mult_sum; returns all disagreements found.

    The triples are an (m, 3) array of label_table positions, or None for all
    of them in canonical order, a chunk of flat indices at a time.  Chunks of
    a byte budget (``_agreement_bytes``) batch their class sums per width
    triple, reduced as they arrive, and their indicator values in one kernel
    call (``_flagged``); the triples that fail a check are then walked in
    order, so reports, errors and ``stop_after`` follow iteration order, and
    a GL2Irrep is built only for them.  BudgetExceeded is raised, before
    anything is allocated, if a chunk could pass TABLE_BYTES_LIMIT.
    """
    require_budget(_agreement_bytes(pr.q), f"a tensor-agree chunk of GL2({pr.q})")
    size, n = _chunk_triples(pr.q), pr.q * pr.q - 1
    if triples is not None:
        triples = triple_positions(triples, pr, "a tensor-agree triple")
    bad: list[Disagreement] = []
    for lo in range(0, n**3 if triples is None else len(triples), size):
        if triples is None:
            chunk = np.stack(np.unravel_index(np.arange(lo, min(lo + size, n**3)), (n, n, n)), axis=1)
        else:
            chunk = triples[lo : lo + size]
        for at, closed, total in _flagged(chunk, pr):
            pi1, pi2, pi3 = (_irrep(k, pr) for k in at)
            if closed < 0:
                raise _negative(pi1, pi2, pi3, closed, pr)
            if total is None or total % pr.order:
                # the triple's class sum again, alone: NonIntegral with its power-basis coordinates
                mult_sum(pi1, pi2, pi3, pr)
                raise GL2RepError(f"{_what(pi1, pi2, pi3)} is exact alone but not in its chunk's batch")
            left, right, target = (pi.label() for pi in (pi1, pi2, pi3))
            bad.append(Disagreement(pr.q, cell_name(pi1, pi2, pi3), left, right, target, closed, total // pr.order))
            if stop_after is not None and len(bad) >= stop_after:
                return bad
    return bad
