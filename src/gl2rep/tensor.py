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
``verify_agreement`` compares the two routes over any iterable of triples.
It reads the triples in chunks sized from q by two byte budgets, one for
the triples and one for the character rows of their irreps, and a chunk
keeps per triple only its irreps' positions, its class sum reduced to
coordinate 0 and whether it is a rational integer, and its indicator value.
Per chunk it batches the class sums, one ``gl2.class_sum`` call per kind
triple whose coordinates are reduced as they arrive, and the indicator
values, one kernel call, both from operands read once; then it walks the
triples that fail a check in order, so reports, errors and ``stop_after``
follow the order of the triples.  A sum that is not a rational integer
multiple of |G| is taken again for its triple alone, whose NonIntegral
prints its coordinates.

``irrep_table(q)`` holds, per q and in canonical order, the irreps, their
``gl2.operand`` and ``gl2.omega``, dimensions, labels, the labels' JSON text
and their duals' labels; the sweeps and the CLI read it by index.

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

import json
import operator
import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain, islice, product
from typing import Iterable, Iterator, NamedTuple

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
    class_table,
    enumerate_irreps,
    exact_sums,
    omega,
    operand,
    operands,
    params,
    require_budget,
    table_bytes,
)

# A verify_agreement chunk holds, per triple, its irrep positions (24 bytes),
# its indicator value, class-sum coordinate 0 and integrality (17) and its
# place in the grouping by kind triple (24), and, at the kernel call, its
# three operands (72): at most 104 bytes, rounded up to _CHUNK_TRIPLE_BYTES.
# Beside them it holds the character rows of the chunk's distinct irreps,
# stacked per kind for the class sums: at most build_bytes of their count.
# A chunk is 16 384 triples (_CHUNK_BYTES of them) while the rows of every
# irrep fit _ROWS_BYTES, at q <= 32, so every default tensor-agree sweep at
# q <= 9 is one chunk; past that, as many as bring at most three new rows
# each within _ROWS_BYTES (136 at q = 64, 33 at q = 128).  Besides the chunk,
# one kernel slice (_KERNEL_BYTES) or one class_sum slice (SLICE_BYTES) of
# scratch with the coordinates of one class_sum call, at most _COORD_BYTES.
# Traced from cold per-q caches, the peak is at most 55 bytes per triple over
# one class_sum slice at q = 4 to 9 (all triples, or 10 000 sampled), 2.64 MB
# at q = 9, and half of _agreement_bytes at q = 49 and 64.
_CHUNK_BYTES = 1 << 21
_CHUNK_TRIPLE_BYTES = 128
_ROWS_BYTES = 1 << 26
_COORD_BYTES = 1 << 19


def mult_sum_numerator(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> Cyclotomic:
    """The weighted class sum before division by |G| = q*s*r^2."""
    rows = char_rows([pi1, pi2, pi3], pr)
    coords = class_sum(pr.rs, class_table(pr.q)[1], rows, rows, rows, ([0], [1], [2]))[0]
    return Cyclotomic(pr.rs, power_coords(pr.rs, coords.tolist()))


def _what(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep) -> str:
    return f"class sum for [{pi1.label()} x {pi2.label()} : {pi3.label()}]"


def mult_sum(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, pr: GroupParams) -> int:
    """Exact multiplicity of pi3 inside pi1 (x) pi2 via the class sum."""
    rows = char_rows([pi1, pi2, pi3], pr)
    what = _what(pi1, pi2, pi3)
    return exact_sums(pr.rs, class_table(pr.q)[1], rows, rows, rows, ([0], [1], [2]), lambda i: what, pr.order)[0]


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


class IrrepTable(NamedTuple):
    """The irreps of GL2(q) in canonical order, as arrays the kernel and the CLI read.

    kind, d0 and d1 are each irrep's ``operand``; omega is its central exponent
    mod r, dim its dimension; labels and encoded hold its label and that
    label's JSON text, and duals its dual's label.  by_omega lists the irreps
    grouped by omega, each group in canonical order, group w starting at
    starts[w] with counts[w] members.
    """

    irreps: tuple[GL2Irrep, ...]
    kind: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    omega: np.ndarray
    dim: np.ndarray
    labels: np.ndarray
    encoded: np.ndarray
    duals: np.ndarray
    by_omega: np.ndarray
    starts: np.ndarray
    counts: np.ndarray


@lru_cache(maxsize=None)
def irrep_table(q: int) -> IrrepTable:
    """The IrrepTable of GL2(q), built once per q: O(q^2)."""
    pr = params(q)
    irreps = tuple(enumerate_irreps(pr))
    kind, d0, d1 = operands(irreps, pr)
    central = omega(kind, d0, d1) % pr.r
    labels = np.array([pi.label() for pi in irreps], dtype=object)
    counts = np.bincount(central, minlength=pr.r)
    # each operand is its sorted pair, so (kind, d0, d1) rises in canonical
    # order; the dual's pair is the negated one, mod rs for X and r otherwise
    key = (kind * pr.rs + d0) * pr.rs + d1
    modulus = np.where(kind == X, pr.rs, pr.r)
    u, v = -d0 % modulus, -d1 % modulus
    dual = np.searchsorted(key, (kind * pr.rs + np.minimum(u, v)) * pr.rs + np.maximum(u, v))
    table = IrrepTable(
        irreps=irreps,
        kind=kind,
        d0=d0,
        d1=d1,
        omega=central,
        dim=np.array([1, q, q + 1, q - 1], dtype=np.int64)[kind],
        labels=labels,
        encoded=np.array([json.dumps(label) for label in labels], dtype=object),
        duals=labels[dual],
        by_omega=np.argsort(central, kind="stable"),
        starts=np.cumsum(counts) - counts,
        counts=counts,
    )
    for array in table[1:]:
        array.setflags(write=False)
    return table


def decompose(pi1: GL2Irrep, pi2: GL2Irrep, pr: GroupParams) -> list[tuple[GL2Irrep, int]]:
    """All irreducible constituents of pi1 (x) pi2 with multiplicities."""
    t = irrep_table(pr.q)
    values = mult_closed_array(pr, operand(pi1, pr), operand(pi2, pr), (t.kind, t.d0, t.d1))
    if (at := _first_negative(values)) is not None:
        raise _negative(pi1, pi2, t.irreps[at], int(values[at]), pr)
    total = int(values @ t.dim)
    expected = pi1.dim() * pi2.dim()
    if total != expected:
        raise GL2RepError(
            f"dimension leak in {pi1.label()} (x) {pi2.label()}: {total} != {expected}"
        )
    return [(t.irreps[k], m) for k, m in zip(np.flatnonzero(values).tolist(), values[values != 0].tolist())]


# Bytes ind_sweep holds per candidate pair besides the kernel's: the pair's
# indices, the index arithmetic that finds them, and pi1's and pi2's operands.
# A whole slice measures about 190 bytes per pair under tracemalloc.
_CANDIDATE_BYTES = 8 * 12


def _sweep_rows(pr: GroupParams) -> int:
    """pi1 rows per slice of ind_sweep: each holds at most this many times the
    largest omega bucket of candidate pairs."""
    return max(1, _kernel_step(_CANDIDATE_BYTES) // int(irrep_table(pr.q).counts.max()))


def ind_sweep_bytes(pr: GroupParams) -> int:
    """The most scratch bytes one slice of ind_sweep holds, worked out without
    sweeping: its candidate pairs times their bytes and the kernel's."""
    return _sweep_rows(pr) * int(irrep_table(pr.q).counts.max()) * (_TRIPLE_BYTES + _CANDIDATE_BYTES)


def ind_sweep(pi3: GL2Irrep, pr: GroupParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, m): the positions in canonical order of the ordered pairs
    (pi1, pi2) whose tensor product contains pi3, and m = [pi1 (x) pi2 : pi3] > 0.

    Only the pairs with omega_1 + omega_2 = omega_3 (mod r) are evaluated:
    pi1 in canonical order, then pi2 in its omega bucket, also in canonical
    order, so the pairs come in the order of the full sweep.  The pi1 rows
    run in slices of at most _KERNEL_BYTES of scratch (``ind_sweep_bytes``).
    """
    t = irrep_table(pr.q)
    target = operand(pi3, pr)
    w3 = omega(*target)
    rows = _sweep_rows(pr)
    found = []
    for lo in range(0, len(t.irreps), rows):
        first = np.arange(lo, min(lo + rows, len(t.irreps)))
        bucket = (w3 - t.omega[first]) % pr.r
        sizes = t.counts[bucket]
        i = np.repeat(first, sizes)
        within = np.arange(len(i)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        j = t.by_omega[np.repeat(t.starts[bucket], sizes) + within]
        values = mult_closed_array(pr, (t.kind[i], t.d0[i], t.d1[i]), (t.kind[j], t.d0[j], t.d1[j]), target)
        if (at := _first_negative(values)) is not None:
            raise _negative(t.irreps[i[at]], t.irreps[j[at]], pi3, int(values[at]), pr)
        keep = values > 0
        found.append((i[keep], j[keep], values[keep]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def ind_decompose(pi3: GL2Irrep, pr: GroupParams) -> list[tuple[tuple[GL2Irrep, GL2Irrep], int]]:
    """Ordered pairs (pi1, pi2) whose tensor product contains pi3.

    By Frobenius reciprocity this is the decomposition of the module
    induced from pi3 on the diagonal subgroup up to the product group.
    """
    irreps = irrep_table(pr.q).irreps
    return [((irreps[a], irreps[b]), m) for a, b, m in zip(*(x.tolist() for x in ind_sweep(pi3, pr)))]


def ind_X_counts_by_dim(n: int, pr: GroupParams) -> dict[int, int]:
    """Constituent counts of the induction of X_[n], grouped by pair dimension."""
    target = GL2Irrep.X(pr, n)
    t = irrep_table(pr.q)
    i, j, m = ind_sweep(target, pr)
    if (m != 1).any():
        at = int((m != 1).argmax())
        raise NotMultiplicityFree(
            f"{t.labels[i[at]]} (x) {t.labels[j[at]]} contains {target.label()} {m[at]} times"
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
    return np.array(class_table(pr.q)[1], dtype=np.int64) * sums**2


def _norms(irreps: list[GL2Irrep], rows: Rows, weights: np.ndarray, pr: GroupParams) -> list[tuple[int, int]]:
    """The two norms of each irrep, from the stack of their rows: two ``exact_sums``
    calls, sum_c |chi(c)|^2 and sum_c w(c) conj(chi(c)) divided by |G|, the
    factors 1 given as None."""
    every = np.arange(len(irreps))
    squares = exact_sums(
        pr.rs, [1] * len(weights), rows, None, rows, (every, None, every),
        lambda i: f"sum of squares for {irreps[i].label()}",
    )
    totals = exact_sums(
        pr.rs, weights, None, None, rows, (None, None, every), lambda i: f"pair sum for {irreps[i].label()}", pr.order
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
# Bytes class_sum_norms holds per irrep besides its chunk of rows: its label,
# a class's label and entries in class_table (built when cold) and its two
# norms, at most 540 under tracemalloc at q = 2 to 64, rounded up.
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
    irreps, weights, step = enumerate_irreps(pr), _class_weights(pr), _norm_rows(pr.q)
    norms: list[tuple[int, int]] = []
    for lo in range(0, len(irreps), step):
        chunk = irreps[lo : lo + step]
        norms += _norms(chunk, char_rows(chunk, pr), weights, pr)
    return norms


def classify_gelfand(pr: GroupParams) -> set[GL2Irrep]:
    """All irreducibles of GL2(q) that induce multiplicity free to the product.

    pi qualifies iff the two ``family_norms`` of its family agree, since
    every m is a non-negative integer: O(#irreps), and no class sum.
    """
    free = {kind for kind in IRREP_KINDS if operator.eq(*family_norms(kind, pr.q))}
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


def _positions(triples: Iterable[tuple[GL2Irrep, GL2Irrep, GL2Irrep]]) -> tuple[list[GL2Irrep], np.ndarray]:
    """The distinct irreps of some triples, and a (triples, 3) array of each
    triple's positions among them; the triples themselves are not kept."""
    flat = list(chain.from_iterable(triples))
    # labels are told apart by object, not by value: an equal label in another
    # object only repeats an entry
    first, codes = np.unique(np.fromiter(map(id, flat), np.int64, len(flat)), return_index=True, return_inverse=True)[1:]
    return [flat[i] for i in first.tolist()], codes.reshape(-1, 3)


def _kind_sums(
    irreps: list[GL2Irrep], codes: np.ndarray, kind: np.ndarray, pr: GroupParams
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The mult_sum_numerator of the triples ``_positions`` gives, kind triple
    by kind triple (``kind`` holds each irrep's kind code): pairs (at, coords)
    of their rising positions and their (len(at), phi(rs)) tensor-basis
    coordinates.

    The irreps of each kind are stacked once, and each kind triple makes one
    class_sum call, cut only where its coordinates would pass _COORD_BYTES.
    """
    position = np.zeros(len(irreps), dtype=np.intp)
    stacks = {}
    for k in np.unique(kind).tolist():
        members = np.flatnonzero(kind == k)
        position[members] = np.arange(len(members))
        stacks[k] = char_rows([irreps[i] for i in members.tolist()], pr)
    cells = kind[codes] @ np.array([16, 4, 1])
    order = np.argsort(cells, kind="stable")
    step = max(1, _COORD_BYTES // (8 * euler_phi(pr.rs)))
    sizes = class_table(pr.q)[1]
    for group in np.split(order, np.flatnonzero(np.diff(cells[order])) + 1):
        k1, k2, k3 = kind[codes[group[0]]].tolist()
        for lo in range(0, len(group), step):
            at = group[lo : lo + step]
            yield at, class_sum(pr.rs, sizes, stacks[k1], stacks[k2], stacks[k3], position[codes[at]].T)


def _flagged(triples: Iterable[tuple[GL2Irrep, GL2Irrep, GL2Irrep]], pr: GroupParams) -> list | None:
    """The triples of a chunk that fail a check, in order, each with its
    mult_closed value and its class sum's coordinate 0, None when the sum is
    not a rational integer; None for an empty chunk.  The distinct irreps are
    read as operands once, for one kernel call and for the class sums' stacks.
    """
    irreps, codes = _positions(triples)
    if not len(codes):
        return None
    ops = operands(irreps, pr)
    closed = mult_closed_array(pr, *(ops[:, codes[:, k]] for k in range(3)))
    total = np.empty(len(codes), dtype=np.int64)
    integral = np.empty(len(codes), dtype=bool)
    for at, coords in _kind_sums(irreps, codes, ops[0], pr):
        total[at], integral[at] = coords[:, 0], ~coords[:, 1:].any(axis=1)
    flagged = (closed < 0) | ~integral | (total % pr.order != 0) | (closed != total // pr.order)
    return [
        (tuple(irreps[k] for k in codes[i].tolist()), int(closed[i]), int(total[i]) if integral[i] else None)
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
    triples: Iterable[tuple[GL2Irrep, GL2Irrep, GL2Irrep]] | None = None,
    stop_after: int | None = 10,
) -> list[Disagreement]:
    """Compare mult_closed against mult_sum; returns all disagreements found.

    The triples are read in chunks of a byte budget (``_agreement_bytes``),
    never all at once: the class sums of a chunk are batched per kind triple
    and reduced as they arrive, and its indicator values taken in one kernel
    call (``_flagged``).  The triples that fail a check are then walked in
    order, so reports, errors and ``stop_after`` follow iteration order, as a
    triple-by-triple loop would.  BudgetExceeded is raised, before anything
    is allocated, if a chunk could pass TABLE_BYTES_LIMIT.
    """
    require_budget(_agreement_bytes(pr.q), f"a tensor-agree chunk of GL2({pr.q})")
    triples = iter(all_triples(pr) if triples is None else triples)
    size = _chunk_triples(pr.q)
    bad: list[Disagreement] = []
    while (flagged := _flagged(islice(triples, size), pr)) is not None:
        for (pi1, pi2, pi3), closed, total in flagged:
            if closed < 0:
                raise _negative(pi1, pi2, pi3, closed, pr)
            if total is None or total % pr.order:
                # the triple's class sum again, alone: NonIntegral with its power-basis coordinates
                mult_sum(pi1, pi2, pi3, pr)
                raise GL2RepError(f"{_what(pi1, pi2, pi3)} is exact alone but not in its chunk's batch")
            bad.append(_disagreement(pi1, pi2, pi3, closed, total // pr.order, pr))
            if stop_after is not None and len(bad) >= stop_after:
                return bad
    return bad
