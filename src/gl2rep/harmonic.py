"""Direct convolution-algebra verification on G' = GL2(q) x GL2(q).

For H = diag(GL2(q)) inside G', the H-class functions I(G') carry the
convolution product (f * g)(x) = (1/|G'|) sum_y f(y) g(y^-1 x).  For an
irreducible pi of H the two-sided projection

    I_pi(G') = xi_pi * I(G') * xi_pi,
    xi_pi(h) = [G':H] * dim(pi) * conj(chi_pi(h)) on H, zero elsewhere,

is a subalgebra whose commutativity is equivalent to pi inducing
multiplicity free from H to G'.  This module computes I_pi bases and
tests commutativity exactly, at q in {2, 3}.  The [G':H] factor makes
xi_pi idempotent under the 1/|G'| normalisation.

G's elements, tower and classes come from the oracle's context for q.
An element of G' is a flat index, read through one group law: ``times``
and ``inverse``, elementwise with broadcasting, and ``h``, the positions
of H; ``split`` hands ``times`` an operand already cut into its two
factors, for a caller that multiplies it many times.  Only the
constructor and the group law know that it is a pair.

Everything is exact: functions take values in (1/den) * Z[zeta_rs],
stored as integer coordinate vectors with one shared denominator, and
every kernel runs on machine integers or on float64, never on Python
integers.  Convolutions of H-class functions are evaluated through the
integer counts

    N[k][i][j] = #{ y in orbit_i : y^-1 x_k in orbit_j }

over the H-conjugation orbits on G', which turn each convolution into
a small bilinear form in integers.  No N of all K^3 counts is kept: the
K x K slice N[k] is built when a product reads it.  One generator yields
the products of two stacked bases one orbit slice k at a time, and
``commutativity_check`` stops at the first slice that is not symmetric
in its two basis axes, since the algebra is commutative iff every slice
is, and so builds no N[k] past it.

The projections that span I_pi come from the pi-independent pair counts

    count[k][j][cy][cz] = #{(y, z) in H^2 : y^-1 x_k z^-1 in orbit_j, classes cy, cz},

which are never held whole either: the K x nc x nc slice of orbit k is
built when the projection pass reads it, and dropped after.  One pass
over k projects every irrep of a q from each slice with one product, so
each slice is built once per pass however many irreps it serves.

Every product, of the convolutions and of the projections, runs in
float64 through BLAS under one rule, and is still exact: every operand
is an integer, and when the absolute values of the terms of each output
entry sum to less than 2^53, every partial sum is an integer that
float64 holds exactly, in any summation order, with or without FMA and
on any number of threads, so the result rounded back to int64 is the
integer one.  A convolution's sum is at most

    |G'| * max|f| * max|g| * max_e sum_{c,d} |reduction[c, d, e]|,

and a projection's at most n^2 * max|xi|^2 times the same reduction
mass; a product whose bound reaches 2^53 raises BudgetExceeded before
anything is allocated.  At q <= 3 the largest bounds met are 230 400
for a convolution and 2 359 296 for a projection (2^21.2).

The echelon that picks a basis from the projections stays on int64,
under the same kind of bound taken from the operands before each step:
a step whose terms could sum to 2^62 raises BudgetExceeded before any
product is formed.  It finds the echelon row of each step in one lookup
over the pivots.  With content reduction the largest entry the echelon
meets at q <= 3 is 4 800, far below its bound.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .cyclotomic import INT64_LIMIT, Cyclotomic, euler_phi, root_coords
from .errors import BudgetExceeded, MismatchedGroup
from .gl2 import GL2Irrep, char_value, enumerate_classes, params, require_budget
from .oracle import _context

HARMONIC_MAX_Q = 3


class PairGroupContext:
    """G' = G x G with H = diag(G), for one q <= 3.  The pair (a, b) of G's
    elements, in the oracle's order, is the flat index a * n + b; ``h``
    lists (g, g) for each g, and ``times`` and ``inverse`` are the law."""

    def __init__(self, q: int):
        if q > HARMONIC_MAX_Q:
            raise BudgetExceeded(
                f"q={q} gives |G'| = {(q**2 - 1) ** 2 * q**2 * (q - 1) ** 2}; ceiling is q={HARMONIC_MAX_Q}"
            )
        self.q = q
        self.pr = params(q)
        group = _context(q)  # GL2(q)'s elements, tower and per-element classes
        self.tower = group.tower
        self.n = n = len(group.elements)
        gf = self.tower.gf_q
        add, mul = np.array(gf.add_table), np.array(gf.mul_table)
        X = group.elements.reshape(n, 2, 2)
        # terms[i, j, r, k, c] = x_i[r, k] x_j[k, c]; adding over k gives (x_i x_j)[r, c]
        terms = mul[X[:, None, :, :, None], X[None, :, None, :, :]]
        self.mul = group.index_of(add[terms[:, :, :, 0], terms[:, :, :, 1]].reshape(n, n, 4)).astype(np.int32)
        self.identity = int(group.index_of([1, 0, 0, 1]))
        self.inv = np.argmax(self.mul == self.identity, axis=1).astype(np.int32)

        self.classes = enumerate_classes(self.pr)
        self.cls = group.cls.astype(np.int32)

        self.n2 = n * n
        self.h = np.arange(n, dtype=np.int32) * (n + 1)
        self.rs = self.pr.rs
        self.phi = euler_phi(self.rs)
        table = root_coords(self.rs)
        # zeta^c * zeta^d reduced back to the power basis
        self.reduction = np.array(
            [[table[(c + d) % self.rs] for d in range(self.phi)] for c in range(self.phi)],
            dtype=np.int64,
        )
        # max_e sum_{c,d} |reduction[c, d, e]|: the factor of the exactness bound
        self.reduction_mass = int(np.abs(self.reduction).sum(axis=(0, 1)).max())

        # H-conjugation orbits on G', numbered by their least members: the
        # least of h x h^-1 over all h is the least member of x's orbit
        xs = np.arange(self.n2, dtype=np.int32)
        least = xs
        for g, g_inv in zip(self.h.tolist(), self.inverse(self.h).tolist()):
            least = np.minimum(least, self.times(self.times(g, xs), g_inv))
        reps, orb = np.unique(least, return_inverse=True)
        self.orb = orb.astype(np.int32)
        self.orbit_reps = reps.tolist()
        self.K = len(reps)
        # what each slice of N reads: y^-1 split once, and the row i * K of each y's (i, j) cell
        self._inv_y = self.split(self.inverse(np.arange(self.n2)))
        self._row_y = self.orb.astype(np.int64) * self.K
        # what each pair-count slice reads: H's inverses, and the (j, cy, cz)
        # cell j * nc^2 + cy * nc + cz of the pair (y, z) split into its j and (cy, cz) parts
        nc = len(self.classes)
        self._inv_h = self.inverse(self.h)
        self._cell_j = self.orb.astype(np.int64) * (nc * nc)
        self._cls_yz = self.cls[:, None].astype(np.int64) * nc + self.cls[None, :]

    # -- the group law on flat indices ------------------------------------------
    def split(self, x):
        """x's two factors (a, b) as the offsets a * n and b * n of their rows of mul.

        A caller that multiplies the same x by many y splits it once and
        passes the pair to ``times`` in place of x."""
        n = self.n
        return x // n * n, x % n * n

    def times(self, x, y):
        """x y in G', factor by factor; ``take`` reads mul[a, c] at a * n + c.
        x may be given as its ``split``."""
        (a, b), n = x if isinstance(x, tuple) else self.split(x), self.n
        return self.mul.take(a + y // n) * n + self.mul.take(b + y % n)

    def inverse(self, x):
        """x^-1 in G', factor by factor."""
        n = self.n
        return self.inv.take(x // n) * n + self.inv.take(x % n)

    def n_tensor(self, k: int) -> np.ndarray:
        """The K x K slice N[k], N[k, i, j] = #{y in O_i with y^-1 x_k in O_j},
        built each time it is asked for; drives convolution."""
        K = self.K
        u = self.times(self._inv_y, self.orbit_reps[k])  # y^-1 x_k for every y at once
        return np.bincount(self._row_y + self.orb.take(u), minlength=K * K).reshape(K, K)

    def pair_count(self, k: int) -> np.ndarray:
        """The K x nc x nc slice of orbit k, built each time it is asked for:

            count[j, cy, cz] = #{(y,z) in H^2 : y^-1 x_k z^-1 in O_j, classes cy, cz},

        the pi-independent part of the two-sided projection xi * 1_{O_j} * xi
        evaluated at the representative x_k."""
        K, nc = self.K, len(self.classes)
        u = self.times(self.times(self._inv_h, self.orbit_reps[k])[:, None], self._inv_h[None, :])  # y^-1 x_k z^-1
        return np.bincount((self._cell_j.take(u) + self._cls_yz).ravel(), minlength=K * nc * nc).reshape(K, nc, nc)


@lru_cache(maxsize=None)
def pair_context(q: int) -> PairGroupContext:
    return PairGroupContext(q)


class GroupFunction:
    """An H-class function on G' with values in (1/den) Z[zeta_rs].

    Stored compressed: one integer coordinate row per H-orbit.
    """

    def __init__(self, ctx: PairGroupContext, orbit_coords: np.ndarray, den: int = 1):
        if orbit_coords.shape != (ctx.K, ctx.phi):
            raise MismatchedGroup(
                f"coordinates of shape {orbit_coords.shape}; this group needs {(ctx.K, ctx.phi)}"
            )
        self.ctx = ctx
        g = math.gcd(den, int(np.gcd.reduce(orbit_coords, axis=None)))
        if g > 1:
            orbit_coords = orbit_coords // g
            den //= g
        if den < 0:
            orbit_coords, den = -orbit_coords, -den
        self.coords = orbit_coords.copy()
        self.den = den

    def value(self, x: int) -> tuple[Cyclotomic, int]:
        """Exact value at element index x as (numerator, denominator)."""
        return Cyclotomic(self.ctx.rs, self.coords[self.ctx.orb[x]]), self.den

    def __eq__(self, other):
        if not isinstance(other, GroupFunction):
            return NotImplemented
        if self.ctx is not other.ctx:
            raise MismatchedGroup("functions live on different groups")
        return self.den == other.den and bool(np.all(self.coords == other.coords))


def _xi_classes(pi: GL2Irrep, ctx: PairGroupContext) -> np.ndarray:
    """dim(pi) conj(chi_pi) on each class of H, as (classes, phi) coordinates."""
    return np.array(
        [(char_value(pi, c, ctx.pr).conj() * pi.dim()).coords_at(ctx.rs) for c in ctx.classes],
        dtype=np.int64,
    )


def _check_float64(bound: int, what: str, q: int) -> None:
    """Raise BudgetExceeded unless ``bound``, an a-priori bound on the sum of
    the absolute values of the integer terms behind every entry of a float64
    product, stays below 2^53, so that every partial sum of the product is
    an integer float64 holds exactly, in any summation order."""
    if bound >= 2**53:
        raise BudgetExceeded(f"{what} bound {bound} reaches 2^53 at q={q}")


def _check_exact(ctx: PairGroupContext, f: np.ndarray, g: np.ndarray) -> None:
    """Raise BudgetExceeded unless, for every product of an entry of f with
    an entry of g, the absolute values of the terms of each coordinate sum
    to less than 2^53, so float64 (and int64) sums of them are exact."""
    max_f = int(np.abs(f).max() or 1)
    max_g = int(np.abs(g).max() or 1)
    _check_float64(ctx.n2 * max_f * max_g * ctx.reduction_mass, "convolution", ctx.q)


def _product_slices(ctx: PairGroupContext, F: np.ndarray, G: np.ndarray) -> Iterator[np.ndarray]:
    """Integer parts of every f * g at the orbit reps, for f in the stack
    F (a, K, phi) and g in G (b, K, phi), one orbit k at a time: the k-th
    item is the (a, b, phi) int64 slice

        P[a, b, k] = sum_{i,j} N[k,i,j] F[a,i] G[b,j], reduced.

    ``_check_exact`` runs on the call, before any of N is built, and bounds
    every partial sum below 2^53.  Each slice is then summed in float64
    through BLAS, from the K x K counts N[k] that ``ctx.n_tensor(k)`` builds
    when the slice is asked for, never all of N, so each partial sum is an
    exact integer and the rounded slice equals the integer result entry by
    entry.
    """
    _check_exact(ctx, F, G)
    K, phi = ctx.K, ctx.phi
    a, b = len(F), len(G)
    f_cols = F.transpose(1, 2, 0).reshape(K, phi * a).astype(np.float64)  # [i, (c, a)]
    # g_mul[(b, e), (j, c)]: coordinate e of zeta^c * G[b, j]
    g_mul = np.einsum("bjd,cde->bejc", G, ctx.reduction).reshape(b * phi, K * phi).astype(np.float64)

    def slices() -> Iterator[np.ndarray]:
        for k in range(K):
            t = (ctx.n_tensor(k).T.astype(np.float64) @ f_cols).reshape(K * phi, a)  # [(j, c), a]
            yield np.rint(g_mul @ t).astype(np.int64).reshape(b, phi, a).transpose(2, 0, 1)

    return slices()


def _cyc_mul_matrix(vec: np.ndarray, reduction: np.ndarray) -> np.ndarray:
    """phi x phi integer matrix of multiplication by the cyclotomic vec."""
    return np.einsum("c,cde->de", vec, reduction)


def _check_int64(bound: int, what: str, q: int) -> None:
    """Raise BudgetExceeded unless ``bound``, an a-priori bound on the sum of
    the absolute values of the terms behind every entry of an int64 step,
    stays below 2^62, so that every partial sum of the step fits in int64."""
    if bound >= INT64_LIMIT:
        raise BudgetExceeded(f"{what} bound {bound} reaches 2^62 at q={q}")


def projection_bytes(K: int, phi: int, irreps: int) -> int:
    """The bytes ``build_I_pis`` holds for ``irreps`` irreps: the int64
    projections, K x K x phi for each irrep, and as much again for the
    echelon rows or the basis of the irrep being reduced, each at most K
    vectors of K x phi."""
    return (irreps + 1) * K * K * phi * 8


def build_I_pis(irreps: list[GL2Irrep], q: int) -> list[list[GroupFunction]]:
    """A basis of I_pi(G') for each pi of ``irreps``, in their order, obtained
    by projecting H-orbit indicator sums.

    One pass over the orbit representatives x_k builds each pair-count slice
    once, never all of them, and projects every irrep from it in one float64
    product through BLAS: the slice's (K, nc^2) counts times the
    (nc^2, irreps * phi) stack of the irreps' class-pair products, rounded
    back to int64.  Each irrep's guard bounds every partial sum of its
    entries below 2^53, so the rounded product is the integer one; the
    guards run, and the projections' bytes are checked, before any slice is
    built.  Then a maximal linearly independent subset of each irrep's
    projections over Q(zeta_rs) is selected by exact elimination.
    """
    if not irreps:
        return []
    ctx = pair_context(q)
    K, nc, phi = ctx.K, len(ctx.classes), ctx.phi
    pair_products = []
    for pi in irreps:
        # xi without the [G':H] scale; scaling does not change spans or products
        xi = _xi_classes(pi, ctx)
        # every projection entry sums n^2 pair products, each a sum of terms
        # bounded by max|xi|^2 * reduction_mass
        max_xi = int(np.abs(xi).max())
        _check_float64(ctx.n**2 * max_xi * max_xi * ctx.reduction_mass, "projection", q)
        # products xi(y) xi(z) for all class pairs, reduced to the power basis
        pair_products.append(np.einsum("ac,bd,cde->abe", xi, xi, ctx.reduction).reshape(nc * nc, phi))
    m = len(irreps)
    require_budget(projection_bytes(K, phi, m), f"the projections of {m} irreps over GL2({q}) x GL2({q})")
    products = np.concatenate(pair_products, axis=1).astype(np.float64)  # [(cy, cz), (pi, e)]
    # C[k, j, :] of each pi = sum over class pairs of count[k] * product of pi
    projections = [np.empty((K, K, phi), dtype=np.int64) for _ in irreps]
    for k in range(K):
        counts = ctx.pair_count(k).reshape(K, nc * nc).astype(np.float64)
        rows = np.rint(counts @ products).astype(np.int64).reshape(K, m, phi)
        for i, C in enumerate(projections):
            C[k] = rows[:, i]
    # each irrep's projections are dropped once its basis is taken from them
    bases = []
    while projections:
        C = projections.pop(0)
        bases.append([GroupFunction(ctx, C[:, j, :], ctx.n2 * ctx.n**2) for j in _independent_columns(ctx, C)])
    return bases


def build_I_pi(pi: GL2Irrep, q: int) -> list[GroupFunction]:
    """A basis of I_pi(G'): the one-irrep pass of ``build_I_pis``."""
    return build_I_pis([pi], q)[0]


def _content_reduced(v: np.ndarray) -> np.ndarray:
    g = int(np.gcd.reduce(v, axis=None))
    return v // g if g > 1 else v


def _independent_columns(ctx: PairGroupContext, projections: np.ndarray) -> list[int]:
    """Indices j whose projected columns form a basis of the column span.

    Exact echelon over Q(zeta_rs) on int64 vectors: rows are kept
    content-reduced, and a column v is cleared at pivot p of an echelon row
    by v <- v * piv - row * v[p], with piv = row[p], each product a small
    integer matrix product.  Before each such step BudgetExceeded is
    raised, ahead of any product, unless

        (max|v| * max|piv| + max|row| * max|v[p]|) * reduction_mass < 2^62,

    which bounds every partial sum of the step.  At q <= 3 no entry passes
    4 800 (W:0,1 at q = 3, about 12.2 bits).

    The rows are kept in order of their pivots, and the next row to reduce
    by is found in one lookup: the first row at or past the last step whose
    pivot entry of v is nonzero.  A step at pivot p leaves v's zeros before
    p where they were, since every row is zero before its pivot and
    multiplying by piv != 0 maps nonzero entries to nonzero ones, so the
    rows the lookup passes over are the ones a row-by-row test would skip.
    """
    red = ctx.reduction
    # (row, pivot_val, max|row|, max|pivot_val|), in the order of pivots
    echelon: list[tuple[np.ndarray, np.ndarray, int, int]] = []
    pivots = np.empty(0, dtype=np.intp)
    chosen = []
    for j in range(projections.shape[1]):
        v = projections[:, j, :]
        at = 0
        while True:
            hits = np.flatnonzero(v[pivots[at:]].any(axis=1))
            if not hits.size:
                break
            at += int(hits[0])
            row, piv, max_row, max_piv = echelon[at]
            coeff = v[pivots[at]].copy()
            bound = (int(np.abs(v).max()) * max_piv + max_row * int(np.abs(coeff).max())) * ctx.reduction_mass
            _check_int64(bound, "echelon step", ctx.q)
            v = _content_reduced(v @ _cyc_mul_matrix(piv, red) - row @ _cyc_mul_matrix(coeff, red))
            at += 1
        nz = np.flatnonzero(v.any(axis=1))
        if not nz.size:
            continue
        p = int(nz[0])
        v = _content_reduced(v)
        at = int(np.searchsorted(pivots, p))
        pivots = np.insert(pivots, at, p)
        echelon.insert(at, (v, v[p].copy(), int(np.abs(v).max()), int(np.abs(v[p]).max())))
        chosen.append(j)
    return chosen


def commutativity_check(basis: list[GroupFunction]) -> bool:
    """Whether f * g == g * f for every pair from the basis, exactly.

    f_a * f_b and f_b * f_a share the denominator den_a den_b |G'|, so
    comparing integer parts is exact.  The products of the stacked basis
    with itself are read one orbit slice at a time, and the answer is
    False at the first slice that is not symmetric in its two basis axes:
    at q = 3 that is the second slice for V:0 and W:0,1, while a
    commutative algebra such as X:1's reads all K slices.  Only the slices
    read are built, each with its N[k].  The exactness guard runs before
    the first slice.
    """
    if not basis:
        return True
    ctx = basis[0].ctx
    for f in basis:
        if f.ctx is not ctx:
            raise MismatchedGroup("basis functions live on different groups")
    B = np.stack([f.coords for f in basis])
    return all(np.array_equal(s, s.swapaxes(0, 1)) for s in _product_slices(ctx, B, B))
