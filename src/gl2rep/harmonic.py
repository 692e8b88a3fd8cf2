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
integers.  Convolutions of H-class functions are evaluated through a
precomputed integer tensor

    N[k][i][j] = #{ y in orbit_i : y^-1 x_k in orbit_j }

over the H-conjugation orbits on G', which turns each convolution into
a small bilinear form in integers.  One generator yields the products of
two stacked bases one orbit slice k at a time; ``_products`` stacks all
slices, and ``commutativity_check`` stops at the first slice that is not
symmetric in its two basis axes, since the algebra is commutative iff
every slice is.  Each slice is evaluated in float64 through BLAS, one
int32 slice N[k] cast at a time, and is still exact: every operand is an
integer, and when the absolute values of the terms of each output entry
sum to less than 2^53, every partial sum is an integer that float64
holds exactly, in any summation order, with or without FMA and on any
number of threads.  That sum is at most

    |G'| * max|f| * max|g| * max_e sum_{c,d} |reduction[c, d, e]|,

and a product stack whose bound reaches 2^53 raises BudgetExceeded before
anything is allocated; at q <= 3 the largest bound met is 230 400.

The projections and the echelon that picks a basis from them run on
int64, under the same kind of bound taken from the operands before each
step: a step whose terms could sum to 2^62 raises BudgetExceeded before
any product is formed.  With content reduction the largest entry the
echelon meets at q <= 3 is 4 800, far below it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .cyclotomic import INT64_LIMIT, Cyclotomic, euler_phi, root_coords
from .errors import BudgetExceeded, MismatchedGroup
from .gl2 import GL2Irrep, char_value, class_table, params
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
        elements = group.elements
        self.n = n = len(elements)
        gf = self.tower.gf_q
        add, mul = np.array(gf.add_table), np.array(gf.mul_table)
        E = np.array(elements)
        place = q ** np.arange(3, -1, -1)  # entries a, b, c, d as base-q digits of one code
        index_of_code = np.zeros(q**4, dtype=np.int32)
        index_of_code[E @ place] = np.arange(n)
        X = E.reshape(n, 2, 2)
        # terms[i, j, r, k, c] = x_i[r, k] x_j[k, c]; adding over k gives (x_i x_j)[r, c]
        terms = mul[X[:, None, :, :, None], X[None, :, None, :, :]]
        self.mul = index_of_code[add[terms[:, :, :, 0], terms[:, :, :, 1]].reshape(n, n, 4) @ place]
        self.identity = elements.index((1, 0, 0, 1))
        self.inv = np.argmax(self.mul == self.identity, axis=1).astype(np.int32)

        self.classes, _, position, _ = class_table(q)
        self.cls = np.array([position[group.class_of[g]] for g in elements], dtype=np.int32)

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
        self._n_tensor: np.ndarray | None = None
        self._pair_count: np.ndarray | None = None

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

    def n_tensor(self) -> np.ndarray:
        """N[k, i, j] = #{y in O_i with y^-1 x_k in O_j}; drives convolution."""
        if self._n_tensor is None:
            K = self.K
            N = np.empty((K, K, K), dtype=np.int32)
            inv_y = self.split(self.inverse(np.arange(self.n2)))
            row_y = self.orb.astype(np.int64) * K  # the (i, j) cell of y is i * K + j
            for k, xk in enumerate(self.orbit_reps):
                u = self.times(inv_y, xk)  # y^-1 x_k for every y at once
                N[k] = np.bincount(row_y + self.orb.take(u), minlength=K * K).reshape(K, K)
            self._n_tensor = N
        return self._n_tensor

    def pair_count(self) -> np.ndarray:
        """count[k, j, cy, cz] = #{(y,z) in H^2 : y^-1 x_k z^-1 in O_j, classes cy, cz}.

        This is the pi-independent part of the two-sided projection
        xi * 1_{O_j} * xi evaluated at the orbit representatives.
        """
        if self._pair_count is None:
            K, nc = self.K, len(self.classes)
            count = np.empty((K, K, nc, nc), dtype=np.int32)
            inv_h = self.inverse(self.h)
            # the (j, cy, cz) cell of the pair (y, z) is j * nc^2 + cy * nc + cz
            cell_j = self.orb.astype(np.int64) * (nc * nc)
            cls_yz = self.cls[:, None].astype(np.int64) * nc + self.cls[None, :]
            for k, xk in enumerate(self.orbit_reps):
                u = self.times(self.times(inv_h, xk)[:, None], inv_h[None, :])  # y^-1 x_k z^-1
                count[k] = np.bincount((cell_j.take(u) + cls_yz).ravel(), minlength=K * nc * nc).reshape(K, nc, nc)
            self._pair_count = count
        return self._pair_count


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


def delta_identity(ctx: PairGroupContext, scale: int = 1) -> GroupFunction:
    """scale * (indicator of the identity of G')."""
    coords = np.zeros((ctx.K, ctx.phi), dtype=np.int64)
    coords[ctx.orb[ctx.h[ctx.identity]], 0] = scale
    return GroupFunction(ctx, coords)


def orbit_indicator(ctx: PairGroupContext, k: int) -> GroupFunction:
    coords = np.zeros((ctx.K, ctx.phi), dtype=np.int64)
    coords[k, 0] = 1
    return GroupFunction(ctx, coords)


def _xi_classes(pi: GL2Irrep, ctx: PairGroupContext) -> np.ndarray:
    """dim(pi) conj(chi_pi) on each class of H, as (classes, phi) coordinates."""
    return np.array(
        [(char_value(pi, c, ctx.pr).conj() * pi.dim()).coords_at(ctx.rs) for c in ctx.classes],
        dtype=np.int64,
    )


def xi_function(pi: GL2Irrep, ctx: PairGroupContext) -> GroupFunction:
    """The idempotent projector kernel [G':H] dim(pi) conj(chi_pi) on diag(H)."""
    coords = np.zeros((ctx.K, ctx.phi), dtype=np.int64)
    coords[ctx.orb[ctx.h]] = ctx.n * _xi_classes(pi, ctx)[ctx.cls]  # [G':H] = |G|
    return GroupFunction(ctx, coords)


def _check_exact(ctx: PairGroupContext, f: np.ndarray, g: np.ndarray) -> None:
    """Raise BudgetExceeded unless, for every product of an entry of f with
    an entry of g, the absolute values of the terms of each coordinate sum
    to less than 2^53, so float64 (and int64) sums of them are exact."""
    max_f = int(np.abs(f).max() or 1)
    max_g = int(np.abs(g).max() or 1)
    bound = ctx.n2 * max_f * max_g * ctx.reduction_mass
    if bound >= 2**53:
        raise BudgetExceeded(f"convolution bound {bound} reaches 2^53 at q={ctx.q}")


def _product_slices(ctx: PairGroupContext, F: np.ndarray, G: np.ndarray) -> Iterator[np.ndarray]:
    """Integer parts of every f * g at the orbit reps, for f in the stack
    F (a, K, phi) and g in G (b, K, phi), one orbit k at a time: the k-th
    item is the (a, b, phi) int64 slice

        P[a, b, k] = sum_{i,j} N[k,i,j] F[a,i] G[b,j], reduced.

    ``_check_exact`` runs on the call, before N is read, and bounds every
    partial sum below 2^53.  Each slice is then summed in float64 through
    BLAS, from one K x K slice of the int32 N cast when the slice is asked
    for, never a copy of all of N, so each partial sum is an exact integer
    and the rounded slice equals the integer result entry by entry.
    """
    _check_exact(ctx, F, G)
    N = ctx.n_tensor()
    K, phi = ctx.K, ctx.phi
    a, b = len(F), len(G)
    f_cols = F.transpose(1, 2, 0).reshape(K, phi * a).astype(np.float64)  # [i, (c, a)]
    # g_mul[(b, e), (j, c)]: coordinate e of zeta^c * G[b, j]
    g_mul = np.einsum("bjd,cde->bejc", G, ctx.reduction).reshape(b * phi, K * phi).astype(np.float64)

    def slices() -> Iterator[np.ndarray]:
        for k in range(K):
            t = (N[k].T.astype(np.float64) @ f_cols).reshape(K * phi, a)  # [(j, c), a]
            yield np.rint(g_mul @ t).astype(np.int64).reshape(b, phi, a).transpose(2, 0, 1)

    return slices()


def _products(ctx: PairGroupContext, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Every slice of ``_product_slices`` stacked: the (a, b, K, phi) int64
    array P of the integer parts of f * g for f in F and g in G."""
    return np.stack(list(_product_slices(ctx, F, G)), axis=2)


def convolve(f1: GroupFunction, f2: GroupFunction) -> GroupFunction:
    """Exact convolution (f1 * f2)(x) = (1/|G'|) sum_y f1(y) f2(y^-1 x)."""
    if f1.ctx is not f2.ctx:
        raise MismatchedGroup("functions live on different groups")
    ctx = f1.ctx
    coords = _products(ctx, f1.coords[None], f2.coords[None])[0, 0]
    return GroupFunction(ctx, coords, f1.den * f2.den * ctx.n2)


def convolve_literal(f1: GroupFunction, f2: GroupFunction) -> GroupFunction:
    """The definition, summed element by element; cross-checks the tensor route."""
    if f1.ctx is not f2.ctx:
        raise MismatchedGroup("functions live on different groups")
    ctx = f1.ctx
    _check_exact(ctx, f1.coords, f2.coords)
    inv_y = ctx.inverse(np.arange(ctx.n2))
    f_y = f1.coords[ctx.orb]  # f1(y) for every y in G'
    coords = np.zeros((ctx.K, ctx.phi), dtype=np.int64)
    for k, xk in enumerate(ctx.orbit_reps):
        g_u = f2.coords[ctx.orb[ctx.times(inv_y, xk)]]  # f2(y^-1 x_k) for every y at once
        coords[k] = np.einsum("cd,cde->e", f_y.T @ g_u, ctx.reduction)
    return GroupFunction(ctx, coords, f1.den * f2.den * ctx.n2)


def _cyc_mul_matrix(vec: np.ndarray, reduction: np.ndarray) -> np.ndarray:
    """phi x phi integer matrix of multiplication by the cyclotomic vec."""
    return np.einsum("c,cde->de", vec, reduction)


def _check_int64(bound: int, what: str, q: int) -> None:
    """Raise BudgetExceeded unless ``bound``, an a-priori bound on the sum of
    the absolute values of the terms behind every entry of an int64 step,
    stays below 2^62, so that every partial sum of the step fits in int64."""
    if bound >= INT64_LIMIT:
        raise BudgetExceeded(f"{what} bound {bound} reaches 2^62 at q={q}")


def build_I_pi(pi: GL2Irrep, q: int) -> list[GroupFunction]:
    """A basis of I_pi(G') obtained by projecting H-orbit indicator sums.

    The projections of all K orbit indicators come from the pi-independent
    pair-count tensor, one int64 matmul per orbit representative; a maximal
    linearly independent subset over Q(zeta_rs) is selected by exact
    elimination.
    """
    ctx = pair_context(q)
    count = ctx.pair_count()
    K, nc, phi = ctx.K, len(ctx.classes), ctx.phi
    # xi without the [G':H] scale; scaling does not change spans or products
    xi = _xi_classes(pi, ctx)
    # every projection entry sums n^2 pair products, each a sum of terms
    # bounded by max|xi|^2 * reduction_mass
    max_xi = int(np.abs(xi).max())
    _check_int64(ctx.n**2 * max_xi * max_xi * ctx.reduction_mass, "projection", q)
    # products xi(y) xi(z) for all class pairs, reduced to the power basis
    pair_products = np.einsum("ac,bd,cde->abe", xi, xi, ctx.reduction).reshape(nc * nc, phi)
    # C[k, j, :] = sum over class pairs of count * product
    projections = np.empty((K, K, phi), dtype=np.int64)
    for k in range(K):
        projections[k] = count[k].reshape(K, nc * nc) @ pair_products
    return [
        GroupFunction(ctx, projections[:, j, :], ctx.n2 * ctx.n**2)
        for j in _independent_columns(ctx, projections)
    ]


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
    """
    red = ctx.reduction
    # (pivot_idx, row, pivot_val, max|row|, max|pivot_val|)
    echelon: list[tuple[int, np.ndarray, np.ndarray, int, int]] = []
    chosen = []
    for j in range(projections.shape[1]):
        v = projections[:, j, :]
        for p, row, piv, max_row, max_piv in echelon:
            if v[p].any():
                coeff = v[p].copy()
                bound = (int(np.abs(v).max()) * max_piv + max_row * int(np.abs(coeff).max())) * ctx.reduction_mass
                _check_int64(bound, "echelon step", ctx.q)
                v = _content_reduced(v @ _cyc_mul_matrix(piv, red) - row @ _cyc_mul_matrix(coeff, red))
        nz = np.flatnonzero(v.any(axis=1))
        if not nz.size:
            continue
        p = int(nz[0])
        v = _content_reduced(v)
        echelon.append((p, v, v[p].copy(), int(np.abs(v).max()), int(np.abs(v[p]).max())))
        chosen.append(j)
        echelon.sort(key=lambda item: item[0])
    return chosen


def commutativity_check(basis: list[GroupFunction]) -> bool:
    """Whether f * g == g * f for every pair from the basis, exactly.

    f_a * f_b and f_b * f_a share the denominator den_a den_b |G'|, so
    comparing integer parts is exact.  The products of the stacked basis
    with itself are read one orbit slice at a time, and the answer is
    False at the first slice that is not symmetric in its two basis axes:
    at q = 3 that is the second slice for V:0 and W:0,1, while a
    commutative algebra such as X:1's reads all K slices.  The exactness
    guard runs before the first slice.
    """
    if not basis:
        return True
    ctx = basis[0].ctx
    for f in basis:
        if f.ctx is not ctx:
            raise MismatchedGroup("basis functions live on different groups")
    B = np.stack([f.coords for f in basis])
    return all(np.array_equal(s, s.swapaxes(0, 1)) for s in _product_slices(ctx, B, B))


def xi_idempotent(pi: GL2Irrep, q: int) -> bool:
    """Check xi_pi * xi_pi == xi_pi under the 1/|G'| normalisation."""
    ctx = pair_context(q)
    xi = xi_function(pi, ctx)
    return convolve(xi, xi) == xi
