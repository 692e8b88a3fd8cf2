"""References written from their definitions: the X orbit representatives
of the canonical irrep order, the 2x2 matrix product over a field, and for
the harmonic tests the convolution summed element by element, the
convolution through the library's product kernel that the tests compare
with it, the functions the tests convolve, and the idempotency of the
projector kernel xi_pi."""

import numpy as np

from gl2rep.errors import MismatchedGroup
from gl2rep.gl2 import GL2Irrep, GroupParams
from gl2rep.harmonic import (
    GroupFunction,
    PairGroupContext,
    _check_exact,
    _product_slices,
    _xi_classes,
    pair_context,
)


def x_orbit_reps(pr: GroupParams) -> list[int]:
    """The canonical members n < qn mod rs of the X (c4) orbits {n, qn} in Z_rs, n != 0 mod s, rising."""
    return [n for n in range(pr.rs) if n % pr.s and n < pr.q * n % pr.rs]


def matrix_product(gf, x, y):
    """The product of two 2x2 matrices (a, b, c, d) over the field gf, entry by entry."""
    (a, b, c, d), (e, f, g, h) = x, y
    return (
        gf.add(gf.mul(a, e), gf.mul(b, g)),
        gf.add(gf.mul(a, f), gf.mul(b, h)),
        gf.add(gf.mul(c, e), gf.mul(d, g)),
        gf.add(gf.mul(c, f), gf.mul(d, h)),
    )


def products(ctx: PairGroupContext, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Every slice of ``_product_slices`` stacked: the (a, b, K, phi) int64
    array P of the integer parts of f * g for f in F and g in G."""
    return np.stack(list(_product_slices(ctx, F, G)), axis=2)


def convolve(f1: GroupFunction, f2: GroupFunction) -> GroupFunction:
    """Exact convolution (f1 * f2)(x) = (1/|G'|) sum_y f1(y) f2(y^-1 x),
    through the product kernel."""
    if f1.ctx is not f2.ctx:
        raise MismatchedGroup("functions live on different groups")
    ctx = f1.ctx
    coords = products(ctx, f1.coords[None], f2.coords[None])[0, 0]
    return GroupFunction(ctx, coords, f1.den * f2.den * ctx.n2)


def delta_identity(ctx: PairGroupContext, scale: int = 1) -> GroupFunction:
    """scale * (indicator of the identity of G')."""
    coords = np.zeros((ctx.K, ctx.phi), dtype=np.int64)
    coords[ctx.orb[ctx.h[ctx.identity]], 0] = scale
    return GroupFunction(ctx, coords)


def orbit_indicator(ctx: PairGroupContext, k: int) -> GroupFunction:
    coords = np.zeros((ctx.K, ctx.phi), dtype=np.int64)
    coords[k, 0] = 1
    return GroupFunction(ctx, coords)


def xi_function(pi: GL2Irrep, ctx: PairGroupContext) -> GroupFunction:
    """The idempotent projector kernel [G':H] dim(pi) conj(chi_pi) on diag(H)."""
    coords = np.zeros((ctx.K, ctx.phi), dtype=np.int64)
    coords[ctx.orb[ctx.h]] = ctx.n * _xi_classes(pi, ctx)[ctx.cls]  # [G':H] = |G|
    return GroupFunction(ctx, coords)


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


def xi_idempotent(pi: GL2Irrep, q: int) -> bool:
    """Check xi_pi * xi_pi == xi_pi under the 1/|G'| normalisation."""
    ctx = pair_context(q)
    xi = xi_function(pi, ctx)
    return convolve(xi, xi) == xi
