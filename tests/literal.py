"""The references the harmonic tests hold the library to: the convolution
summed element by element from its definition, the functions the tests
convolve, and the idempotency of the projector kernel xi_pi."""

import numpy as np

from gl2rep.errors import MismatchedGroup
from gl2rep.gl2 import GL2Irrep
from gl2rep.harmonic import GroupFunction, PairGroupContext, _check_exact, _xi_classes, convolve, pair_context


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
