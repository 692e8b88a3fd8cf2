"""The object-dtype reference of the harmonic echelon: exact elimination on
Python integers, which no bound limits, and the I_pi basis it picks."""

import numpy as np

from gl2rep.harmonic import GroupFunction, _xi_classes, pair_context


def reference_projections(pi, q: int) -> np.ndarray:
    """The (K, K, phi) projections of every orbit indicator, in one einsum."""
    ctx = pair_context(q)
    xi = _xi_classes(pi, ctx)
    pair_products = np.einsum("ac,bd,cde->abe", xi, xi, ctx.reduction)
    return np.einsum("kjab,abe->kje", ctx.pair_count(), pair_products)


def reference_columns(ctx, projections: np.ndarray) -> list[int]:
    """The basis columns, by cross-multiplication and content reduction on Python integers."""
    red = ctx.reduction.astype(object)
    echelon = []  # (pivot_idx, row, pivot_val)
    chosen = []
    for j in range(projections.shape[1]):
        v = projections[:, j, :].astype(object)
        for p, row, piv in echelon:
            if v[p].any():
                coeff = v[p].copy()
                v = v @ np.einsum("c,cde->de", piv, red) - row @ np.einsum("c,cde->de", coeff, red)
                g = int(np.gcd.reduce(v, axis=None))
                if g > 1:
                    v //= g
        nz = np.flatnonzero(v.any(axis=1))
        if not nz.size:
            continue
        p = int(nz[0])
        g = int(np.gcd.reduce(v, axis=None))
        if g > 1:
            v //= g
        echelon.append((p, v, v[p].copy()))
        chosen.append(j)
        echelon.sort(key=lambda item: item[0])
    return chosen


def reference_basis(pi, q: int) -> list[GroupFunction]:
    ctx = pair_context(q)
    projections = reference_projections(pi, q)
    return [
        GroupFunction(ctx, projections[:, j, :], ctx.n2 * ctx.n**2)
        for j in reference_columns(ctx, projections)
    ]
