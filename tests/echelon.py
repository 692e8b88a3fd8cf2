"""The object-dtype reference of the harmonic echelon: exact elimination on
Python integers, which no bound limits, with no column dropped before it is
eliminated, and the I_pi basis it picks."""

import numpy as np

from gl2rep.harmonic import GroupFunction, _xi_classes, pair_context


def reference_projections(pi, q: int) -> np.ndarray:
    """The (K, K, phi) projections of every orbit indicator, in one einsum
    over the pair-count slices of all K orbits stacked."""
    ctx = pair_context(q)
    xi = _xi_classes(pi, ctx)
    pair_products = np.einsum("ac,bd,cde->abe", xi, xi, ctx.reduction)
    count = np.stack([ctx.pair_count(k) for k in range(ctx.K)])
    return np.einsum("kjab,abe->kje", count, pair_products)


class Chosen(list):
    """The chosen column indices, and ``pivots``: the orbits, rising, at which
    the echelon rows lead."""

    def __init__(self, columns, pivots):
        super().__init__(columns)
        self.pivots = pivots


def reference_columns(ctx, projections: np.ndarray) -> Chosen:
    """The basis columns and the echelon's pivots, by cross-multiplication
    and content reduction on Python integers."""
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
    return Chosen(chosen, [p for p, _, _ in echelon])


def reference_basis(pi, q: int) -> list[GroupFunction]:
    ctx = pair_context(q)
    projections = reference_projections(pi, q)
    return [
        GroupFunction(ctx, projections[:, j, :], ctx.n2 * ctx.n**2)
        for j in reference_columns(ctx, projections)
    ]
