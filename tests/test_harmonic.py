"""Convolution algebras I_pi(G x G): projections, dimensions, commutativity."""

import math
import tracemalloc

import numpy as np
import pytest
from echelon import reference_basis, reference_columns, reference_projections
from literal import (
    convolve,
    convolve_literal,
    delta_identity,
    matrix_product,
    orbit_indicator,
    products,
    xi_function,
    xi_idempotent,
)

from gl2rep import harmonic
from gl2rep.errors import BudgetExceeded, MismatchedGroup
from gl2rep.gl2 import GL2Irrep, enumerate_classes, enumerate_irreps, params
from gl2rep.harmonic import (
    GroupFunction,
    _check_exact,
    _independent_columns,
    _product_slices,
    build_I_pi,
    build_I_pis,
    commutativity_check,
    pair_context,
    projection_bytes,
)
from gl2rep.cyclotomic import TABLE_BYTES_LIMIT, reduce_root_sum
from gl2rep.oracle import _context, classify_element
from gl2rep.tensor import ind_decompose, is_gelfand_triple_product


def _as_cyclotomic(ctx, coords):
    weights = [0] * ctx.rs
    for e, c in enumerate(coords):
        weights[e] += int(c)
    return reduce_root_sum(ctx.rs, weights)


def _inverse_times(ctx, y, x):
    """The flat index of y^-1 x in the pair group, one factor at a time."""
    n = ctx.n
    return int(ctx.mul[ctx.inv[y // n], x // n]) * n + int(ctx.mul[ctx.inv[y % n], x % n])


def test_budget():
    with pytest.raises(BudgetExceeded):
        pair_context(4)


@pytest.mark.parametrize("q", [2, 3])
def test_pair_context_mul_is_the_matrix_product(q):
    # entry by entry, so the opposite group (a transposed table) fails
    ctx = pair_context(q)
    gf = ctx.tower.gf_q
    elements = [tuple(g) for g in _context(q).elements.tolist()]
    index = {g: i for i, g in enumerate(elements)}
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            assert ctx.mul[i, j] == index[matrix_product(gf, x, y)]


@pytest.mark.parametrize("q", [2, 3])
def test_the_group_law_is_the_pair_of_matrix_products(q):
    # every pair (x, y) of G' at q = 2, a seeded sample of 2 000 at q = 3;
    # an element of G' is the pair (a, b) of G's elements at a * n + b
    ctx = pair_context(q)
    gf, n = ctx.tower.gf_q, ctx.n
    elements = [tuple(g) for g in _context(q).elements.tolist()]
    index = {g: i for i, g in enumerate(elements)}
    if q == 2:
        xs, ys = np.divmod(np.arange(ctx.n2**2), ctx.n2)
    else:
        xs, ys = np.random.default_rng(22).integers(0, ctx.n2, size=(2, 2000))
    products = ctx.times(xs, ys)
    for x, y, xy in zip(xs.tolist(), ys.tolist(), products.tolist()):
        (a, b), (c, d) = divmod(x, n), divmod(y, n)
        ac = index[matrix_product(gf, elements[a], elements[c])]
        bd = index[matrix_product(gf, elements[b], elements[d])]
        assert xy == ac * n + bd, (x, y)
    assert np.all(ctx.times(ctx.inverse(xs), xs) == ctx.h[ctx.identity])
    assert elements[ctx.identity] == (1, 0, 0, 1)


@pytest.mark.parametrize("q", [2, 3])
def test_orbits_are_the_h_conjugacy_classes_in_order_of_least_member(q):
    # the reference walks G' in order and conjugates each new element by
    # every g, one factor at a time
    ctx = pair_context(q)
    n, mul, inv = ctx.n, ctx.mul.tolist(), ctx.inv.tolist()
    orb, reps = [-1] * ctx.n2, []
    for x in range(ctx.n2):
        if orb[x] < 0:
            a, b = divmod(x, n)
            for g in range(n):
                orb[mul[mul[g][a]][inv[g]] * n + mul[mul[g][b]][inv[g]]] = len(reps)
            reps.append(x)
    assert ctx.orb.dtype == np.int32 and ctx.orb.tolist() == orb
    assert ctx.orbit_reps == reps and ctx.K == len(reps)


@pytest.mark.parametrize("q", [2, 3])
def test_h_and_the_classes_follow_the_oracle(q):
    # H lists (g, g) in the oracle's element order; cls[g] is g's class in canonical order
    ctx = pair_context(q)
    oracle = _context(q)
    classes = enumerate_classes(params(q))
    position = {c: i for i, c in enumerate(classes)}
    assert [divmod(int(x), ctx.n) for x in ctx.h] == [(g, g) for g in range(ctx.n)]
    assert ctx.classes == classes
    elements = [tuple(g) for g in oracle.elements.tolist()]
    assert ctx.cls.tolist() == [position[classify_element(g, oracle.tower)] for g in elements]


def test_delta_scaled_by_group_order_is_the_unit():
    ctx = pair_context(2)
    unit = delta_identity(ctx, ctx.n2)
    f = orbit_indicator(ctx, 5)
    assert convolve(unit, f) == f
    assert convolve(f, unit) == f


def test_tensor_convolution_matches_literal_definition():
    ctx = pair_context(2)
    rng = np.random.default_rng(4)
    for _ in range(3):
        a = GroupFunction(ctx, rng.integers(-3, 4, size=(ctx.K, ctx.phi)).astype(np.int64))
        b = GroupFunction(ctx, rng.integers(-3, 4, size=(ctx.K, ctx.phi)).astype(np.int64))
        assert convolve(a, b) == convolve_literal(a, b)


def test_stacked_products_keep_the_axis_order():
    # stacks of different lengths: a swapped (a, b) axis fails on shape or value
    ctx = pair_context(2)
    rng = np.random.default_rng(11)
    F = rng.integers(-3, 4, size=(2, ctx.K, ctx.phi)).astype(np.int64)
    G = rng.integers(-3, 4, size=(3, ctx.K, ctx.phi)).astype(np.int64)
    P = products(ctx, F, G)
    assert P.shape == (2, 3, ctx.K, ctx.phi)
    for a in range(2):
        for b in range(3):
            literal = convolve_literal(GroupFunction(ctx, F[a]), GroupFunction(ctx, G[b]))
            assert GroupFunction(ctx, P[a, b], ctx.n2) == literal


def test_products_keep_the_operand_order_at_q3():
    # at q = 2 every H-class function commutes (every tensor product of
    # S3's irreps is multiplicity free), so only q = 3 tells f * g from g * f
    ctx = pair_context(3)
    rng = np.random.default_rng(5)
    f, g = (
        GroupFunction(ctx, rng.integers(-2, 3, size=(ctx.K, ctx.phi)).astype(np.int64))
        for _ in range(2)
    )
    fg = convolve(f, g)
    assert fg == convolve_literal(f, g)
    assert fg != convolve(g, f)


def test_the_error_paths_of_functions_and_products():
    two, three = pair_context(2), pair_context(3)
    coords = np.zeros((two.K, two.phi), dtype=np.int64)
    coords[0, 0] = 2
    f = GroupFunction(two, coords, -4)  # content 2 comes out, then the sign moves to the coordinates
    assert f.den == 2 and f.coords[0, 0] == -1 and not f.coords[1:].any()
    assert f.__eq__("f") is NotImplemented and f != "f"
    g = orbit_indicator(three, 0)
    for mixed in (lambda: f == g, lambda: convolve(f, g), lambda: convolve_literal(f, g)):
        with pytest.raises(MismatchedGroup, match="different groups"):
            mixed()
    assert commutativity_check([]) is True
    with pytest.raises(MismatchedGroup, match="different groups"):
        commutativity_check([f, g])


def test_convolution_beyond_int64_raises():
    # one huge coordinate: the a-priori bound passes 2^62 before anything
    # is allocated
    ctx = pair_context(2)
    coords = np.zeros((ctx.K, ctx.phi), dtype=np.int64)
    coords[0, 0] = 2**40
    huge = GroupFunction(ctx, coords)
    assert convolve_literal(orbit_indicator(ctx, 0), orbit_indicator(ctx, 1)).coords.dtype == np.int64
    with pytest.raises(BudgetExceeded):
        convolve(huge, huge)
    with pytest.raises(BudgetExceeded):
        convolve_literal(huge, huge)
    with pytest.raises(MismatchedGroup):
        GroupFunction(ctx, coords[:, :1])


def test_products_are_exact_at_the_edge_of_the_guard():
    # coefficients up to 8e6 at q = 2: the bound |G'| * 8e6^2 * 3 is 6.9e15,
    # within a factor of two of 2^53, and the float64 kernel must still
    # equal the int64 literal sums entry by entry
    ctx = pair_context(2)
    top = 8 * 10**6
    assert ctx.n2 * top * top * ctx.reduction_mass < 2**53 < 2 * ctx.n2 * top * top * ctx.reduction_mass
    rng = np.random.default_rng(13)
    F = rng.integers(-top, top + 1, size=(2, ctx.K, ctx.phi)).astype(np.int64)
    G = rng.integers(-top, top + 1, size=(3, ctx.K, ctx.phi)).astype(np.int64)
    F[0, 0, 0] = G[1, 2, 1] = top
    P = products(ctx, F, G)
    assert np.abs(P).max() > 2**48
    for a in range(2):
        for b in range(3):
            literal = convolve_literal(GroupFunction(ctx, F[a]), GroupFunction(ctx, G[b]))
            assert GroupFunction(ctx, P[a, b], ctx.n2) == literal


def test_guard_uses_the_reduction_mass_not_phi(monkeypatch):
    # at q = 2, zeta^c zeta^d for c, d < phi = 2 puts up to 3 units on one
    # coordinate; with every coefficient at most 1e7 the bound with phi in
    # its place stays below 2^53, the true one does not, and the guard
    # raises before N is built or anything is multiplied, also when the
    # products are read one slice at a time
    ctx = pair_context(2)
    assert (ctx.phi, ctx.reduction_mass) == (2, 3)
    F = np.full((1, ctx.K, ctx.phi), 10**7, dtype=np.int64)
    F[0, 1, 1] -= 1  # content 1, so a GroupFunction keeps the coordinates
    assert ctx.n2 * ctx.phi * 10**14 < 2**53 <= ctx.n2 * ctx.reduction_mass * 10**14
    monkeypatch.setattr(ctx, "n_tensor", lambda k: pytest.fail("N was read before the guard"))
    with pytest.raises(BudgetExceeded):
        _check_exact(ctx, F, F)
    with pytest.raises(BudgetExceeded):
        products(ctx, F, F)
    with pytest.raises(BudgetExceeded):
        _product_slices(ctx, F, F)
    with pytest.raises(BudgetExceeded):
        commutativity_check([GroupFunction(ctx, F[0])])
    with pytest.raises(BudgetExceeded):
        convolve_literal(GroupFunction(ctx, F[0]), GroupFunction(ctx, F[0]))


def test_convolution_of_class_functions_is_a_class_function():
    # values of the convolution are constant on H-orbits: evaluate the
    # literal definition at every element and cross-check exact values
    ctx = pair_context(2)
    rng = np.random.default_rng(8)
    f = GroupFunction(ctx, rng.integers(-2, 3, size=(ctx.K, ctx.phi)).astype(np.int64))
    g = GroupFunction(ctx, rng.integers(-2, 3, size=(ctx.K, ctx.phi)).astype(np.int64))
    conv = convolve(f, g)
    literal_den = f.den * g.den * ctx.n2
    for x in range(ctx.n2):
        acc = np.zeros(ctx.phi, dtype=object)
        for y in range(ctx.n2):
            u = _inverse_times(ctx, y, x)
            acc += np.einsum(
                "c,d,cde->e",
                f.coords[ctx.orb[y]].astype(object),
                g.coords[ctx.orb[u]].astype(object),
                ctx.reduction.astype(object),
            )
        conv_num, conv_den = conv.value(x)
        literal_num = _as_cyclotomic(ctx, acc)
        assert literal_num * conv_den == conv_num * literal_den


@pytest.mark.parametrize("q", [2, 3])
def test_xi_idempotency(q):
    pr = params(q)
    for pi in enumerate_irreps(pr):
        assert xi_idempotent(pi, q)


@pytest.mark.parametrize("q", [2, 3])
def test_dimensions_match_squared_multiplicities(q):
    pr = params(q)
    irreps = enumerate_irreps(pr)
    for pi, basis in zip(irreps, build_I_pis(irreps, q)):
        assert len(basis) == sum(m * m for _, m in ind_decompose(pi, pr))


def test_known_dimensions():
    pr = params(3)
    assert len(build_I_pi(GL2Irrep.U(pr, 0), 3)) == 8  # q^2 - 1
    assert len(build_I_pi(GL2Irrep.X(pr, 1), 3)) == 14  # (q-1)(q^2-q+1)
    pr2 = params(2)
    assert len(build_I_pi(GL2Irrep.U(pr2, 0), 2)) == 3


@pytest.mark.parametrize("q", [2, 3])
def test_commutativity_agrees_with_multiplicity_freeness(q):
    pr = params(q)
    irreps = enumerate_irreps(pr)
    for pi, basis in zip(irreps, build_I_pis(irreps, q)):
        assert commutativity_check(basis) == is_gelfand_triple_product(pi, pr)


def test_commutativity_false_for_steinberg_q3():
    basis = build_I_pi(GL2Irrep.V(params(3), 0), 3)
    assert len(basis) == 22
    assert not commutativity_check(basis)


def test_centrality_inside_L_pi_at_q2():
    # for a commutative I_pi, its elements commute with all of
    # L_pi = xi * L(G') * xi; spanning functions of L_pi are projected deltas
    ctx = pair_context(2)
    pr = params(2)
    reduction = ctx.reduction.astype(object)

    def dense_convolve(a, b):
        out = np.zeros((ctx.n2, ctx.phi), dtype=object)
        for x in range(ctx.n2):
            acc = np.zeros(ctx.phi, dtype=object)
            for y in range(ctx.n2):
                u = _inverse_times(ctx, y, x)
                acc += np.einsum("c,d,cde->e", a[y], b[u], reduction)
            out[x] = acc
        return out

    for pi in enumerate_irreps(pr):
        if not is_gelfand_triple_product(pi, pr):
            continue
        xi = xi_function(pi, ctx)
        xi_dense = np.array([xi.coords[ctx.orb[x]] for x in range(ctx.n2)], dtype=object)
        basis = build_I_pi(pi, 2)
        f_dense = np.array(
            [basis[0].coords[ctx.orb[x]] for x in range(ctx.n2)], dtype=object
        )
        for x0 in range(0, ctx.n2, 7):
            delta = np.zeros((ctx.n2, ctx.phi), dtype=object)
            delta[x0, 0] = 1
            g_dense = dense_convolve(dense_convolve(xi_dense, delta), xi_dense)
            left = dense_convolve(f_dense, g_dense)
            right = dense_convolve(g_dense, f_dense)
            assert np.array_equal(left, right), pi.label()


@pytest.mark.parametrize("q", [2, 3])
def test_n_tensor_counts_elements(q):
    ctx = pair_context(q)
    ks = range(ctx.K) if q == 2 else (0, 1, 17, 80, ctx.K - 1)
    for k in ks:
        N_k = ctx.n_tensor(k)
        assert N_k.shape == (ctx.K, ctx.K), k
        want = np.zeros((ctx.K, ctx.K), dtype=np.int64)
        for y in range(ctx.n2):
            want[ctx.orb[y], ctx.orb[_inverse_times(ctx, y, ctx.orbit_reps[k])]] += 1
        assert np.array_equal(N_k, want), k


def test_commutativity_check_keeps_no_dense_n():
    # at q = 3 all K^3 int32 counts of N take 10 061 824 bytes; the check
    # builds one K x K slice at a time and keeps none, so reading all K
    # slices for X:1's commutative algebra stays well below that
    ctx = pair_context(3)
    ctx.pair_count(0)
    basis = build_I_pi(GL2Irrep.X(params(3), 1), 3)
    tracemalloc.start()
    try:
        assert commutativity_check(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.K == 136 and peak < ctx.K**3 * 4, peak


@pytest.mark.parametrize("q", [2, 3])
def test_pair_count_counts_element_pairs(q):
    # y and z run over H = diag(G); y^-1 x_k z^-1 is taken one factor at a time
    ctx = pair_context(q)
    nc = len(ctx.classes)
    ks = range(ctx.K) if q == 2 else (0, 1, 17, 80, ctx.K - 1)
    for k in ks:
        count_k = ctx.pair_count(k)
        assert count_k.dtype == np.int64 and count_k.shape == (ctx.K, nc, nc), k
        ka, kb = divmod(ctx.orbit_reps[k], ctx.n)
        want = np.zeros((ctx.K, nc, nc), dtype=np.int64)
        for y in range(ctx.n):
            for z in range(ctx.n):
                ua = ctx.mul[ctx.mul[ctx.inv[y], ka], ctx.inv[z]]
                ub = ctx.mul[ctx.mul[ctx.inv[y], kb], ctx.inv[z]]
                want[ctx.orb[ua * ctx.n + ub], ctx.cls[y], ctx.cls[z]] += 1
        assert np.array_equal(count_k, want), k


# the harmonic workload's q = 3 irreps, in the order the suite meets them
WORKLOAD_LABELS = ("V:0", "W:0,1", "X:1")


@pytest.mark.parametrize("q", [2, 3])
def test_one_pass_gives_every_irrep_its_own_basis(q):
    irreps = enumerate_irreps(params(q))
    singles = {pi.label(): build_I_pi(pi, q) for pi in irreps}
    subset = [pi for pi in irreps if pi.label() in WORKLOAD_LABELS] if q == 3 else irreps[::-1]
    for order in (irreps, subset):
        bases = build_I_pis(order, q)
        assert len(bases) == len(order)
        for pi, basis in zip(order, bases):
            assert basis == singles[pi.label()], pi.label()
    assert [pi.label() for pi in subset] == (list(WORKLOAD_LABELS) if q == 3 else ["X:1", "V:0", "U:0"])
    assert build_I_pis([], q) == []


def test_one_pass_holds_no_pair_count_tensor():
    # the (K, K, nc, nc) int32 counts took K^2 nc^2 * 4 = 4 734 976 bytes at
    # q = 3; the pass builds one K x nc x nc slice at a time, and what it
    # holds stays within the estimate that its budget check reads
    ctx = pair_context(3)
    nc = len(ctx.classes)
    irreps = [pi for pi in enumerate_irreps(params(3)) if pi.label() in WORKLOAD_LABELS]
    build_I_pis(irreps[:1], 3)
    tracemalloc.start()
    try:
        bases = build_I_pis(irreps, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(b) for b in bases] == [22, 34, 14]
    assert (ctx.K, nc) == (136, 8) and peak < ctx.K**2 * nc**2 * 4, peak
    assert peak <= projection_bytes(ctx.K, ctx.phi, len(irreps)), peak


def test_the_projection_budget_at_q4():
    # at q = 4, K = 693 and phi = 8: every one of the 15 irreps' projections
    # in one pass, with room for one echelon, is about 492 MB, under the limit
    assert projection_bytes(693, 8, 15) == 16 * 693**2 * 8 * 8 == 491_774_976
    assert projection_bytes(693, 8, 15) < TABLE_BYTES_LIMIT


def test_the_projection_guards_run_before_any_slice(monkeypatch):
    # a pass over several irreps checks each irrep's float64 bound and the
    # projections' bytes before it builds the first pair-count slice
    ctx = pair_context(3)
    irreps = enumerate_irreps(params(3))
    monkeypatch.setattr(ctx, "pair_count", lambda k: pytest.fail("a slice was built before the guards"))
    monkeypatch.setattr(harmonic, "projection_bytes", lambda *_: TABLE_BYTES_LIMIT + 1)
    with pytest.raises(BudgetExceeded, match="projections of 8 irreps"):
        build_I_pis(irreps, 3)
    seen = []
    monkeypatch.setattr(harmonic, "_check_float64", lambda bound, what, q: seen.append(what))
    with pytest.raises(BudgetExceeded):
        build_I_pis(irreps, 3)
    assert seen == ["projection"] * len(irreps)


# the largest max|xi| a projection at q = 2 may meet: n^2 * 3 * XI_TOP^2 < 2^53
XI_TOP = math.isqrt((2**53 - 1) // (36 * 3))


def _edge_xi(top):
    """xi on GL2(2)'s three classes with max|xi| = top, whose largest
    projection entry is odd and within a factor 2 of 2^52 at top = XI_TOP."""
    return np.array([(top, 1 - top), (top, -top), (top, -top)], dtype=np.int64)


def test_projections_just_under_the_float64_guard_are_exact(monkeypatch):
    # the largest projection entry passes 2^51 and is odd, so a kernel that
    # kept fewer bits than float64, or a guard that let max|xi| grow by a
    # factor 2, would round it; every entry must equal the object-dtype sums
    ctx = pair_context(2)
    assert (ctx.n, len(ctx.classes), ctx.reduction_mass) == (6, 3, 3)
    assert ctx.n**2 * 3 * XI_TOP**2 < 2**53 <= ctx.n**2 * 3 * (XI_TOP + 1) ** 2
    xi = _edge_xi(XI_TOP)
    monkeypatch.setattr(harmonic, "_xi_classes", lambda pi, ctx: xi)
    seen = []
    monkeypatch.setattr(harmonic, "_independent_columns", lambda ctx, C: seen.append(C.copy()) or [])
    assert build_I_pis([GL2Irrep.U(params(2), 0)], 2) == [[]]
    pair_products = np.einsum("ac,bd,cde->abe", xi.astype(object), xi.astype(object), ctx.reduction.astype(object))
    count = np.stack([ctx.pair_count(k) for k in range(ctx.K)]).astype(object)
    want = np.einsum("kjab,abe->kje", count, pair_products)
    (got,) = seen
    assert got.dtype == np.int64 and np.array_equal(got.astype(object), want)
    top = max(abs(int(x)) for x in want.ravel())
    assert 2**51 < top < 2**52 and top % 2 == 1


@pytest.mark.parametrize("top", [XI_TOP + 1, 2**31 - 1])
def test_projection_guard_raises_before_any_slice(monkeypatch, top):
    ctx = pair_context(2)
    monkeypatch.setattr(harmonic, "_xi_classes", lambda pi, ctx: _edge_xi(top))
    monkeypatch.setattr(ctx, "pair_count", lambda k: pytest.fail("a slice was built past the guard"))
    with pytest.raises(BudgetExceeded, match="projection bound .* reaches 2\\^53"):
        build_I_pis([GL2Irrep.U(params(2), 0)], 2)


@pytest.mark.parametrize("q", [2, 3])
def test_echelon_matches_the_object_reference(q):
    ctx = pair_context(q)
    for pi in enumerate_irreps(params(q)):
        projections = reference_projections(pi, q)
        assert _independent_columns(ctx, projections) == reference_columns(ctx, projections), pi.label()
        assert build_I_pi(pi, q) == reference_basis(pi, q), pi.label()


# the echelon steps each irrep's basis takes, as the row-by-row pivot test took them
ECHELON_STEPS = {
    2: {"U:0": 8, "V:0": 6, "X:1": 8},
    3: {"U:0": 128, "U:1": 128, "V:0": 239, "V:1": 239, "W:0,1": 184, "X:1": 162, "X:2": 116, "X:5": 162},
}


@pytest.mark.parametrize("q", [2, 3])
def test_the_echelon_takes_the_pinned_steps(monkeypatch, q):
    # each step forms two multiplication matrices, so their count per
    # irrep is twice its steps; a lookup that reduced by a row the
    # row-by-row test skips, or skipped one it reduced by, moves a count
    calls = []
    multiply, columns = harmonic._cyc_mul_matrix, harmonic._independent_columns

    def counted_multiply(*args):
        calls[-1] += 1
        return multiply(*args)

    def counted_columns(ctx, C):
        calls.append(0)
        return columns(ctx, C)

    monkeypatch.setattr(harmonic, "_cyc_mul_matrix", counted_multiply)
    monkeypatch.setattr(harmonic, "_independent_columns", counted_columns)
    irreps = enumerate_irreps(params(q))
    build_I_pis(irreps, q)
    assert all(n % 2 == 0 for n in calls), calls
    assert {pi.label(): n // 2 for pi, n in zip(irreps, calls)} == ECHELON_STEPS[q]


# the largest pivot entries a step at q = 2 may meet: 2 * 3 * TOP^2 < 2^62
TOP = math.isqrt((2**62 - 1) // 6)


def _edge_projections(ctx, top):
    """Three columns at q = 2 whose one elimination step sits at the guard.

    Column 0 is the echelon row, pivot (top, -top) at orbit 0; column 1
    meets it with coefficient (-top, top), and the step's orbit-2 entry is
    6 top^2 zeta, just below 2^62 at top = TOP.  Column 2 is the
    content-reduced result of that step, so it is dependent exactly when the
    step is exact.
    """
    P = np.zeros((ctx.K, ctx.K, ctx.phi), dtype=np.int64)
    P[:3, 0] = [(top, -top), (1, 0), (-top, top)]
    P[[0, 2], 1] = (-top, top)
    P[1:3, 2] = [(1, -1), (0, 6 * top)]
    return P


@pytest.mark.parametrize("top", [TOP, TOP - 1])
def test_echelon_step_just_under_the_guard_is_exact(top):
    # TOP - 1 is odd, so float64 rounds 6 top^2 and a float step would
    # leave column 2 independent or raise
    ctx = pair_context(2)
    assert ctx.reduction_mass == 3
    assert 2 * 3 * TOP**2 < 2**62 <= 2 * 3 * (TOP + 1) ** 2
    assert float(6 * (TOP - 1) ** 2) != 6 * (TOP - 1) ** 2
    P = _edge_projections(ctx, top)
    assert _independent_columns(ctx, P) == reference_columns(ctx, P) == [0, 1]


@pytest.mark.parametrize("top", [TOP + 1, 2**31 - 1])
def test_echelon_guard_raises_before_any_product(monkeypatch, top):
    # at 2^31 - 1 the step's entry 6 top^2 would pass 2^63
    ctx = pair_context(2)
    P = _edge_projections(ctx, top)
    monkeypatch.setattr(harmonic, "_cyc_mul_matrix", lambda *_: pytest.fail("a product ran past the guard"))
    with pytest.raises(BudgetExceeded):
        _independent_columns(ctx, P)


def test_commutativity_stops_at_the_first_asymmetric_slice(monkeypatch):
    counts = []
    original = harmonic._product_slices

    def counted(ctx, F, G):
        counts.append(0)
        for s in original(ctx, F, G):
            counts[-1] += 1
            yield s

    monkeypatch.setattr(harmonic, "_product_slices", counted)
    pr = params(3)
    verdicts = [
        commutativity_check(build_I_pi(pi, 3)) for pi in (GL2Irrep.V(pr, 0), GL2Irrep.W(pr, 0, 1), GL2Irrep.X(pr, 1))
    ]
    assert verdicts == [False, False, True]
    assert counts[0] <= 2 and counts[1] <= 2
    assert counts[2] == pair_context(3).K
