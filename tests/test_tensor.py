"""Tensor multiplicities: class sums vs indicator formulas, decompositions, counts."""

import hashlib
import io
import json
import random
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from gl2rep import cyclotomic, gl2, tensor
from gl2rep.cli import SAMPLED_TRIPLES as SAMPLED, run
from gl2rep.cyclotomic import Cyclotomic, euler_phi, power_coords
from gl2rep.errors import GL2RepError, NegativeMultiplicity, NonIntegral, NotMultiplicityFree
from gl2rep.gl2 import (
    IRREP_KINDS,
    GL2Class,
    GL2Irrep,
    char_terms,
    char_value,
    enumerate_classes,
    enumerate_irreps,
    params,
    terms_value,
    x_canonical,
    x_orbit_reps,
)
from gl2rep.sl3 import witness_report
from gl2rep.tensor import (
    all_triples,
    classify_gelfand,
    decompose,
    dim_E,
    e_module_freeness_obstruction,
    ind_decompose,
    ind_X_counts_by_dim,
    ind_X_expected,
    is_gelfand_triple_product,
    mult_closed,
    mult_sum,
    mult_sum_numerator,
    sample_triples,
    verify_agreement,
)


# -- the reference case table: the indicator formulas one triple at a time, on
# labels, sharing no code with tensor.mult_closed_array


def _ref_twist(kind, data, sign, a, pr):
    """Label data of pi twisted by alpha_a(det); pi is kind(data) for sign 1 and its dual for sign -1."""
    if kind == "W":
        return tuple(sorted(((sign * data[0] + a) % pr.r, (sign * data[1] + a) % pr.r)))
    if kind == "X":
        return (x_canonical(sign * data[0] + pr.s * a, pr, "X"),)
    return ((sign * data[0] + a) % pr.r,)


def _ref_omega(kind, data):
    if kind == "W":
        return data[0] + data[1]
    if kind == "X":
        return data[0]
    return 2 * data[0]


def reference_mult(pi1, pi2, pi3, pr):
    """[pi1 (x) pi2 : pi3] by the case table, evaluated on label parameters."""
    if IRREP_KINDS.index(pi1.kind) > IRREP_KINDS.index(pi2.kind):
        pi1, pi2 = pi2, pi1
    r = pr.r
    k1, k2, k3 = pi1.kind, pi2.kind, pi3.kind
    x, y, z = pi1.data, pi2.data, pi3.data
    if k1 == "U":
        return int(k2 == k3 and _ref_twist(k2, y, 1, x[0], pr) == z)
    if k3 == "U":
        return int(k1 == k2 and _ref_twist(k1, x, -1, z[0], pr) == y)
    value = int((_ref_omega(k1, x) + _ref_omega(k2, y) - _ref_omega(k3, z)) % r == 0)
    if k3 == "V":
        if k1 == k2 == "W":
            value += _ref_twist("W", x, -1, z[0], pr) == y
        elif k1 == "X":
            value -= _ref_twist("X", x, -1, z[0], pr) == y
    elif k1 == "V":
        if k2 == k3 == "W":
            value += _ref_twist("W", y, 1, x[0], pr) == z
        elif k2 == k3 == "X":
            value -= _ref_twist("X", y, 1, x[0], pr) == z
    elif k1 == k2 == k3 == "W":
        (a, b), (c, d) = x, y
        value += tuple(sorted(((a + c) % r, (b + d) % r))) == z
        value += tuple(sorted(((a + d) % r, (b + c) % r))) == z
    elif k1 == k3 == "X":
        rs, q = pr.rs, pr.q
        n, m, n3 = x[0], y[0], z[0]
        value -= (n + m - n3) % rs == 0
        value -= (q * n + m - n3) % rs == 0
        value -= (n + q * m - n3) % rs == 0
        value -= (n + m - q * n3) % rs == 0
    return value


@lru_cache(maxsize=None)
def _reference_cube(q):
    """reference_mult of every triple at q, as an (n, n, n) array over canonical order."""
    pr = params(q)
    irreps = enumerate_irreps(pr)
    return np.array([[[reference_mult(a, b, c, pr) for c in irreps] for b in irreps] for a in irreps])


def _kernel_on(pr, positions):
    """mult_closed_array on triples of positions in canonical order, a (3, n) array."""
    t = tensor.irrep_table(pr.q)
    return tensor.mult_closed_array(pr, *((t.kind[p], t.d0[p], t.d1[p]) for p in positions))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_the_kernel_equals_the_reference_case_table_on_every_triple(q):
    pr = params(q)
    n = q * q - 1
    positions = np.indices((n, n, n)).reshape(3, -1)
    assert _kernel_on(pr, positions).tolist() == _reference_cube(q).reshape(-1).tolist()


@pytest.mark.parametrize("q", [8, 9, 16])
def test_the_kernel_equals_the_reference_case_table_on_sampled_triples(q):
    pr = params(q)
    irreps = enumerate_irreps(pr)
    positions = np.random.default_rng(q).integers(0, len(irreps), size=(3, 50_000))
    want = [reference_mult(irreps[a], irreps[b], irreps[c], pr) for a, b, c in positions.T.tolist()]
    assert _kernel_on(pr, positions).tolist() == want
    # the scalar is the kernel's batch of one
    for a, b, c in positions.T[:200].tolist():
        assert mult_closed(irreps[a], irreps[b], irreps[c], pr) == reference_mult(irreps[a], irreps[b], irreps[c], pr)


def test_the_kernel_is_cut_into_slices_of_its_byte_budget(monkeypatch):
    pr = params(9)
    seen = []
    real = tensor._evaluate

    def counted(pr, x, y, z):
        seen.append(max(np.size(a) for o in (x, y, z) for a in o))
        return real(pr, x, y, z)

    want = [[m for _, m in ind_decompose(pi, pr)] for pi in enumerate_irreps(pr)[::7]]
    monkeypatch.setattr(tensor, "_evaluate", counted)
    monkeypatch.setattr(tensor, "_KERNEL_BYTES", 100 * tensor._TRIPLE_BYTES)
    got = [[m for _, m in ind_decompose(pi, pr)] for pi in enumerate_irreps(pr)[::7]]
    assert got == want
    assert max(seen) <= 100 and len(seen) > len(want)


def test_the_ind_sweep_at_q_256_stays_within_the_kernel_budget():
    # worked out by the estimator, without sweeping: the sweep at q = 256
    # visits about 16.8 million candidate pairs
    pr = params(256)
    assert tensor.ind_sweep_bytes(pr) <= tensor._KERNEL_BYTES
    assert tensor._sweep_rows(pr) < len(tensor.irrep_table(256).irreps)


def test_tensor_with_one_dimensional_twists():
    pr = params(5)
    for a in range(pr.r):
        for b in range(pr.r):
            target = GL2Irrep.U(pr, a + b)
            assert mult_sum(GL2Irrep.U(pr, a), GL2Irrep.U(pr, b), target, pr) == 1
            for other in enumerate_irreps(pr):
                if other != target:
                    assert mult_closed(GL2Irrep.U(pr, a), GL2Irrep.U(pr, b), other, pr) == 0
    # U_a (x) X_[n] = X_[n + s a], a single constituent
    dec = decompose(GL2Irrep.U(pr, 1), GL2Irrep.X(pr, 1), pr)
    assert dec == [(GL2Irrep.X(pr, 1 + pr.s), 1)]


def test_steinberg_squares_q3():
    pr = params(3)
    for a in range(2):
        for b in range(2):
            assert mult_sum(GL2Irrep.V(pr, a), GL2Irrep.V(pr, b), GL2Irrep.U(pr, a + b), pr) == 1


def test_multiplicity_two_witness():
    for q in (3, 4, 5):
        pr = params(q)
        w = GL2Irrep.W(pr, 0, 1)
        assert mult_sum(GL2Irrep.V(pr, 0), w, w, pr) == 2
        assert mult_closed(GL2Irrep.V(pr, 0), w, w, pr) == 2


def test_numerator_divisible_by_group_order_q3():
    pr = params(3)
    for t in all_triples(pr):
        num = mult_sum_numerator(*t, pr).as_integer()
        assert num % pr.order == 0


@pytest.mark.parametrize("q", [2, 3])
def test_closed_equals_sum_exhaustive_small(q):
    pr = params(q)
    assert verify_agreement(pr) == []


def test_closed_equals_sum_sampled_q7():
    pr = params(7)
    assert verify_agreement(pr, sample_triples(pr, 500, seed=42)) == []


def test_compare_methods_reports_cells():
    pr = params(3)
    v, w = GL2Irrep.V(pr, 0), GL2Irrep.W(pr, 0, 1)
    assert verify_agreement(pr, [(v, w, w)]) == []


def _batched_coords(triples, pr):
    """The tensor-basis coordinates of the batched route of verify_agreement,
    before it reduces them: every position is covered by exactly one kind
    triple, in rising order."""
    irreps, codes = tensor._positions(triples)
    coords = np.zeros((len(triples), euler_phi(pr.rs)), dtype=np.int64)
    seen = []
    step = max(1, tensor._COORD_BYTES // (8 * euler_phi(pr.rs)))
    for at, part in tensor._kind_sums(irreps, codes, tensor.operands(irreps, pr)[0], pr):
        assert part.shape == (len(at), euler_phi(pr.rs)) and len(at) <= step and (np.diff(at) > 0).all()
        coords[at] = part
        seen += at.tolist()
    assert sorted(seen) == list(range(len(triples)))
    return coords


def test_a_repeated_triple_broadcasts_its_one_row_stacks(monkeypatch):
    # one irrep object read three times: every factor is a stack of one row,
    # so the class-sum kernel broadcasts the coefficients over a batch of three
    pr = params(5)
    v = GL2Irrep.V(pr, 0)
    shapes = []
    real = np.broadcast_to
    monkeypatch.setattr(np, "broadcast_to", lambda a, shape: shapes.append(shape) or real(a, shape))
    coords = _batched_coords([(v, v, v)] * 3, pr)
    assert shapes  # the broadcast branch ran
    want = mult_sum_numerator(v, v, v, pr).coords_at(pr.rs)
    assert want[:2] == [480, 0]
    assert [power_coords(pr.rs, x) for x in coords.tolist()] == [want] * 3
    assert mult_closed(v, v, v, pr) == 1
    assert verify_agreement(pr, [(v, v, v)] * 3) == []


def test_symmetry_and_duality():
    pr = params(4)
    rng = random.Random(5)
    irreps = enumerate_irreps(pr)
    for _ in range(300):
        p1, p2, p3 = (rng.choice(irreps) for _ in range(3))
        m = mult_closed(p1, p2, p3, pr)
        assert m == mult_closed(p2, p1, p3, pr)
        assert m == mult_closed(p1, p3.dual(), p2.dual(), pr)


def test_decompose_v_tensor_v_odd_q():
    for q in (3, 5):
        pr = params(q)
        r, s = pr.r, pr.s
        a, b = 1, 0
        dec = dict(decompose(GL2Irrep.V(pr, a), GL2Irrep.V(pr, b), pr))
        assert dec[GL2Irrep.U(pr, a + b)] == 1
        assert dec[GL2Irrep.V(pr, a + b)] == 1
        assert dec[GL2Irrep.V(pr, a + b + r // 2)] == 1
        ws = [pi for pi in dec if pi.kind == "W"]
        xs = [pi for pi in dec if pi.kind == "X"]
        assert len(ws) == (r - 2) // 2
        assert len(xs) == (s - 2) // 2
        assert sum(m * pi.dim() for pi, m in dec.items()) == q * q


def test_decompose_v_tensor_v_q2():
    pr = params(2)
    dec = decompose(GL2Irrep.V(pr, 0), GL2Irrep.V(pr, 0), pr)
    assert {(pi.label(), m) for pi, m in dec} == {("U:0", 1), ("V:0", 1), ("X:1", 1)}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dimension_conservation_all_pairs(q):
    pr = params(q)
    irreps = enumerate_irreps(pr)
    for p1 in irreps:
        for p2 in irreps:
            decompose(p1, p2, pr)  # raises internally on a dimension leak


def test_ind_decompose_of_characters():
    for q in (3, 5):
        pr = params(q)
        dec = ind_decompose(GL2Irrep.U(pr, 1), pr)
        assert len(dec) == q * q - 1
        assert all(m == 1 for _, m in dec)
        assert sum(p1.dim() * p2.dim() for (p1, p2), _ in dec) == pr.order
        # trivial character: the constituents are the pairs (dual pi, pi)
        dec0 = ind_decompose(GL2Irrep.U(pr, 0), pr)
        assert {(p1.label(), p2.label()) for (p1, p2), _ in dec0} == {
            (pi.dual().label(), pi.label()) for pi in enumerate_irreps(pr)
        }


def test_ind_decompose_of_cuspidal_count():
    for q in (3, 4):
        pr = params(q)
        n = x_orbit_reps(pr)[0]
        dec = ind_decompose(GL2Irrep.X(pr, n), pr)
        assert len(dec) == (q - 1) * (q * q - q + 1)


def test_ind_x_expected_q5_even():
    q = 5
    expected = {4: 8, 25: 8, 30: 8, 20: 8, 36: 10, 24: 32, 16: 10}
    assert ind_X_expected(q, 0) == expected
    assert sum(expected.values()) == 84


def test_ind_x_expected_q4():
    # single column for even q; the s^2 entry is (q-1)(q-2)^2/4 = 3
    counts = ind_X_expected(4, 0)
    assert counts[25] == 3
    assert counts == ind_X_expected(4, 1)
    assert sum(counts.values()) == 3 * 13


@pytest.mark.parametrize("q", [3, 4, 5])
def test_ind_x_counts_match_closed_forms(q):
    pr = params(q)
    for n in x_orbit_reps(pr):
        got = ind_X_counts_by_dim(n, pr)
        assert got == ind_X_expected(q, n % 2)
        assert sum(got.values()) == (q - 1) * (q * q - q + 1)


def test_gelfand_classification_q3():
    pr = params(3)
    got = {pi.label() for pi in classify_gelfand(pr)}
    assert got == {"U:0", "U:1", "X:1", "X:2", "X:5"}


def test_gelfand_no_v_or_w_for_q_at_least_3():
    for q in (3, 4):
        pr = params(q)
        assert not is_gelfand_triple_product(GL2Irrep.V(pr, 0), pr)
        assert not is_gelfand_triple_product(GL2Irrep.W(pr, 0, 1), pr)
        assert is_gelfand_triple_product(GL2Irrep.U(pr, 1), pr)
        assert is_gelfand_triple_product(GL2Irrep.X(pr, 1), pr)


def test_gelfand_q2_includes_the_steinberg():
    # degenerate small case: with no W family present, the two-dimensional
    # irreducible also induces multiplicity free (S3 tensor arithmetic)
    pr = params(2)
    got = {pi.label() for pi in classify_gelfand(pr)}
    assert got == {"U:0", "V:0", "X:1"}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_norm_test_equals_the_mult_closed_sweep(q):
    pr = params(q)
    sweep = {pi for pi in enumerate_irreps(pr) if is_gelfand_triple_product(pi, pr)}
    assert classify_gelfand(pr) == sweep


def _column_sum_weights(pr):
    """|c| * S(c)^2 with S(c) the column sums of the character table, taken
    through class_sum: the reference of the closed form."""
    cols = gl2.columns(gl2.char_rows(enumerate_irreps(pr), pr))
    every = np.arange(cols[0].rows)
    coords = gl2.class_sum(pr.rs, [1] * cols[0].length, cols, None, None, (every, None, None))
    assert not coords[:, 1:].any()
    return [size * s * s for size, s in zip(gl2.class_table(pr.q)[1], coords[:, 0].tolist())]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_the_closed_form_weights_are_the_column_sums_of_the_table(q):
    pr = params(q)
    assert tensor._class_weights(pr).tolist() == _column_sum_weights(pr)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ind_norms_equal_the_ind_decompose_sums(q):
    # the norms of each induction, by class sums, against its constituents
    pr = params(q)
    for pi, norms in zip(enumerate_irreps(pr), tensor.class_sum_norms(pr), strict=True):
        ms = [m for _, m in ind_decompose(pi, pr)]
        assert norms == (sum(m * m for m in ms), sum(ms)), pi.label()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_ind_decompose_equals_the_unfiltered_sweep(q):
    # ind_decompose skips the pairs whose central characters do not match;
    # the plain double loop over all pairs must give the same list
    pr = params(q)
    irreps = enumerate_irreps(pr)
    cube = _reference_cube(q)
    for k, pi in enumerate(irreps):
        full = []
        for a, pi1 in enumerate(irreps):
            for b, pi2 in enumerate(irreps):
                m = int(cube[a, b, k])
                if m:
                    full.append(((pi1, pi2), m))
        assert ind_decompose(pi, pr) == full, pi.label()


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_omega_is_the_central_character(q):
    # chi_pi(c1:1) = dim pi * zeta_r^omega, read off the character table
    pr = params(q)
    centre = GL2Class.C1(pr, 1)
    for pi in enumerate_irreps(pr):
        scalar = ((pi.dim(), (pr.s * gl2.omega(*gl2.operand(pi, pr))) % pr.rs),)
        assert terms_value(pr.rs, char_terms(pi, centre, pr)) == terms_value(pr.rs, scalar), pi.label()


@pytest.mark.parametrize("q", [16, 25])
def test_gelfand_at_large_q_is_the_dimension_rule(q, monkeypatch):
    # the closed-form family norms make no call to mult_closed
    def no_sweep(*args):
        raise AssertionError("classify_gelfand called mult_closed")

    monkeypatch.setattr(tensor, "mult_closed_array", no_sweep)
    pr = params(q)
    got = classify_gelfand(pr)
    assert len(got) == (q - 1) + q * (q - 1) // 2
    assert got == {pi for pi in enumerate_irreps(pr) if pi.dim() in (1, q - 1)}


def test_the_class_sums_build_no_power_table():
    # the kernel folds in the tensor basis: at rs = 255 the norms, the witnesses
    # and a tensor-agree sample leave the power table of Z[zeta_255] unbuilt
    pr = params(16)
    cyclotomic._power_table.cache_clear()
    tensor.class_sum_norms(pr)
    witness_report(pr)
    assert verify_agreement(pr, sample_triples(pr, 200, seed=1)) == []
    assert cyclotomic._power_table.cache_info().currsize == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_family_norms_are_the_class_sum_norms_of_every_irrep(q):
    pr = params(q)
    want = [tensor.family_norms(pi.kind, q) for pi in enumerate_irreps(pr)]
    assert tensor.class_sum_norms(pr) == want


@pytest.mark.parametrize("q", [16, 25, 32])
def test_the_gelfand_budget_is_at_least_the_traced_peak(q):
    # the budget of the class-sum check, class_sum_norms, which builds the rows
    # a chunk at a time (several chunks at q = 25 and 32), from cold cyclotomic
    # tables and class parameters, as one CLI run builds them
    pr = params(q)
    irreps = enumerate_irreps(pr)
    cyclotomic._crt_order.cache_clear()
    cyclotomic._power_table.cache_clear()
    gl2.class_params.cache_clear()
    gl2.class_table.cache_clear()
    tracemalloc.start()
    try:
        gl2.char_rows(irreps, pr)
        rows_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        norms = tensor.class_sum_norms(pr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows_peak <= gl2.build_bytes(q)
    assert peak <= tensor.class_sum_norms_bytes(q)
    assert q < 25 or tensor._norm_rows(q) < len(irreps)
    assert norms == [tensor.family_norms(pi.kind, q) for pi in irreps]


def _corrupt(monkeypatch, module, irrep, cls, change):
    """Apply ``change`` to the (coef, exp) terms of one character value in the
    rows that ``module.char_rows`` builds; it keeps the number of terms."""
    real = module.char_rows

    def char_rows(irreps, pr):
        rows = list(real(irreps, pr))
        at = [c.label() for c in gl2.class_table(pr.q)[0]].index(cls)
        k = 0
        while at >= rows[k].length:
            at -= rows[k].length
            k += 1
        terms = rows[k].terms.copy()
        for i, pi in enumerate(irreps):
            if pi.label() == irrep:
                new = change(tuple((c, e) for c, e in terms[:, :, i, at].T.tolist() if c))
                terms[:, : len(new), i, at] = np.array(new).T
        rows[k] = gl2.Block(terms, rows[k].peak)
        return tuple(rows)

    monkeypatch.setattr(module, "char_rows", char_rows)


def test_a_corrupted_character_value_breaks_the_pair_sum(monkeypatch):
    # chi_U:0(1) = 1 -> -1: every S(c) stays an integer, but the pair sum of
    # U:0 is no longer divisible by |G|, so divide_exact raises in the
    # class-sum check, and verify reports the error
    pr = params(5)
    _corrupt(monkeypatch, tensor, "U:0", "c1:0", lambda terms: tuple((-a, e) for a, e in terms))
    with pytest.raises(NonIntegral, match="pair sum for U:0"):
        tensor.class_sum_norms(pr)
    out = io.StringIO()
    assert run(["verify", "--suite", "gelfand", "--q", "5"], out=out) == 1
    assert out.getvalue().startswith("error: pair sum for U:0 = ")


def test_a_corrupted_character_value_changes_the_set(monkeypatch):
    # chi_U:0(c3:1,3) = 1 -> -1, on a class of determinant 1, whose weight
    # |c| S(c)^2 = 30 * 4^2 the pair sum reads: both sums stay integral, but
    # sum m of U:0 falls by 2 * 480 / |G| = 2, so the class sums would drop U:0
    # from the set, and verify fails on the norms of U:0 alone
    pr = params(5)
    _corrupt(monkeypatch, tensor, "U:0", "c3:1,3", lambda terms: tuple((-a, e) for a, e in terms))
    norms = tensor.class_sum_norms(pr)
    irreps = enumerate_irreps(pr)
    assert [pi.label() for pi, n in zip(irreps, norms) if n != tensor.family_norms(pi.kind, 5)] == ["U:0"]
    assert norms[0] == (24, 22)
    out = io.StringIO()
    assert run(["verify", "--suite", "gelfand", "--q", "5", "--format", "json"], out=out) == 1
    (report,) = json.loads(out.getvalue())["reports"]
    assert report["pass"] is False and "sweep" not in report
    assert report["norms"] == [{"irrep": "U:0", "class_sum": [24, 22], "family_norms": [24, 24]}]


def test_dim_E_values():
    for q in (2, 3, 5):
        pr = params(q)
        assert dim_E(GL2Irrep.U(pr, 0), pr) == q * q - 1
        n = x_orbit_reps(pr)[0]
        assert dim_E(GL2Irrep.X(pr, n), pr) == (q - 1) * (q * q - q + 1)
    with pytest.raises(NotMultiplicityFree):
        dim_E(GL2Irrep.V(params(3), 0), params(3))


def test_freeness_obstruction():
    for q in (3, 4, 5):
        pr = params(q)
        assert not e_module_freeness_obstruction(GL2Irrep.U(pr, 1), pr)
        assert e_module_freeness_obstruction(GL2Irrep.X(pr, x_orbit_reps(pr)[0]), pr)
    # q = 2 is the one case where the division comes out exact
    pr2 = params(2)
    assert not e_module_freeness_obstruction(GL2Irrep.X(pr2, 1), pr2)


def test_mult_closed_is_symmetric_in_the_factors():
    pr = params(3)
    v, w = GL2Irrep.V(pr, 0), GL2Irrep.W(pr, 0, 1)
    assert mult_closed(v, w, w, pr) == 2
    assert mult_closed(w, v, w, pr) == 2


def _constant_kernel(value):
    """A stand-in for mult_closed_array that gives ``value`` on every triple of the batch."""

    def kernel(pr, x, y, z):
        return np.full(np.broadcast_shapes(*(np.shape(a) for o in (x, y, z) for a in o)), value)

    return kernel


def _kernel_adding(monkeypatch, delta, triples):
    """Make mult_closed_array add ``delta`` on each of these triples of labels."""
    real = tensor.mult_closed_array
    codes = [[tensor.operand(pi, params(pi.q)) for pi in t] for t in triples]

    def kernel(pr, x, y, z):
        values = real(pr, x, y, z)
        for code in codes:
            hit = np.ones(values.shape, dtype=bool)
            for o, c in zip((x, y, z), code):
                hit &= (o[0] == c[0]) & (o[1] == c[1]) & (o[2] == c[2])
            values = values + delta * hit
        return values

    monkeypatch.setattr(tensor, "mult_closed_array", kernel)


def test_broken_multiplicities_raise_package_errors(monkeypatch):
    # invariant checks must survive python -O, so they are errors, not asserts
    pr = params(3)
    monkeypatch.setattr(tensor, "mult_closed_array", _constant_kernel(0))
    with pytest.raises(GL2RepError, match="dimension leak"):
        decompose(GL2Irrep.V(pr, 0), GL2Irrep.W(pr, 0, 1), pr)
    monkeypatch.setattr(tensor, "mult_closed_array", _constant_kernel(2))
    with pytest.raises(NotMultiplicityFree):
        ind_X_counts_by_dim(x_orbit_reps(pr)[0], pr)


def test_a_negative_kernel_value_names_the_first_negative_triple(monkeypatch):
    # each caller raises for the first negative triple in its own order; the
    # message names the factors sorted by kind, as the cell does
    pr = params(4)
    target = GL2Irrep.X(pr, 1)
    pairs = [p for p, _ in ind_decompose(target, pr)]
    first = next(p for p in pairs if p[0].kind == "X" and p[1].kind == "U")
    later = pairs[-1]
    _kernel_adding(monkeypatch, -5, [(*first, target), (*later, target)])
    name = f"({first[1].label()}, {first[0].label()}, X:1) at q=4"
    # in one kernel call, then in slices of 8 pairs, where the two fall in different calls
    for budget in (tensor._KERNEL_BYTES, 8 * (tensor._TRIPLE_BYTES + tensor._CANDIDATE_BYTES)):
        monkeypatch.setattr(tensor, "_KERNEL_BYTES", budget)
        with pytest.raises(NegativeMultiplicity, match=re.escape(f"cell UxX->X evaluated to -4 for {name}")):
            ind_decompose(target, pr)
    with pytest.raises(NegativeMultiplicity, match=re.escape(name)):
        ind_X_counts_by_dim(1, pr)
    with pytest.raises(NegativeMultiplicity, match=re.escape(name)):
        is_gelfand_triple_product(target, pr)
    with pytest.raises(NegativeMultiplicity, match=re.escape(name)):
        mult_closed(*first, target, pr)
    with pytest.raises(NegativeMultiplicity, match=re.escape(name)):
        decompose(*first, pr)
    # verify_agreement walks its chunk in order: the later pair comes first here
    triples = [(*later, target), (GL2Irrep.U(pr, 0),) * 3, (*first, target)]
    left, right = sorted(later, key=lambda pi: IRREP_KINDS.index(pi.kind))
    with pytest.raises(NegativeMultiplicity, match=re.escape(f"({left.label()}, {right.label()}, X:1)")):
        verify_agreement(pr, triples, stop_after=None)


def _reference_numerators(pr, triples):
    """sum_c |c| chi_1(c) chi_2(c) conj(chi_3(c)) with Cyclotomic *, + and conj on
    char_value: no class_sum, no array."""
    classes = enumerate_classes(pr)
    values = {}

    def row(pi):
        if pi not in values:
            values[pi] = [char_value(pi, c, pr) for c in classes]
        return values[pi]

    return [
        sum((c.size() * x * y * z.conj() for c, x, y, z in zip(classes, *map(row, t))), Cyclotomic.zero())
        for t in triples
    ]


@pytest.mark.parametrize("q, count", [(2, None), (3, None), (4, 600)])
def test_the_class_sum_kernel_equals_a_cyclotomic_reference(monkeypatch, q, count):
    pr = params(q)
    triples = list(all_triples(pr) if count is None else sample_triples(pr, count, seed=11))
    want = _reference_numerators(pr, triples)
    assert [mult_sum_numerator(*t, pr) for t in triples] == want
    # the batched route of verify_agreement, kind group by kind group, and
    # with each kind triple cut into class_sum calls of at most 3 triples
    for coord_bytes in (tensor._COORD_BYTES, 3 * 8 * euler_phi(pr.rs)):
        monkeypatch.setattr(tensor, "_COORD_BYTES", coord_bytes)
        batched = _batched_coords(triples, pr)
        assert [Cyclotomic(pr.rs, power_coords(pr.rs, x)) for x in batched.tolist()] == want


def _interleaved_bad_triples(pr, triples):
    """Positions of six triples from three kind triples, in the order A B C A B C."""
    kinds = [("W", "X", "V"), ("U", "U", "U"), ("X", "V", "W")]
    picked, want = [], 0
    for i, t in enumerate(triples):
        if tuple(pi.kind for pi in t) == kinds[want % 3]:
            picked.append(i)
            want += 1
            if want == 6:
                return picked
    raise AssertionError("the triples lack the wanted kinds")


@pytest.mark.parametrize("chunk_bytes", [None, tensor._CHUNK_TRIPLE_BYTES * 7])
def test_disagreements_follow_iteration_order(monkeypatch, chunk_bytes):
    # a kind-by-kind pass would report A A B B C C; the sweep reports A B C A B C
    pr = params(4)
    if chunk_bytes is not None:  # chunks of 7 triples: the bad ones straddle chunks
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", chunk_bytes)
    triples = list(all_triples(pr))
    random.Random(3).shuffle(triples)
    bad = _interleaved_bad_triples(pr, triples)
    _kernel_adding(monkeypatch, 1, [triples[i] for i in bad])
    order = [tuple(pi.label() for pi in triples[i]) for i in bad]
    got = verify_agreement(pr, iter(triples), stop_after=None)
    assert [(d.left, d.right, d.target) for d in got] == order
    for k in range(1, 7):
        got = verify_agreement(pr, iter(triples), stop_after=k)
        assert [(d.left, d.right, d.target) for d in got] == order[:k]


def test_a_non_integral_class_sum_names_the_first_triple(monkeypatch):
    pr = params(3)
    x, v, w, u = GL2Irrep.X(pr, 1), GL2Irrep.V(pr, 0), GL2Irrep.W(pr, 0, 1), GL2Irrep.U(pr, 1)
    real = gl2.char_terms

    def shifted(terms):
        return ((terms[0][0], (terms[0][1] + 1) % pr.rs),) + terms[1:]

    def corrupted(pi, c, pr):
        terms = real(pi, c, pr)
        return shifted(terms) if (pi.label(), c.label()) == ("X:1", "c4:1") else terms

    # the same entry in the scalar reference and in the stacks mult_sum and verify_agreement build
    monkeypatch.setattr(gl2, "char_terms", corrupted)
    _corrupt(monkeypatch, tensor, "X:1", "c4:1", shifted)
    ok1, ok2, bad1, ok3, bad2 = (v, w, w), (u, v, v), (u, x, x), (w, w, v), (x, v, x)
    assert _reference_numerators(pr, [bad1])[0].order != 1
    with pytest.raises(NonIntegral, match=re.escape("[U:1 x X:1 : X:1]")):
        mult_sum(*bad1, pr)
    _kernel_adding(monkeypatch, 1, [ok2])
    triples = [ok1, ok2, bad1, ok3, bad2]
    with pytest.raises(NonIntegral, match=re.escape("[U:1 x X:1 : X:1]")):
        verify_agreement(pr, triples, stop_after=2)
    # stop_after is reached at ok2, before the sweep comes to bad1
    got = verify_agreement(pr, triples, stop_after=1)
    assert [(d.left, d.right, d.target) for d in got] == [("U:1", "V:0", "V:0")]


def test_a_non_integral_class_sum_at_a_composite_rs_prints_power_basis_coordinates(monkeypatch):
    # at rs = 15 the kernel's tensor basis and the power basis differ: both
    # routes convert the sum back and print the reference's power-basis coordinates
    pr = params(4)
    real = gl2.char_terms

    def shifted(terms):
        return ((terms[0][0], (terms[0][1] + 1) % pr.rs),) + terms[1:]

    def corrupted(pi, c, pr):
        terms = real(pi, c, pr)
        return shifted(terms) if (pi.label(), c.label()) == ("X:1", "c4:1") else terms

    monkeypatch.setattr(gl2, "char_terms", corrupted)
    _corrupt(monkeypatch, tensor, "X:1", "c4:1", shifted)
    u, x = GL2Irrep.U(pr, 1), GL2Irrep.X(pr, 1)
    want = _reference_numerators(pr, [(u, x, x)])[0].coords_at(pr.rs)
    assert want == [12, -12, -12, 24, -12, 12, 0, 0]
    assert tensor.class_sum(pr.rs, gl2.class_table(4)[1], *[tensor.char_rows([u, x, x], pr)] * 3, ([0], [1], [2]))[0].tolist() != want
    text = f"class sum for [U:1 x X:1 : X:1] has power-basis coordinates {want}, not a rational integer"
    with pytest.raises(NonIntegral, match=f"^{re.escape(text)}$"):
        mult_sum(u, x, x, pr)
    with pytest.raises(NonIntegral, match=f"^{re.escape(text)}$"):
        verify_agreement(pr, [(u, u, u), (u, x, x)])


def test_a_batch_that_differs_from_the_single_class_sum_is_an_error(monkeypatch):
    # the batched coordinates of one triple are made non-integral; the class
    # sum of that triple alone is exact, so the sweep refuses to go on
    pr = params(3)
    u, x = GL2Irrep.U(pr, 1), GL2Irrep.X(pr, 1)
    real = tensor.class_sum

    def shifted(*args):
        out = real(*args)
        out[:, 1] += 1
        return out

    monkeypatch.setattr(tensor, "class_sum", shifted)
    assert mult_sum(u, x, x, pr) == mult_closed(u, x, x, pr)
    with pytest.raises(GL2RepError, match=re.escape("class sum for [U:1 x X:1 : X:1] is exact alone")):
        verify_agreement(pr, [(u, x, x)])


# sha256 of the first 10 000 triples of sample_triples, each written pi1/pi2/pi3
# and separated by spaces: the stream of rng.choice over the canonical irreps
_SAMPLED_DIGESTS = {
    (7, 0): "77e30ae57fe7b12d60fc291a18c432eb41beb8ad641f5227195dabcb2b82a1a5",
    (7, 1): "36f1cc88aa78537ace04855761c6a9bd4616480d3f984012f17bcdb8447b8944",
    (9, 0): "0a8868edc8e8d5e8fe29e7148520fc3c90a5e4044d144557ea96ed8d64663532",
    (9, 1): "e804bc82e010e2dc5e86159be81b9cae7d24de31cce1bb43b6c999936c6b86b5",
}


@pytest.mark.parametrize("q, seed", sorted(_SAMPLED_DIGESTS))
def test_sample_triples_draws_the_pinned_triples(q, seed):
    pr = params(q)
    first = {
        (7, 0): [("W:3,4", "W:4,5", "U:2"), ("W:0,5", "X:6", "X:5"), ("W:3,5", "W:1,4", "X:4")],
        (7, 1): [("V:2", "X:12", "U:4"), ("W:0,5", "V:1", "X:5"), ("X:2", "X:4", "X:20")],
        (9, 0): [("X:6", "X:12", "U:5"), ("W:2,7", "X:31", "X:24"), ("X:8", "W:4,5", "X:23")],
        (9, 1): [("W:0,2", "X:43", "V:0"), ("W:2,6", "V:7", "X:25"), ("X:16", "X:22", "X:5")],
    }[q, seed]
    drawn = [tuple(pi.label() for pi in t) for t in sample_triples(pr, SAMPLED, seed)]
    assert drawn[:3] == first
    text = " ".join("/".join(t) for t in drawn)
    assert hashlib.sha256(text.encode()).hexdigest() == _SAMPLED_DIGESTS[q, seed]


@pytest.mark.parametrize("q, count", [(9, SAMPLED), (5, None), (64, 300)])
def test_the_agreement_chunk_budget_is_at_least_the_traced_peak(q, count):
    # a chunk holds _CHUNK_TRIPLE_BYTES per triple and the character rows of
    # its irreps and, at a time, one slice of class_sum or kernel scratch;
    # per-q caches start cold, as in one CLI run.  The default sweep at q <= 9
    # (10 000 sampled triples, or all 13 824 at q = 5) is one chunk; at q = 64
    # the rows of every irrep would pass _ROWS_BYTES, and 300 triples are
    # three chunks
    verify_agreement(params(2))
    pr = params(q)
    swept = count or (q * q - 1) ** 3
    in_chunk = min(swept, tensor._chunk_triples(q))
    assert (in_chunk == swept) == (q <= 9)
    held = in_chunk * tensor._CHUNK_TRIPLE_BYTES + gl2.build_bytes(q, min(3 * in_chunk, q * q - 1))
    assert held <= tensor._agreement_bytes(q) <= tensor._CHUNK_BYTES + tensor._ROWS_BYTES
    for cache in (gl2.class_table, gl2.class_params, tensor.irrep_table, cyclotomic._power_table,
                  cyclotomic._cyclotomic_polynomial, cyclotomic._crt_order):
        cache.cache_clear()
    tracemalloc.start()
    try:
        triples = all_triples(pr) if count is None else sample_triples(pr, count, seed=0)
        assert verify_agreement(pr, triples) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= held + gl2.SLICE_BYTES


def test_an_agreement_chunk_fits_its_two_budgets_up_to_q_256():
    # 16 384 triples while every irrep's rows fit _ROWS_BYTES, fewer past
    # that, and one triple at q = 1024, whose three rows the ~1 GB rule admits
    for q in (2, 9, 16, 32, 37, 49, 64, 81, 89, 128, 256):
        assert tensor._agreement_bytes(q) <= tensor._CHUNK_BYTES + tensor._ROWS_BYTES
    assert tensor._chunk_triples(1024) == 1 and tensor._agreement_bytes(1024) <= gl2.TABLE_BYTES_LIMIT
    assert tensor._chunk_triples(32) == tensor._CHUNK_BYTES // tensor._CHUNK_TRIPLE_BYTES
    assert tensor._chunk_triples(37) < tensor._chunk_triples(32)


def test_a_class_sum_not_divisible_by_the_group_order_names_its_triple(monkeypatch):
    # U:0 doubled on the identity: [U:0 x U:0 : U:0] sums to |G| + 7 at q = 3,
    # a rational integer that floors to the indicator value 1
    pr = params(3)
    u = GL2Irrep.U(pr, 0)
    _corrupt(monkeypatch, tensor, "U:0", "c1:0", lambda terms: ((2, terms[0][1]),))
    text = f"class sum for [U:0 x U:0 : U:0] = {pr.order + 7} is not divisible by {pr.order}"
    with pytest.raises(NonIntegral, match=f"^{re.escape(text)}$"):
        mult_sum(u, u, u, pr)
    with pytest.raises(NonIntegral, match=f"^{re.escape(text)}$"):
        verify_agreement(pr, [(GL2Irrep.V(pr, 0),) * 3, (u, u, u)])
