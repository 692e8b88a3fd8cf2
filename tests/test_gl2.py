"""GL2(q) labels, censuses, character values and orthogonality."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2rep import gl2
from gl2rep.cyclotomic import Cyclotomic, root
from gl2rep.errors import BudgetExceeded, GL2RepError, InvalidLabel, MismatchedQ, NonIntegral, NotPrimePower
from gl2rep.gl2 import (
    CLASS_KINDS,
    TABLE_BYTES_LIMIT,
    Block,
    GL2Class,
    GL2Irrep,
    GroupParams,
    char_inner_product,
    char_inner_products,
    char_rows,
    char_terms,
    char_value,
    class_inner_product,
    class_inner_products,
    class_sum,
    class_sum_slices,
    enumerate_classes,
    enumerate_irreps,
    exact_sums,
    int64_bound,
    label_bytes,
    label_table,
    operands,
    params,
    parse_class,
    parse_irrep,
    require_budget,
    table_bytes,
)
from gl2rep.sl3 import SL3Class, parse_sl3_irrep
from packed import assert_same_stack, pack_rows

PRIME_POWERS_TO_16 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def test_params_values():
    pr = params(5)
    assert (pr.r, pr.s, pr.d, pr.order) == (4, 6, 1, 480)
    assert params(4).d == 3
    pr7 = params(7)
    assert (pr7.t, pr7.d) == (57, 3)


def test_params_rejects_non_prime_powers():
    for bad in (1, 6, 10, 12):
        with pytest.raises(NotPrimePower):
            params(bad)


def test_params_of_a_large_prime_stops_trial_division_at_the_square_root():
    # trial division up to isqrt(q): 46341 candidates here, not 2^31; params
    # refuses a q this large before factoring it, so the factoring is called alone
    assert gl2._factor_prime_power(2**31 - 1) == (2**31 - 1, 1)
    # the first factor found ends the search: 2 * (2^61 - 1) is refused at p = 2
    for bad in (2**31 * 3, 2**61 - 2, 2 * (2**61 - 1)):
        with pytest.raises(NotPrimePower):
            gl2._factor_prime_power(bad)


def test_params_refuses_a_huge_q_before_factoring(monkeypatch):
    # the prime 2^61 - 1 would take about 1.5 * 10^9 steps of trial division;
    # its labels alone pass the limit, and params says so first
    def no_factoring(q):
        raise AssertionError(f"factored {q}")

    monkeypatch.setattr(gl2, "_factor_prime_power", no_factoring)
    q = 2**61 - 1
    with pytest.raises(BudgetExceeded, match=re.escape(f"the labels of GL2({q}) needs about {label_bytes(q)} bytes")):
        params(q)


def test_inconsistent_group_params_raise_a_package_error():
    # d = gcd(3, q - 1) is 1 or 3, never 2
    with pytest.raises(GL2RepError, match="inconsistent group constants"):
        GroupParams(q=3, p=3, ell=1, r=2, s=4, rs=8, t=13, d=2, order=48)


def test_irrep_census_q2():
    pr = params(2)
    irreps = enumerate_irreps(pr)
    assert [pi.label() for pi in irreps] == ["U:0", "V:0", "X:1"]
    assert sorted(pi.dim() for pi in irreps) == [1, 1, 2]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_census_counts_and_dims(q):
    pr = params(q)
    irreps = enumerate_irreps(pr)
    classes = enumerate_classes(pr)
    assert len(irreps) == q * q - 1
    assert len(classes) == q * q - 1
    assert sum(pi.dim() ** 2 for pi in irreps) == pr.order
    assert sum(c.size() for c in classes) == pr.order


def test_class_counts_q5():
    pr = params(5)
    by_kind = {}
    for c in enumerate_classes(pr):
        by_kind[c.kind] = by_kind.get(c.kind, 0) + 1
    assert by_kind == {"c1": 4, "c2": 4, "c3": 6, "c4": 10}


def test_char_values_spot_checks():
    pr = params(5)
    r, rs = pr.r, pr.rs
    u = GL2Irrep.U(pr, 1)
    assert char_value(u, GL2Class.C1(pr, 1), pr) == root(r, 2)
    v = GL2Irrep.V(pr, 1)
    assert char_value(v, GL2Class.C2(pr, 1), pr) == Cyclotomic.zero()
    x = GL2Irrep.X(pr, 1)
    assert char_value(x, GL2Class.C1(pr, 0), pr) == Cyclotomic.from_int(r)
    w = GL2Irrep.W(pr, 0, 1)
    assert char_value(w, GL2Class.C4(pr, 1), pr) == Cyclotomic.zero()
    # cuspidal value on an elliptic class: -(zeta^nm + zeta^qnm)
    assert char_value(x, GL2Class.C4(pr, 1), pr) == -(root(rs, 1) + root(rs, 5))


def test_degree_column():
    pr = params(4)
    identity = GL2Class.C1(pr, 0)
    for pi in enumerate_irreps(pr):
        assert char_value(pi, identity, pr) == Cyclotomic.from_int(pi.dim())


def test_duals():
    pr = params(5)
    w = GL2Irrep.W(pr, 1, 2)
    assert w.dual() == GL2Irrep.W(pr, 2, 3)  # {-1,-2} mod 4
    assert GL2Irrep.U(pr, 0).dual() == GL2Irrep.U(pr, 0)
    for pi in enumerate_irreps(pr):
        assert pi.dual().dual() == pi


def test_dual_character_is_conjugate():
    pr = params(4)
    for pi in enumerate_irreps(pr):
        for c in enumerate_classes(pr):
            assert char_value(pi.dual(), c, pr) == char_value(pi, c, pr).conj()


def test_class_sizes():
    pr = params(3)
    assert GL2Class.C3(pr, 0, 1).size() == 12
    assert GL2Class.C2(pr, 0).size() == 8
    assert GL2Class.C4(pr, 1).size() == 6


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_row_orthogonality(q):
    pr = params(q)
    irreps = enumerate_irreps(pr)
    for i, a in enumerate(irreps):
        for b in irreps[i:]:
            expected = pr.order if a == b else 0
            assert char_inner_product(a, b, pr) == expected


@pytest.mark.parametrize("q", [2, 3, 4])
def test_column_orthogonality(q):
    pr = params(q)
    classes = enumerate_classes(pr)
    for i, c in enumerate(classes):
        for c2 in classes[i:]:
            expected = pr.order // c.size() if c == c2 else 0
            assert class_inner_product(c, c2, pr) == expected


def test_batched_orthogonality_sums_equal_a_cyclotomic_reference():
    # the reference uses Cyclotomic *, + and conj on char_value, and no class_sum
    pr = params(3)
    irreps, classes = enumerate_irreps(pr), enumerate_classes(pr)
    table = [[char_value(pi, c, pr) for c in classes] for pi in irreps]
    rows = [
        sum((c.size() * x * y.conj() for c, x, y in zip(classes, table[i], table[j])), Cyclotomic.zero())
        for i in range(len(irreps))
        for j in range(i, len(irreps))
    ]
    cols = [
        sum((row[i] * row[j].conj() for row in table), Cyclotomic.zero())
        for i in range(len(classes))
        for j in range(i, len(classes))
    ]
    assert char_inner_products(pr) == rows
    assert class_inner_products(pr) == cols


def test_the_int64_bound_of_unit_rows_counts_the_classes():
    # the trivial row times the constant 1 (None) twice: every peak is 1
    pr = params(3)
    unit = char_rows(operands([GL2Irrep.U(pr, 0)], pr), pr)
    assert int64_bound(np.ones(pr.rs, dtype=np.int64), unit, None, None) == pr.rs
    sizes = label_table(3).sizes
    assert int64_bound(sizes, None, unit, None) == pr.order


def _one_entry_rows(coefs, exps):
    """A stack of one-entry rows over one block: row i is coefs[i] * zeta^exps[i]."""
    terms = np.array([coefs, exps], dtype=np.int64).reshape(2, 1, len(coefs), 1)
    return (Block(terms, max(map(abs, coefs))),)


def test_exact_sums_names_the_first_bad_sum_by_its_place_in_the_batch(monkeypatch):
    # one sum per slice, so each fault is found in a later slice than the first
    monkeypatch.setattr(gl2, "SLICE_BYTES", 1)
    every = np.arange(6)

    def sums(coefs, exps, divisor=2):
        rows = _one_entry_rows(coefs, exps)
        return exact_sums(8, [1], rows, None, None, (every, None, None), lambda i: f"sum {i}", divisor)

    assert len(list(class_sum_slices(8, [1], _one_entry_rows([1] * 6, [0] * 6), None, None, (every, None, None)))) == 6
    # zeta_8^4 = -1 is rational
    assert sums([4, 6, -8, 2, 0, 6], [0, 0, 0, 0, 0, 4]) == [2, 3, -4, 1, 0, -3]
    assert sums([4, 6, -8, 2, 0, 6], [0] * 6, divisor=1) == [4, 6, -8, 2, 0, 6]
    with pytest.raises(NonIntegral, match=re.escape("sum 4 has power-basis coordinates [0, 4, 0, 0], not a rational integer")):
        sums([4] * 6, [0, 0, 0, 0, 1, 0])
    with pytest.raises(NonIntegral, match=re.escape("sum 3 = 3 is not divisible by 2")):
        sums([4, 4, 4, 3, 4, 4], [0] * 6)
    # two faults in one batch: the first in batch order is raised, whatever its kind
    with pytest.raises(NonIntegral, match=re.escape("sum 1 = -3 is not divisible by 2")):
        sums([4, -3, 4, 4, 4, 4], [0, 0, 0, 0, 1, 0])
    with pytest.raises(NonIntegral, match=re.escape("sum 2 has power-basis coordinates [0, 0, 4, 0]")):
        sums([4, 4, 4, 3, 4, 4], [0, 0, 2, 0, 0, 0])


def test_a_non_integral_sum_at_a_composite_rs_prints_power_basis_coordinates():
    # at rs = 15 the kernel's tensor basis and the power basis differ: the
    # message converts the sum back, to the coordinates of 4 * zeta_15^9
    every = np.arange(3)
    rows = _one_entry_rows([4, 4, 4], [0, 9, 0])
    want = (4 * root(15, 9)).coords_at(15)
    assert want == [-4, 0, 4, -4, 0, 0, -4, 4]
    assert class_sum(15, [1], rows, None, None, (every, None, None))[1].tolist() != want
    text = f"sum 1 has power-basis coordinates {want}, not a rational integer"
    with pytest.raises(NonIntegral, match=f"^{re.escape(text)}$"):
        exact_sums(15, [1], rows, None, None, (every, None, None), lambda i: f"sum {i}")


def test_class_sum_refuses_a_sum_that_could_leave_int64_before_allocating():
    pr = params(3)
    rows = [char_rows(operands([pi], pr), pr) for pi in enumerate_irreps(pr)[-3:]]
    assert int64_bound(label_table(3).sizes, *rows) < 2**62
    huge = np.full(pr.rs, 2**58, dtype=np.int64)
    assert int64_bound(huge, *rows) >= 2**62
    # a batch of 10^9 entries, as broadcast views that hold no memory
    batch = np.broadcast_to(np.zeros(1, dtype=np.intp), (10**9,))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="2\\^62"):
            class_sum(pr.rs, huge, *rows, index=(batch, batch, batch))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _reference_rows(irreps, pr):
    """pack_rows of the char_terms rows: the scalar reference of char_rows."""
    classes = enumerate_classes(pr)
    return pack_rows(([char_terms(pi, c, pr) for c in classes] for pi in irreps), pr.q)


def _rows(irreps, pr):
    """char_rows of these irreps, read as operands."""
    return char_rows(operands(irreps, pr), pr)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_16)
def test_closed_form_rows_are_the_packed_char_terms(q):
    # q = 2 has no W family and an empty c3 block
    pr = params(q)
    irreps = enumerate_irreps(pr)
    assert_same_stack(_rows(irreps, pr), _reference_rows(irreps, pr))
    for pi in (irreps[0], irreps[pr.r], irreps[-1], *irreps[2 * pr.r : 2 * pr.r + 1]):
        assert_same_stack(_rows([pi], pr), _reference_rows([pi], pr))
    # a subset in any order, with repeats: its blocks are only as wide as its kinds need
    rng = np.random.default_rng(q)
    for size in (1, 2, 7, 40):
        subset = [irreps[i] for i in rng.integers(len(irreps), size=size)]
        assert_same_stack(_rows(subset, pr), _reference_rows(subset, pr))
    for kind in "UVWX":
        subset = [pi for pi in irreps if pi.kind == kind]
        assert_same_stack(_rows(subset, pr), _reference_rows(subset, pr))


def test_closed_form_rows_reject_a_label_of_another_q():
    with pytest.raises(MismatchedQ):
        _rows([GL2Irrep.U(params(3), 0), GL2Irrep.U(params(5), 0)], params(3))


@pytest.mark.parametrize("q", PRIME_POWERS_TO_16)
def test_table_bytes_is_the_size_of_the_whole_table(q):
    pr = params(q)
    assert table_bytes(q) == sum(b.terms.nbytes for b in _rows(enumerate_irreps(pr), pr))


def test_the_table_budget_is_checked_from_q_alone():
    # worked out from q, never allocated: q = 64 fits the limit, q = 81 and q = 1024 do not
    assert table_bytes(64) < TABLE_BYTES_LIMIT < table_bytes(81)
    assert table_bytes(1024) > 10**13
    require_budget(table_bytes(64), "GL2(64)")
    for q in (81, 1024):
        with pytest.raises(BudgetExceeded, match=f"GL2\\({q}\\) needs about {table_bytes(q)} bytes"):
            require_budget(table_bytes(q), f"GL2({q})")


def test_canonicalization_is_idempotent():
    pr = params(7)
    w = GL2Irrep.W(pr, 5, 2)
    assert GL2Irrep.W(pr, *w.data) == w
    x = GL2Irrep.X(pr, 11)
    assert GL2Irrep.X(pr, x.data[0]) == x
    c3 = GL2Class.C3(pr, 4, 1)
    assert GL2Class.C3(pr, *c3.data) == c3
    c4 = GL2Class.C4(pr, 33)
    assert GL2Class.C4(pr, c4.data[0]) == c4


def test_x_orbit_identification():
    pr = params(3)  # rs = 8, orbits {1,3}, {2,6}, {5,7}
    assert GL2Irrep.X(pr, 3) == GL2Irrep.X(pr, 1)
    assert GL2Irrep.X(pr, 6) == GL2Irrep.X(pr, 2)
    assert GL2Irrep.X(pr, 7) == GL2Irrep.X(pr, 5)


def test_reducible_labels_rejected():
    pr = params(5)
    with pytest.raises(InvalidLabel):
        GL2Irrep.W(pr, 2, 2)
    with pytest.raises(InvalidLabel):
        GL2Irrep.X(pr, pr.s)  # multiple of s
    with pytest.raises(InvalidLabel):
        parse_irrep("W:3,3", pr)
    with pytest.raises(InvalidLabel):
        parse_class("c4:0", pr)


PRIME_POWERS_TO_64 = (*PRIME_POWERS_TO_16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64)
LABEL_TEXT = st.one_of(
    st.text(),
    st.from_regex(r"(U|V|W|X|c1|c2|c3|c4|piQS|piT|piRT)?:?[-+ 0-9_,]*", fullmatch=True),
)


def _x_canonical(n, pr):
    return min(n % pr.rs, pr.q * n % pr.rs)


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from(PRIME_POWERS_TO_64), kind=st.sampled_from("UVWX"), a=st.integers(), b=st.integers())
def test_irrep_labels_round_trip_through_their_canonical_form(q, kind, a, b):
    pr = params(q)
    text = f"{kind}:{a},{b}" if kind == "W" else f"{kind}:{a}"
    if (kind == "W" and (a - b) % pr.r == 0) or (kind == "X" and a % pr.s == 0):
        with pytest.raises(InvalidLabel):
            parse_irrep(text, pr)
        return
    pi = parse_irrep(text, pr)
    want = {
        "U": (a % pr.r,),
        "V": (a % pr.r,),
        "W": tuple(sorted((a % pr.r, b % pr.r))),
        "X": (_x_canonical(a, pr),),
    }[kind]
    assert (pi.kind, pi.data) == (kind, want)
    # the canonical form is a fixed point
    assert parse_irrep(pi.label(), pr) == pi and parse_irrep(pi.label(), pr).label() == pi.label()


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from(PRIME_POWERS_TO_64), kind=st.sampled_from(CLASS_KINDS), k=st.integers(), l=st.integers())
def test_class_labels_round_trip_through_their_canonical_form(q, kind, k, l):
    pr = params(q)
    text = f"{kind}:{k},{l}" if kind == "c3" else f"{kind}:{k}"
    if (kind == "c3" and (k - l) % pr.r == 0) or (kind == "c4" and k % pr.s == 0):
        with pytest.raises(InvalidLabel):
            parse_class(text, pr)
        return
    c = parse_class(text, pr)
    want = {
        "c1": (k % pr.r,),
        "c2": (k % pr.r,),
        "c3": tuple(sorted((k % pr.r, l % pr.r))),
        "c4": (_x_canonical(k, pr),),
    }[kind]
    assert (c.kind, c.data) == (kind, want)
    assert parse_class(c.label(), pr) == c and parse_class(c.label(), pr).label() == c.label()


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from(PRIME_POWERS_TO_64), text=LABEL_TEXT)
def test_label_parsers_raise_only_invalid_label_on_any_text(q, text):
    pr = params(q)
    for parse in (parse_irrep, parse_class, parse_sl3_irrep):
        try:
            label = parse(text, pr)
        except InvalidLabel:
            continue
        assert parse(label.label(), pr) == label


@pytest.mark.parametrize(
    "build, kind",
    [
        (lambda pr, n: parse_irrep(f"X:{n}", pr), "X"),
        (lambda pr, n: parse_class(f"c4:{n}", pr), "c4"),
        (lambda pr, n: parse_sl3_irrep(f"piRT:{n}", pr), "piRT"),
        (SL3Class.C7, "C7"),
    ],
    ids=["X", "c4", "piRT", "C7"],
)
def test_an_orbit_parameter_0_mod_s_names_its_label_kind(build, kind):
    pr = params(4)  # s = 5
    for n in (0, 5, -5):
        with pytest.raises(InvalidLabel, match=rf"^{kind} parameter {n % pr.rs} is 0 mod s=5$"):
            build(pr, n)


def test_cross_q_comparison_raises():
    a = GL2Irrep.U(params(3), 0)
    b = GL2Irrep.U(params(5), 0)
    with pytest.raises(MismatchedQ):
        a == b


def test_parser_round_trip():
    pr = params(5)
    for pi in enumerate_irreps(pr):
        assert parse_irrep(pi.label(), pr) == pi
    for c in enumerate_classes(pr):
        assert parse_class(c.label(), pr) == c
    # non-canonical input canonicalizes
    assert parse_irrep("W:3,1", pr).label() == "W:1,3"
    with pytest.raises(InvalidLabel):
        parse_irrep("Y:1", pr)
