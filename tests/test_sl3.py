"""SL3(q) classes, the embedding of GL2(q) classes, and restriction witnesses."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from literal import x_orbit_reps
from packed import assert_same_stack, pack_rows, sl3_char_terms, sl3_char_value

from gl2rep import sl3
from gl2rep.cli import run
from gl2rep.cyclotomic import Cyclotomic, root
from gl2rep.errors import InvalidLabel, MismatchedQ
from gl2rep.gl2 import GL2Class, GL2Irrep, enumerate_classes, enumerate_irreps, params
from gl2rep.sl3 import (
    SL3_IRREP_KINDS,
    SL3Class,
    SL3Irrep,
    embed_class,
    expected_witness_mult,
    parse_sl3_irrep,
    restriction_mult,
    sl3_rows,
    witness_bytes,
    witness_irrep,
    witness_no_gelfand,
    witness_report,
)


def test_label_constraints():
    pr = params(7)  # r = 6, d = 3
    with pytest.raises(InvalidLabel):
        SL3Class.C4(pr, 2)  # 2 is a multiple of r/d = 2
    SL3Class.C4(pr, 1)
    with pytest.raises(InvalidLabel):
        SL3Class.C1(pr, 4)  # central parameter range is 1..d
    with pytest.raises(InvalidLabel):
        SL3Class.C6(pr, 1, 1)
    with pytest.raises(InvalidLabel):
        SL3Class.C7(pr, pr.s)
    with pytest.raises(InvalidLabel):
        SL3Irrep.T(pr, 0)


def test_c6_canonicalizes_by_eigenvalue_triple():
    pr = params(7)
    # {1, 2} has third exponent -3 mod 6 = 3; all three pair labels agree
    a = SL3Class.C6(pr, 1, 2)
    assert a == SL3Class.C6(pr, 1, 3) == SL3Class.C6(pr, 2, 3)
    assert a.data == (1, 2)


def test_c7_orbit_canonical():
    pr = params(3)
    assert SL3Class.C7(pr, 7) == SL3Class.C7(pr, 5)  # 7*3 = 21 = 5 mod 8


def test_c3_refuses_a_second_parameter_outside_1_to_d():
    for q, l in ((4, 0), (4, 4), (3, 2), (5, -1)):
        pr = params(q)
        with pytest.raises(InvalidLabel, match=f"^C3 second parameter {l} outside 1..{pr.d}$"):
            SL3Class.C3(pr, 1, l)
    pr = params(4)
    assert [SL3Class.C3(pr, 2, l).data for l in (1, 2, 3)] == [(2, 1), (2, 2), (2, 3)]


def test_embedding_rows():
    pr = params(5)  # d = 1, so r/d = r and only k = 0 is central
    assert embed_class(GL2Class.C1(pr, 0), pr) == SL3Class.C1(pr, 1)
    assert embed_class(GL2Class.C1(pr, 2), pr) == SL3Class.C4(pr, 2)
    assert embed_class(GL2Class.C2(pr, 0), pr) == SL3Class.C2(pr, 1)
    assert embed_class(GL2Class.C2(pr, 3), pr) == SL3Class.C5(pr, 3)
    assert embed_class(GL2Class.C4(pr, 7), pr) == SL3Class.C7(pr, -7)
    # split class with 2k = -l lands in C4(k)
    r = pr.r
    assert embed_class(GL2Class.C3(pr, 1, r - 2), pr) == SL3Class.C4(pr, 1)
    assert embed_class(GL2Class.C3(pr, 0, 1), pr).kind == "C6"


def test_embedding_with_d3():
    pr = params(4)  # r = 3, d = 3, r/d = 1: every scalar is a cube
    for k in range(3):
        assert embed_class(GL2Class.C1(pr, k), pr).kind == "C1"
        assert embed_class(GL2Class.C2(pr, k), pr).kind == "C2"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_embedding_never_hits_c8_and_always_validates(q):
    pr = params(q)
    for c in enumerate_classes(pr):
        big = embed_class(c, pr)
        assert big.kind in ("C1", "C2", "C4", "C5", "C6", "C7")


def test_partial_character_values():
    pr = params(5)
    qs = SL3Irrep.QS(pr)
    assert sl3_char_value(qs, SL3Class.C1(pr, 1), pr) == Cyclotomic.from_int(pr.q * pr.s)
    assert sl3_char_value(qs, SL3Class.C8(pr, 1), pr) == Cyclotomic.from_int(-1)
    rt = SL3Irrep.RT(pr, 1)
    assert sl3_char_value(rt, SL3Class.C6(pr, 0, 1), pr) == Cyclotomic.zero()
    t = SL3Irrep.T(pr, 1)
    assert sl3_char_value(t, SL3Class.C4(pr, 1), pr) == pr.s * root(pr.r, 1) + root(pr.r, -2)
    assert sl3_char_value(t, SL3Class.C8(pr, 1), pr) == Cyclotomic.zero()
    # the corrected elliptic value of the rt family
    assert sl3_char_value(rt, SL3Class.C7(pr, 1), pr) == -(
        root(pr.rs, -1) + root(pr.rs, -pr.q)
    )


def test_dims_read_from_identity_column():
    pr = params(4)
    identity = SL3Class.C1(pr, pr.d)
    assert sl3_char_value(SL3Irrep.QS(pr), identity, pr).as_integer() == SL3Irrep.QS(pr).dim()
    assert sl3_char_value(SL3Irrep.T(pr, 1), identity, pr).as_integer() == pr.t
    assert sl3_char_value(SL3Irrep.RT(pr, 1), identity, pr).as_integer() == pr.r * pr.t


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_worked_restriction_multiplicities(q):
    pr = params(q)
    d = pr.d
    assert restriction_mult(SL3Irrep.QS(pr), GL2Irrep.U(pr, 0), pr) == 2
    for a in range(1, pr.r):
        assert restriction_mult(SL3Irrep.T(pr, -a), GL2Irrep.U(pr, a), pr) == 2
    for a in range(pr.r):
        pi, m = witness_no_gelfand(GL2Irrep.V(pr, a), pr)
        assert m == d + 1
    for n in x_orbit_reps(pr):
        assert restriction_mult(SL3Irrep.RT(pr, n), GL2Irrep.X(pr, n), pr) == d + 1


def test_w_witness_values():
    pr = params(7)  # d = 3, r/d = 2: parity of b - a decides 4 vs 5
    for (a, b), expected in [((0, 2), 5), ((0, 1), 4), ((1, 3), 5)]:
        tau = GL2Irrep.W(pr, a, b)
        pi, m = witness_no_gelfand(tau, pr)
        assert m == expected == expected_witness_mult(tau, pr)


PRIME_POWERS_TO_64 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64)


def _first_admissible_shift(tau, pr):
    """The reference: the first u = b - 2a + c r (mod rs), c = 0, 1, ..., s - 1, that is not 0 mod s."""
    a, b = tau.data
    return next(u for c in range(pr.s) if (u := (b - 2 * a + c * pr.r) % pr.rs) % pr.s)


def test_the_w_witness_is_the_first_admissible_shift():
    # the closed form against the loop it replaces, at every W irrep of every prime power q <= 64
    count = 0
    for q in PRIME_POWERS_TO_64:
        pr = params(q)
        for tau in enumerate_irreps(pr):
            if tau.kind == "W":
                assert witness_irrep(tau, pr) == SL3Irrep.RT(pr, _first_admissible_shift(tau, pr)), tau
                count += 1
    assert count == 13809


def test_witness_q4_steinberg():
    pr = params(4)
    pi, m = witness_no_gelfand(GL2Irrep.V(pr, 1), pr)
    assert pi == SL3Irrep.RT(pr, -1)
    assert m == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_all_witnesses_at_least_two(q):
    pr = params(q)
    for tau in enumerate_irreps(pr):
        pi, m = witness_no_gelfand(tau, pr)
        assert m >= 2
        assert m == expected_witness_mult(tau, pr)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_full_restriction_dimension_bookkeeping(q):
    pr = params(q)
    pis = [SL3Irrep.QS(pr), SL3Irrep.RT(pr, x_orbit_reps(pr)[0])]
    if pr.r > 1:
        pis.append(SL3Irrep.T(pr, 1))
    for pi in pis:
        total = sum(restriction_mult(pi, tau, pr) * tau.dim() for tau in enumerate_irreps(pr))
        assert total == pi.dim()


def test_witness_report_flags_d3():
    rows = witness_report(params(4))
    x_rows = [r for r in rows if r["tau"].startswith("X:")]
    assert x_rows and all("note" in r and r["multiplicity"] == 4 for r in x_rows)
    rows3 = witness_report(params(3))
    assert all("note" not in r for r in rows3)
    assert all(r["ok"] for r in rows + rows3)


def _sl3_irreps(pr):
    rt = [SL3Irrep.RT(pr, n) for n in x_orbit_reps(pr)]
    return [SL3Irrep.QS(pr), *(SL3Irrep.T(pr, u) for u in range(1, pr.r)), *rt]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32])
def test_closed_form_sl3_rows_are_the_packed_sl3_char_terms_of_the_embedding(q):
    # q = 2 has no piT and an empty c3 block; d = 3 at q = 4, 7, 13, 16 and 25
    pr = params(q)
    embedded = [embed_class(c, pr) for c in enumerate_classes(pr)]

    def reference(pis):
        return pack_rows(([sl3_char_terms(pi, e, pr) for e in embedded] for pi in pis), q)

    pis = _sl3_irreps(pr)
    assert_same_stack(sl3_rows(pis, pr), reference(pis))
    for kind in SL3_IRREP_KINDS:
        subset = [pi for pi in pis if pi.kind == kind]
        assert_same_stack(sl3_rows(subset, pr), reference(subset))
    # single irreps, and subsets in any order with repeats
    rng = np.random.default_rng(q)
    for size in (1, 1, 2, 7, 40):
        subset = [pis[i] for i in rng.integers(len(pis), size=size)]
        assert_same_stack(sl3_rows(subset, pr), reference(subset))
    assert sl3_rows([], pr) == ()


def test_closed_form_sl3_rows_reject_a_label_of_another_q():
    with pytest.raises(MismatchedQ):
        sl3_rows([SL3Irrep.QS(params(3)), SL3Irrep.QS(params(5))], params(3))


def test_the_witness_sweep_never_calls_the_scalar_references(monkeypatch):
    # the scalar character terms live in tests/packed.py, out of the library's
    # reach; test_package's reachability check keeps them there
    def scalar(*args):
        raise AssertionError("the scalar SL3 reference was called")

    monkeypatch.setattr(sl3, "embed_class", scalar)
    out = io.StringIO()
    assert run(["sl3-witness", "--q", "5"], out=out) == 0
    assert out.getvalue().count("True") == 24


@pytest.mark.parametrize("q", [16, 25, 32])
def test_the_witness_budget_is_at_least_the_traced_peak(q):
    # per-q tables and power tables warm: the power tables follow the prime
    # factors of rs, and no estimate from q counts them
    pr = params(q)
    witness_report(pr)
    tracemalloc.start()
    try:
        witness_report(pr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= witness_bytes(q)


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from((2, 3, 4, 5, 7, 16, 27, 32, 49, 64)), kind=st.sampled_from(SL3_IRREP_KINDS), u=st.integers())
def test_sl3_irrep_labels_round_trip_through_their_canonical_form(q, kind, u):
    pr = params(q)
    text = kind if kind == "piQS" else f"{kind}:{u}"
    if (kind == "piT" and u % pr.r == 0) or (kind == "piRT" and u % pr.s == 0):
        with pytest.raises(InvalidLabel):
            parse_sl3_irrep(text, pr)
        return
    pi = parse_sl3_irrep(text, pr)
    want = {"piQS": (), "piT": (u % pr.r,), "piRT": (min(u % pr.rs, q * u % pr.rs),)}[kind]
    assert (pi.kind, pi.data) == (kind, want)
    # the canonical form is a fixed point
    assert parse_sl3_irrep(pi.label(), pr) == pi and parse_sl3_irrep(pi.label(), pr).label() == pi.label()
