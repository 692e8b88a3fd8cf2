"""Brute-force oracle: censuses, element sums, embeddings, explicit tables."""

import random

import pytest

from gl2rep import oracle
from gl2rep.cyclotomic import Cyclotomic
from gl2rep.errors import BudgetExceeded, GL2RepError, InvalidCharTable, InvalidClassMap, Singular
from gl2rep.fields import build_tower
from gl2rep.gl2 import GL2Class, GL2Irrep, enumerate_classes, enumerate_irreps, params
from gl2rep.oracle import (
    S4_OVER_C3_CLASS_MAP,
    ExplicitCharTable,
    S4_OVER_C3_EXPECTED,
    bessel_check,
    c3_char_table,
    census,
    center_char_table,
    classify_element,
    elementwise_mult,
    generic_multiplicity,
    gl2_char_table,
    s4_char_table,
    tower_for,
    verify_embedding,
)
from gl2rep.sl3 import SL3Class
from gl2rep.tensor import all_triples, mult_closed, mult_sum


def test_classify_identity_and_diagonals():
    t = tower_for(5)
    pr = params(5)
    assert classify_element((1, 0, 0, 1), t) == GL2Class.C1(pr, 0)
    rho = t.rho
    rho2 = t.gf_q.mul(rho, rho)
    assert classify_element((rho, 0, 0, rho2), t) == GL2Class.C3(pr, 1, 2)
    assert classify_element((rho, 0, 1, rho), t) == GL2Class.C2(pr, 1)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_a_context_searches_once_per_characteristic_polynomial(q):
    # every non-scalar element is classified, but the root search runs once
    # per (trace, det): q(q - 1) searches, not one per element
    before = oracle._context(q).class_of
    oracle._eigenvalue.cache_clear()
    ctx = oracle.OracleContext(q)
    searches = oracle._eigenvalue.cache_info()
    assert searches.misses == searches.currsize == q * (q - 1)
    assert searches.hits == len(ctx.elements) - (q - 1) - q * (q - 1)
    assert ctx.class_of == before
    # a tower built afresh classifies as the cached one does
    fresh = build_tower(ctx.pr.p, ctx.pr.ell)
    assert all(ctx.class_of[g] == classify_element(g, fresh) for g in ctx.elements[:: q + 1])


def test_classify_rejects_singular():
    t = tower_for(3)
    with pytest.raises(Singular):
        classify_element((1, 1, 1, 1), t)


def test_companion_of_irreducible_quadratic_q3():
    # x^2 - x - 1 is irreducible over F_3; its companion matrix is elliptic
    t = tower_for(3)
    pr = params(3)
    cls = classify_element((0, 1, 1, 1), t)
    assert cls.kind == "c4"
    rep = census(3)
    size = next(d["size"] for d in rep["details"] if d.get("class") == cls.label())
    assert size == 6


def test_census_q2():
    rep = census(2)
    assert rep["pass"] and rep["total"] == 6
    sizes = sorted(d["size"] for d in rep["details"] if "class" in d)
    assert sizes == [1, 2, 3]


def test_census_q3():
    rep = census(3)
    assert rep["pass"] and rep["total"] == 48
    sizes = sorted(d["size"] for d in rep["details"] if "class" in d)
    assert sizes == [1, 1, 6, 6, 6, 8, 8, 12]


@pytest.mark.parametrize("q", [4, 5])
def test_census_larger(q):
    rep = census(q)
    assert rep["pass"]
    assert rep["total"] == params(q).order


def test_census_budget():
    with pytest.raises(BudgetExceeded):
        census(11)


def test_elementwise_matches_class_sum_exhaustively_q2():
    pr = params(2)
    for t in all_triples(pr):
        assert elementwise_mult(*t, 2) == mult_sum(*t, pr) == mult_closed(*t, pr)


def test_elementwise_sampled_q3():
    pr = params(3)
    rng = random.Random(9)
    irreps = enumerate_irreps(pr)
    for _ in range(60):
        t = tuple(rng.choice(irreps) for _ in range(3))
        assert elementwise_mult(*t, 3) == mult_sum(*t, pr)


@pytest.mark.parametrize("q", [4, 5])
def test_elementwise_spot_vv_u(q):
    pr = params(q)
    assert elementwise_mult(GL2Irrep.V(pr, 1), GL2Irrep.V(pr, 1), GL2Irrep.U(pr, 2), q) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_verify_embedding(q):
    rep = verify_embedding(q)
    assert rep["pass"], rep["mismatches"]


@pytest.mark.parametrize("wrong, right", [("C5", "C4"), ("C2", "C1")])
def test_verify_embedding_rejects_a_relabelled_class(monkeypatch, wrong, right):
    # each pair shares its eigenvalues, so only rank(A - lam*I) tells them apart
    pr = params(5)
    true_embed = oracle.embed_class

    def relabelled(cls, pr):
        big = true_embed(cls, pr)
        return SL3Class(big.q, right, big.data) if big.kind == wrong else big

    moved = {cls.label() for cls in enumerate_classes(pr) if true_embed(cls, pr).kind == wrong}
    assert moved
    monkeypatch.setattr(oracle, "embed_class", relabelled)
    rep = verify_embedding(5)
    assert not rep["pass"]
    assert {m["class"] for m in rep["mismatches"]} == moved
    assert all(m["target"].startswith(right) for m in rep["mismatches"])


def test_verify_embedding_rejects_a_bad_representative(monkeypatch):
    # c2:0's representative replaced by the identity, a matrix of class c1:0
    pr = params(3)
    real = oracle._matrix_for_class
    moved, identity = GL2Class.C2(pr, 0), GL2Class.C1(pr, 0)
    monkeypatch.setattr(oracle, "_matrix_for_class", lambda cls, tower: real(identity if cls == moved else cls, tower))
    rep = verify_embedding(3)
    assert not rep["pass"]
    assert rep["mismatches"] == [{"class": "c2:0", "reason": "bad representative"}]


def test_an_embedding_into_c8_is_a_package_error(monkeypatch):
    monkeypatch.setattr(oracle, "embed_class", lambda cls, pr: SL3Class(pr.q, "C8", (1,)))
    with pytest.raises(InvalidClassMap, match="C8"):
        verify_embedding(3)


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_the_c3_eigen_structure_is_that_of_a_jordan_block(q):
    # no GL2 class meets C3, so verify_embedding never reads it: hold it to lambda * J_3
    pr, tower = params(q), tower_for(q)
    gf2 = tower.gf_q2
    scalars = set()
    for k in range(1, pr.d + 1):
        for l in range(1, pr.d + 1):
            eigs, ranks = oracle._expected_eigen_structure(SL3Class.C3(pr, k, l), tower)
            lam = eigs[0]
            jordan = (lam, 1, 0, 0, lam, 1, 0, 0, lam)
            assert eigs == [lam] * 3 and ranks == {lam: 2}
            assert gf2.pow(lam, 3) == 1  # det(lambda * J_3) = 1: the block lies in SL3
            charpoly = [1]
            for e in eigs:
                charpoly = [gf2.sub(lo, gf2.mul(e, hi)) for lo, hi in zip([0, *charpoly], [*charpoly, 0])]
            assert oracle._charpoly3_coeffs(gf2, jordan) == charpoly
            assert oracle._rank3_shifted(gf2, jordan, lam) == ranks[lam]
            assert oracle._rank3_shifted(gf2, jordan, 0) == 3
            scalars.add(lam)
    # k runs over the d cube roots of unity in F_q
    assert len(scalars) == pr.d


def test_s4_over_c3_multiplicity_table():
    got = generic_multiplicity(s4_char_table(), c3_char_table(), S4_OVER_C3_CLASS_MAP)
    assert got == S4_OVER_C3_EXPECTED


def test_group_over_itself_is_identity():
    c3 = c3_char_table()
    assert generic_multiplicity(c3, c3, [0, 1, 2]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_gl2_over_center_recovers_central_characters():
    pr = params(3)
    table = generic_multiplicity(gl2_char_table(pr), center_char_table(pr), [0, 1])
    for pi, row in zip(enumerate_irreps(pr), table):
        nonzero = [(b, m) for b, m in enumerate(row) if m]
        assert len(nonzero) == 1
        assert nonzero[0][1] == pi.dim()


def test_bad_class_maps_rejected():
    with pytest.raises(InvalidClassMap):
        generic_multiplicity(s4_char_table(), c3_char_table(), [0, 2])
    with pytest.raises(InvalidClassMap):
        generic_multiplicity(s4_char_table(), c3_char_table(), [0, 2, 9])


def test_malformed_char_tables_are_rejected_with_a_package_error():
    z = Cyclotomic.from_int
    # C2 with its sign row replaced by a second trivial row
    with pytest.raises(InvalidCharTable, match="row orthogonality fails at \\(0,1\\)"):
        ExplicitCharTable("bad", ["e", "s"], [1, 1], ["a", "b"], [[z(1), z(1)], [z(1), z(1)]])
    with pytest.raises(InvalidCharTable, match="2 classes need 2 sizes"):
        ExplicitCharTable("short", ["e", "s"], [1, 1], ["a", "b"], [[z(1), z(1)], [z(1)]])
    assert issubclass(InvalidCharTable, GL2RepError)


def test_bessel_q3_rows():
    rep = bessel_check(3)
    assert rep["pass"]
    nontrivial = next(r for r in rep["rows"] if not r["trivial"])
    # ordered U, U, V, V, W, X, X, X
    assert list(nontrivial["multiplicities"].values()) == [0, 0, 1, 1, 1, 1, 1, 1]
    trivial = next(r for r in rep["rows"] if r["trivial"])
    assert trivial["multiplicities"]["W:0,1"] == 2


@pytest.mark.parametrize("q", [4, 5])
def test_bessel_larger(q):
    rep = bessel_check(q)
    assert rep["pass"]
    assert rep["big_irreps"] == q * (q - 1)


def test_bessel_q2_degenerate_note():
    rep = bessel_check(2)
    assert rep["pass"] and "note" in rep
