"""Brute-force oracle: censuses, element sums, embeddings, explicit tables."""

import random
import re
from itertools import product

import numpy as np
import pytest

from gl2rep import oracle
from gl2rep.cyclotomic import Cyclotomic, root
from gl2rep.errors import BudgetExceeded, GL2RepError, InvalidCharTable, InvalidClassMap, NonIntegral, Singular
from gl2rep.fields import build_tower
from gl2rep.gl2 import GL2Class, GL2Irrep, enumerate_classes, enumerate_irreps, label_table, params
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
    # the root search runs once per (trace, det), into one q x q table, not
    # once per element: each entry is the first root of x^2 - tr*x + det in
    # F_{q^2} element order, as a scalar search finds it
    tower = tower_for(q)
    gf2, emb = tower.gf_q2, tower.embed
    roots = oracle.root_table(tower)
    assert roots.shape == (q, q)
    for tr, det in product(range(q), repeat=2):
        first = next(
            x for x in range(gf2.size) if gf2.add(gf2.mul(x, x), gf2.sub(emb[det], gf2.mul(emb[tr], x))) == 0
        )
        assert roots[tr, det] == first, (tr, det)
    ctx = oracle.OracleContext(q)
    assert ctx.cls.tolist() == oracle._context(q).cls.tolist()
    assert ctx.tally.tolist() == np.bincount(ctx.cls, minlength=q * q - 1).tolist()
    # a tower built afresh classifies as the cached one does, and one element
    # at a time as all at once
    fresh = build_tower(ctx.pr.p, ctx.pr.ell)
    assert oracle.classify_elements(ctx.elements, fresh).tolist() == ctx.cls.tolist()
    t = label_table(q)
    for g, at in zip(ctx.elements[:: 7 * q + 1].tolist(), ctx.cls[:: 7 * q + 1].tolist()):
        assert classify_element(tuple(g), fresh) == t.label(GL2Class, at)


def _conjugates(gf, g, group):
    """x g x^-1 for every x in the group, each product written out entry by entry."""
    def times(x, y):
        (a, b, c, d), (e, f, g_, h) = x, y
        return (
            gf.add(gf.mul(a, e), gf.mul(b, g_)),
            gf.add(gf.mul(a, f), gf.mul(b, h)),
            gf.add(gf.mul(c, e), gf.mul(d, g_)),
            gf.add(gf.mul(c, f), gf.mul(d, h)),
        )

    out = set()
    for x in group:
        a, b, c, d = x
        k = gf.inv(gf.sub(gf.mul(a, d), gf.mul(b, c)))
        inverse = (gf.mul(k, d), gf.mul(k, gf.neg(b)), gf.mul(k, gf.neg(c)), gf.mul(k, a))
        out.add(times(times(x, g), inverse))
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
def test_each_class_of_the_context_is_the_conjugacy_class_of_its_representative(q):
    # shares no code with the classifier: the elements the context puts in a
    # class are exactly the conjugates of the class's representative matrix
    ctx = oracle._context(q)
    gf = ctx.tower.gf_q
    group = [tuple(g) for g in ctx.elements.tolist()]
    assert len(set(group)) == len(group) == ctx.pr.order
    for at, cls in enumerate(enumerate_classes(ctx.pr)):
        members = {g for g, c in zip(group, ctx.cls.tolist()) if c == at}
        assert members == _conjugates(gf, oracle._matrix_for_class(cls, ctx.tower), group), cls


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


def test_the_batched_element_sums_are_the_scalar_ones():
    pr = params(3)
    rng = np.random.default_rng(7)
    triples = rng.integers(0, 8, size=(40, 3))
    irreps = enumerate_irreps(pr)
    assert oracle.elementwise_mults(3, triples) == [elementwise_mult(*(irreps[k] for k in t), 3) for t in triples.tolist()]
    with pytest.raises(GL2RepError, match=re.escape("an element-sum triple holds a position outside range(8) at q=3")):
        oracle.elementwise_mults(3, [[0, 8, 1]])
    with pytest.raises(BudgetExceeded):
        oracle.elementwise_mults(7, [[0, 0, 0]])


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


def test_bessel_reads_each_value_as_a_rational_integer(monkeypatch):
    monkeypatch.setattr(oracle, "char_value", lambda pi, c, pr: root(3, 1))
    with pytest.raises(NonIntegral, match="not a rational integer"):
        bessel_check(3)


def test_a_bessel_sum_not_divisible_by_q_is_named(monkeypatch):
    # every value 1 on the identity and 0 elsewhere: the trivial psi sums to 1
    monkeypatch.setattr(oracle, "char_value", lambda pi, c, pr: Cyclotomic.from_int(int(c.kind == "c1")))
    with pytest.raises(NonIntegral, match=f"^{re.escape('unipotent restriction sum = 1 is not divisible by 3')}$"):
        bessel_check(3)


def test_an_irrational_bessel_sum_is_named(monkeypatch):
    # the unipotent with b = 1 moved into the identity's class: for psi 1 the
    # exponents 0 and 2 fall in c1:0 and 1 in c2:0, so V:0, 3 and 0 there,
    # sums to 3 + 3 zeta_3^2, which is not rational
    real = oracle.OracleContext.classes_of

    def moved(self, matrices):
        at = real(self, matrices)
        return np.where((np.asarray(matrices) == (1, 0, 1, 1)).all(axis=-1), 0, at)

    monkeypatch.setattr(oracle.OracleContext, "classes_of", moved)
    text = "unipotent restriction sum of V:0 at psi 1 has coefficients [3, 0, 3] on the powers of zeta_3, not a rational integer"
    with pytest.raises(NonIntegral, match=f"^{re.escape(text)}$"):
        bessel_check(3)
