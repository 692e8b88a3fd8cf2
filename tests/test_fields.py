"""Field towers: moduli, primitive elements, embeddings, dlog tables."""

import random

import pytest

from gl2rep.errors import BudgetExceeded, GL2RepError, NotPrime, ZeroElement
from gl2rep.fields import build_tower, smallest_irreducible


def test_q2_tower_is_degenerate_but_valid():
    t = build_tower(2, 1)
    assert t.q == 2
    assert t.rho == 1  # r = 1 forces the trivial group
    assert t.gf_q2.mult_order(t.sigma) == 3


def test_q3_tower():
    t = build_tower(3, 1)
    # exhaustive order check over the eight nonzero elements of F_9
    orders = {x: t.gf_q2.mult_order(x) for x in range(1, 9)}
    assert sorted(orders.values()) == [1, 2, 4, 4, 8, 8, 8, 8]
    assert orders[t.sigma] == 8
    assert t.gf_q2.pow(t.sigma, 4) == t.embed[t.rho]
    assert t.gf_q.mult_order(t.rho) == 2


def test_q4_tower():
    t = build_tower(2, 2)
    assert t.q == 4
    assert t.gf_q2.mult_order(t.sigma) == 15
    assert t.gf_q.mult_order(t.rho) == 3
    assert t.embed[t.rho] == t.gf_q2.pow(t.sigma, 5)


@pytest.mark.parametrize("p,ell", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3), (11, 1), (13, 1), (2, 4)])
def test_dlog_round_trips(p, ell):
    t = build_tower(p, ell)
    for k in range(t.r):
        assert t.dlog_q(t.gf_q.pow(t.rho, k)) == k
    for k in range(t.q * t.q - 1):
        assert t.dlog_q2(t.gf_q2.pow(t.sigma, k)) == k
    # the tables are total on the nonzero elements
    assert len(t.dlog_q_table) == t.r
    assert len(t.dlog_q2_table) == t.q * t.q - 1


@pytest.mark.parametrize("p,ell", [(3, 1), (2, 2), (5, 1)])
def test_frobenius_additivity(p, ell):
    t = build_tower(p, ell)
    rng = random.Random(11)
    for gf in (t.gf_q, t.gf_q2):
        for _ in range(60):
            x, y = rng.randrange(gf.size), rng.randrange(gf.size)
            assert gf.pow(gf.add(x, y), p) == gf.add(gf.pow(x, p), gf.pow(y, p))


def test_norm_compatibility():
    t = build_tower(3, 1)
    embedded = set(t.embed)
    for k in range(8):
        assert t.gf_q2.pow(t.sigma, 4 * k) in embedded


def test_embedding_is_a_field_homomorphism():
    t = build_tower(2, 2)
    gf, gf2, e = t.gf_q, t.gf_q2, t.embed
    for x in range(4):
        for y in range(4):
            assert e[gf.add(x, y)] == gf2.add(e[x], e[y])
            assert e[gf.mul(x, y)] == gf2.mul(e[x], e[y])


def test_moduli_are_deterministic():
    assert smallest_irreducible(2, 1) == smallest_irreducible(2, 1)
    # degree-2 modulus over F_2 must be the unique irreducible x^2 + x + 1
    assert smallest_irreducible(2, 2) == (1, 1, 1)


def test_errors():
    with pytest.raises(NotPrime):
        build_tower(6, 1)
    with pytest.raises(BudgetExceeded):
        build_tower(17, 1)
    t = build_tower(3, 1)
    with pytest.raises(ZeroElement):
        t.dlog_q(0)
    with pytest.raises(ZeroElement):
        t.dlog_q2(0)


def test_bad_field_input_raises_package_errors():
    t = build_tower(3, 1)
    for gf in (t.gf_q, t.gf_q2):
        with pytest.raises(ZeroElement):
            gf.inv(0)
    with pytest.raises(GL2RepError):
        build_tower(2, 0)


# the towers of test_dlog_round_trips, up to F_256
@pytest.mark.parametrize("p,ell", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3), (11, 1), (13, 1), (2, 4)])
def test_field_tables_obey_the_field_laws(p, ell):
    t = build_tower(p, ell)
    rng = random.Random(5)
    for gf in (t.gf_q, t.gf_q2):
        elements = range(gf.size)
        for a in elements:
            assert gf.add(a, gf.neg(a)) == 0
            assert gf.sub(a, a) == 0
            if a:
                assert gf.mul(a, gf.inv(a)) == 1
        for _ in range(200):
            a, b, c = (rng.randrange(gf.size) for _ in range(3))
            assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        if p == 2:
            assert all(gf.add(a, b) == a ^ b for a in elements for b in elements)
