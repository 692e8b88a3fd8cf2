"""Exact cyclotomic arithmetic: reduction, ring axioms, conjugation, integrality."""

import cmath
import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2rep.cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    reduce_root_sum,
    root,
)
from gl2rep.errors import NonIntegral, OrderTooLarge


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [3, 5, 8, 12, 15, 24, 30])
def test_cyclotomic_polynomial_against_numeric_roots(n):
    # independent route: expand prod (x - z) over primitive n-th roots numerically
    prim = [cmath.exp(2j * cmath.pi * k / n) for k in range(1, n + 1) if math.gcd(k, n) == 1]
    numeric = np.poly(prim)  # leading coefficient first
    got = cyclotomic_polynomial(n)
    assert len(got) == len(prim) + 1
    for coeff, approx in zip(got, reversed(numeric)):
        assert abs(coeff - approx.real) < 1e-8
        assert abs(approx.imag) < 1e-8


def test_degree_is_totient():
    for n in (1, 2, 6, 9, 16, 21):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_root_identity_and_minus_one():
    assert root(7, 0) == Cyclotomic.one()
    assert root(2, 1).as_integer() == -1
    assert root(6, 3).as_integer() == -1


def test_root_pair_sums_to_minus_one():
    x = root(6, 2) + root(6, -2)
    assert x.as_integer() == -1
    z = complex(root(6, 2))
    assert abs(z - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_inverse_pair_multiplies_to_one():
    for n in (5, 8, 12):
        assert root(n, 1) * root(n, n - 1) == Cyclotomic.one()


@pytest.mark.parametrize("r", [2, 4, 6, 8])
def test_orthogonality_relation_for_alpha(r):
    for a in range(r):
        total = Cyclotomic.zero()
        for j in range(r):
            total = total + root(r, a * j)
        assert total == Cyclotomic.from_int(r if a == 0 else 0)


def test_product_matches_numeric():
    x = (Cyclotomic.one() + root(5, 1)) * (Cyclotomic.one() + root(5, 4))
    numeric = (1 + cmath.exp(2j * cmath.pi / 5)) * (1 + cmath.exp(8j * cmath.pi / 5))
    assert abs(complex(x) - numeric) < 1e-12


def test_mixed_order_arithmetic():
    # zeta_4 * zeta_6 = zeta_12^5
    assert root(4, 1) * root(6, 1) == root(12, 5)
    assert root(3, 1) + root(2, 1) == root(6, 2) + root(6, 3)


def test_conj_fixes_integers_and_inverts_roots():
    assert Cyclotomic.from_int(17).conj() == Cyclotomic.from_int(17)
    for n in (5, 8, 9):
        assert root(n, 1).conj() == root(n, n - 1)


def _random_cyclotomic(rng, order):
    x = Cyclotomic.zero()
    for _ in range(3):
        x = x + rng.randint(-4, 4) * root(order, rng.randrange(order))
    return x


def test_conj_is_multiplicative_and_involutive():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice([3, 4, 6, 8, 12, 24])
        x, y = _random_cyclotomic(rng, n), _random_cyclotomic(rng, n)
        assert (x * y).conj() == x.conj() * y.conj()
        assert x.conj().conj() == x


def test_as_integer():
    zero = root(3, 0) + root(3, 1) + root(3, 2)
    assert zero.as_integer() == 0
    with pytest.raises(NonIntegral):
        root(5, 1).as_integer()


def test_reduce_root_sum_matches_direct_sum():
    rng = random.Random(3)
    for n in (6, 8, 12):
        weights = [rng.randint(-5, 5) for _ in range(n)]
        direct = Cyclotomic.zero()
        for e, w in enumerate(weights):
            direct = direct + w * root(n, e)
        assert reduce_root_sum(n, weights) == direct


@st.composite
def cyclotomics(draw):
    order = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=euler_phi(order), max_size=euler_phi(order)))
    return Cyclotomic(order, coeffs)


@settings(max_examples=150, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=100, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_canonical_uniqueness_matches_numeric(x, y):
    diff = x - y
    numerically_equal = abs(complex(x) - complex(y)) < 1e-9
    assert (diff == 0) == numerically_equal


def test_integer_demotion_is_transparent():
    x = root(8, 2) * root(8, 2)  # zeta_4^2 = -1
    assert x.order == 1
    assert x == Cyclotomic.from_int(-1)
    promoted = Cyclotomic.from_int(-1).coords_at(8)
    assert promoted == [-1, 0, 0, 0]


def test_render_and_json():
    x = 2 * root(8, 1) - Cyclotomic.from_int(3)
    text = x.render()
    assert "z" in text and "zeta_8" in text
    blob = x.as_json()
    assert blob["order"] == 8 and len(blob["coeffs"]) == 4


def test_order_cap():
    with pytest.raises(OrderTooLarge):
        root(2**31 + 1, 1)


def test_concurrent_table_construction():
    orders = [17, 18, 19, 20, 21, 22, 23, 24] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda n: root(n, 1) * root(n, n - 1), orders))
    assert all(r == Cyclotomic.one() for r in results)
