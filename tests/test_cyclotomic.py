"""Exact cyclotomic arithmetic: reduction, ring axioms, conjugation, integrality."""

import cmath
import hashlib
import math
import random
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2rep.cyclotomic import (
    MAX_ORDER,
    TABLE_BYTES_LIMIT,
    Cyclotomic,
    _cyclotomic_polynomial,
    cyclotomic_polynomial,
    euler_phi,
    fold_tensor,
    polynomial_bytes,
    power_coords,
    prime_powers,
    reduce_root_sum,
    root,
    tensor_roots,
)
from gl2rep import cyclotomic
from gl2rep.errors import BudgetExceeded, NonIntegral, OrderTooLarge


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


# sha256 of repr(cyclotomic_polynomial(n)), for every n <= 3000 in turn, and
# for two orders with four and five odd prime factors: the coefficients of the
# Moebius product of the binomials multiplied out and divided in Python ints
_POLYNOMIAL_DIGESTS = {
    range(1, 3001): "3f1bf866f8f672a26083309eb07836bd6de9e7840b0473b65801f604880b48ca",
    (15015,): "be94f9746f951208e8c7a3c731d2efe4059441a731105662be793e904c35e0a9",
    (30030,): "8cd119a3001c5125aa6edf09030069ddb3324a2976e8d07e9b2d20dc4651ee9d",
}


def test_cyclotomic_polynomials_equal_the_pinned_coefficients():
    for orders, digest in _POLYNOMIAL_DIGESTS.items():
        h = hashlib.sha256()
        for n in orders:
            h.update(repr(cyclotomic_polynomial(n)).encode())
        assert h.hexdigest() == digest, orders


@pytest.mark.parametrize("n", [510510, 1048575])
def test_a_polynomial_of_many_prime_factors_is_fast(n):
    # 2*3*5*7*11*13*17, and rs = 3*5^2*11*31*41 at q = 1024: 64 and 32 binomials
    _cyclotomic_polynomial.cache_clear()
    start = time.perf_counter()
    coefficients = cyclotomic_polynomial(n)
    assert time.perf_counter() - start < 0.3
    assert len(coefficients) == euler_phi(n) + 1 and coefficients[0] == coefficients[-1] == 1
    # the largest |coefficient|: Phi_510510(x) = Phi_255255(-x) has that of Phi_255255
    assert max(map(abs, coefficients)) == {510510: 532, 1048575: 42}[n]


def test_a_coefficient_that_could_leave_int64_is_refused(monkeypatch):
    monkeypatch.setattr(cyclotomic, "INT64_LIMIT", 64)
    _cyclotomic_polynomial.cache_clear()
    try:
        assert cyclotomic_polynomial(105)[7] == -2
        with pytest.raises(BudgetExceeded, match="cyclotomic polynomial 15015 could reach"):
            cyclotomic_polynomial(15015)
    finally:
        _cyclotomic_polynomial.cache_clear()


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


# Orders with two or more prime factors, where the tensor basis is not the
# power basis (at a prime power such as 8 the two coincide).
COMPOSITE_ORDERS = [15, 63, 80, 255, 1023, 4095]


@pytest.mark.parametrize("n", COMPOSITE_ORDERS)
def test_the_tensor_fold_agrees_with_the_power_fold(n):
    rng = np.random.default_rng(n)
    # w(e) = g(gcd(e, n)) sums to a rational integer: the zeta^e with gcd(e, n) = d
    # are the primitive n/d-th roots, whose sum is mu(n/d); a constant adds 0
    by_gcd = rng.integers(-(2**20), 2**20, n + 1)[np.gcd(np.arange(n), n)]
    rational = np.stack([by_gcd, 7 * by_gcd + 5])
    near = rational[:1].copy()
    near[0, rng.integers(1, n)] += 1
    rows = np.concatenate([rng.integers(-(2**40), 2**40, (3, n)), rational, near])
    folded = fold_tensor(n, rows)
    assert folded.shape == (len(rows), euler_phi(n))
    want = [reduce_root_sum(n, w).coords_at(n) for w in rows.tolist()]
    assert [power_coords(n, t) for t in folded.tolist()] == want
    # rational exactly when only coordinate 0 is nonzero, in either basis, with the same value
    assert (~folded[:, 1:].any(axis=1)).tolist() == [not any(w[1:]) for w in want] == [False] * 3 + [True] * 2 + [False]
    assert folded[3:5, 0].tolist() == [want[3][0], want[4][0]]


@pytest.mark.parametrize("n, per_exponent", [(15, 2.13), (63, 2.29), (80, 1.6), (255, 4.02), (1023, 4.69), (4095, 6.75)])
def test_every_entry_of_the_tensor_fold_is_a_sign(n, per_exponent):
    # the fold of the unit rows is the table of every zeta^e's tensor coordinates
    table = fold_tensor(n, np.eye(n, dtype=np.int8))
    assert set(np.unique(table).tolist()) <= {-1, 0, 1}
    count = np.count_nonzero(table)
    assert count == pytest.approx(n * math.prod(2 - 2 / p for p, _ in prime_powers(n)))
    assert round(count / n, 2) == per_exponent
    # basis vector j is the single root zeta^e with e = tensor_roots(n)[j], and 1 is basis vector 0
    roots = tensor_roots(n)
    assert roots[0] == 0 and len(set(roots.tolist())) == euler_phi(n)
    assert (table[roots] == np.eye(euler_phi(n), dtype=np.int8)).all()


def test_prime_powers_factor_n():
    assert prime_powers(1) == []
    assert prime_powers(4095) == [(3, 9), (5, 5), (7, 7), (13, 13)]
    assert prime_powers(80) == [(2, 16), (5, 5)]
    assert all(math.prod(m for _, m in prime_powers(n)) == n for n in range(1, 300))


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


def test_the_order_cap_is_where_the_polynomial_passes_the_byte_limit():
    # worked out from n, never allocated: the cap refuses the first order
    # whose cyclotomic polynomial would pass the limit, before building it
    assert polynomial_bytes(MAX_ORDER) <= TABLE_BYTES_LIMIT < polynomial_bytes(MAX_ORDER + 1)
    for build in (cyclotomic_polynomial, lambda n: root(n, 1), lambda n: Cyclotomic(n, ())):
        with pytest.raises(OrderTooLarge, match=f"needs about {polynomial_bytes(MAX_ORDER + 1)} bytes"):
            build(MAX_ORDER + 1)


@pytest.mark.parametrize("n", [2, 3, 97, 1024, 2310, 4095, 4620, 30030, 510510])
def test_the_polynomial_budget_is_at_least_the_traced_peak(n):
    # primes, prime powers and products of the first primes, whose binomial
    # products run longest; cold, as the first use of an order builds it
    _cyclotomic_polynomial.cache_clear()
    tracemalloc.start()
    try:
        _cyclotomic_polynomial(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= polynomial_bytes(n)


def test_concurrent_table_construction():
    orders = [17, 18, 19, 20, 21, 22, 23, 24] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda n: root(n, 1) * root(n, n - 1), orders))
    assert all(r == Cyclotomic.one() for r in results)
