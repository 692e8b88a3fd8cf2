"""Exact arithmetic in rings of cyclotomic integers Z[zeta_N].

Elements are stored as integer coordinate vectors in the power basis
1, zeta, ..., zeta^(phi(N)-1), reduced modulo the N-th cyclotomic
polynomial.  Because the cyclotomic polynomial is monic with integer
coefficients, reduction is exact integer arithmetic throughout: equality,
conjugation and integrality tests are all decidable without floating
point.  Values of characters of the groups handled by this package are
always of this form.

Class sums are folded in another Z-basis of Z[zeta_N], the tensor basis
of the prime-power factors (``fold_tensor``), whose coordinates convert
to the power basis through ``power_coords``.

Mixed orders are supported by promoting both operands into Z[zeta_L]
with L = lcm of the orders.  Elements whose reduced form is a rational
integer are demoted to order 1, so integers coming out of different
computations compare equal structurally.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import NonIntegral, OrderTooLarge

# The ~1 GB rule: the most bytes one computation may hold, worked out before
# anything is allocated.
TABLE_BYTES_LIMIT = 1 << 30

# Bytes _cyclotomic_polynomial(n) holds per unit of n at its peak.  Its
# longest list is the product of the binomials x^(n/e) - 1 with mu(e) = 1,
# of degree below 1.8 n for every n with at most seven prime factors, so for
# every n below 2*3*5*7*11*13*17*19 and every n up to MAX_ORDER.  Per unit of
# that degree it holds at most three lists of pointers and two generations
# of int objects, 88 bytes: 159 per unit of n, rounded up.  Under tracemalloc
# it peaks at 145 bytes per unit of n at n = 510510, the product of the
# first seven primes, and at most 30 at any prime or prime power.
POLYNOMIAL_ORDER_BYTES = 192


def polynomial_bytes(n: int) -> int:
    """About the most bytes _cyclotomic_polynomial(n) holds, from n alone."""
    return POLYNOMIAL_ORDER_BYTES * (n + 1)


# The largest order whose cyclotomic polynomial fits TABLE_BYTES_LIMIT.
MAX_ORDER = TABLE_BYTES_LIMIT // POLYNOMIAL_ORDER_BYTES - 1


def smallest_prime_factor(n: int) -> int:
    """The smallest prime factor of n >= 2, by trial division up to isqrt(n)."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def prime_powers(n: int) -> list[tuple[int, int]]:
    """The pairs (p, p^k), one per prime p dividing n >= 1 and p^k its exact power, p increasing."""
    out = []
    while n > 1:
        p, m = smallest_prime_factor(n), 1
        while n % p == 0:
            n, m = n // p, m * p
        out.append((p, m))
    return out


def euler_phi(n: int) -> int:
    """Euler totient of a positive integer."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    return math.prod(m - m // p for p, m in prime_powers(n))


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError("root-of-unity order must be >= 1")
    if n > MAX_ORDER:
        raise OrderTooLarge(
            f"order {n} exceeds cap {MAX_ORDER}: its cyclotomic polynomial needs about "
            f"{polynomial_bytes(n)} bytes, over the limit of {TABLE_BYTES_LIMIT}"
        )


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the monic N-th cyclotomic polynomial.

    The Moebius product over the squarefree divisors e of n of the binomials
    (x^(n/e) - 1)^mu(e): the product of those with mu(e) = 1, divided exactly
    by each of the rest.
    """
    _check_order(n)
    return _cyclotomic_polynomial(n)


@lru_cache(maxsize=None)
def _cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    # the exponents n/e with mu(e) = 1 and with mu(e) = -1, one prime factor p of n at a time
    plus, minus = [n], []
    for p, _ in prime_powers(n):
        plus, minus = plus + [m // p for m in minus], minus + [m // p for m in plus]
    poly = [1]
    for m in plus:
        # times x^m - 1
        poly = [c - (poly[i] if i < len(poly) else 0) for i, c in enumerate([0] * m + poly)]
    for m in minus:
        # over x^m - 1: poly = quot * (x^m - 1) gives quot[i] = quot[i - m] - poly[i]
        poly = [-c for c in poly[: len(poly) - m]]
        for i in range(m, len(poly)):
            poly[i] += poly[i - m]
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero power-basis coordinates (k, c) of zeta_n^j for every j in range(n)."""
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    rows: list[tuple[tuple[int, int], ...]] = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple((k, c) for k, c in enumerate(cur) if c))
        shifted = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for i in range(deg):
                shifted[i] -= lead * phi_poly[i]
        cur = shifted
    return tuple(rows)


@lru_cache(maxsize=None)
def _crt_order(n: int) -> np.ndarray:
    """The exponents e in range(n) in the order of the grid of their CRT
    components: with p_i^k_i = prime_powers(n)[i] and z_i = zeta_n**(n / p_i^k_i)
    a primitive p_i^k_i-th root, zeta_n**e is the product of the z_i**f_i, and
    position (f_1, ..., f_m), first component most significant, holds
    e = sum(f_i * n / p_i^k_i) mod n."""
    order = np.zeros(1, dtype=np.int64)
    for _, m in prime_powers(n):
        order = (order[:, None] + np.arange(m) * (n // m)).ravel() % n
    order.setflags(write=False)
    return order


def tensor_roots(n: int) -> np.ndarray:
    """The exponent e of each tensor basis vector of Z[zeta_n], in coordinate
    order: basis vector (j_1, ..., j_m), every j_i < phi(p_i^k_i), is the single
    root zeta_n**e of the position (j_1, ..., j_m) of ``_crt_order``."""
    factors = prime_powers(n)
    cut = tuple(slice(m - m // p) for p, m in factors)
    return _crt_order(n).reshape([m for _, m in factors])[cut].ravel()


def fold_tensor(n: int, weights: np.ndarray) -> np.ndarray:
    """Tensor-basis coordinates of sum_e weights[i, e] * zeta_n**e for every row i
    of a (rows, n) integer array, as a (rows, phi(n)) array of the same dtype.

    Z[zeta_n] is the tensor product of the Z[z_i] (``_crt_order``), each with
    the basis z_i**j, j < phi(p^k).  The weights are laid out on the grid of
    CRT components and reduced one component at a time: z**f for
    f = phi(p^k) + u is -sum(z**(u + i*p^(k-1)) for i < p - 1), as the p-th
    cyclotomic polynomial in z**(p^(k-1)) vanishes.  Every coefficient of the
    fold is therefore 0 or +-1, and so is every partial result: no coordinate
    exceeds the sum of the absolute weights.  Basis vector 0 is 1.
    """
    rows, before, after = len(weights), 1, n
    x = weights[:, _crt_order(n)]
    for p, m in prime_powers(n):
        after //= m
        phi = m - m // p
        x = x.reshape(rows, before, m, after)
        # basis vector u + i*p^(k-1), for each i < p - 1, loses the weight at phi + u
        x = x[:, :, :phi].reshape(rows, before, p - 1, m // p, after) - x[:, :, None, phi:]
        before *= phi
    return x.reshape(rows, before)


def power_coords(n: int, coords) -> list[int]:
    """The power-basis coordinates of an element of Z[zeta_n] given by its
    tensor-basis coordinates (``fold_tensor``)."""
    return _fold(n, zip(tensor_roots(n).tolist(), coords))


def _fold(n: int, terms: Iterable[tuple[int, int]]) -> list[int]:
    """Power-basis coordinates of sum(w * zeta_n**e) over (e, w) in terms, each e in range(n)."""
    table = _power_table(n)
    out = [0] * (len(_cyclotomic_polynomial(n)) - 1)
    for e, w in terms:
        if w:
            for k, c in table[e]:
                out[k] += w * c
    return out


def demote(order: int, coeffs):
    """(1, coeffs[:1]) when only coordinate 0 is nonzero, as every rational
    integer is stored; otherwise (order, coeffs).  This and the coords_*
    forms below act on coordinates: Cyclotomic delegates to them, and the
    CLI calls them on folded coordinates without building a Cyclotomic."""
    return (1, coeffs[:1]) if order > 1 and not any(coeffs[1:]) else (order, coeffs)


def coords_complex(order: int, coeffs) -> complex:
    """The complex value of sum(coeffs[i] * zeta_order**i)."""
    return sum(c * cmath.exp(2j * cmath.pi * i / order) for i, c in enumerate(coeffs) if c) or complex(0)


def coords_text(order: int, coeffs) -> str:
    """Textual form "c0 + c1*z + ..." with z = zeta_order, of demoted coordinates."""
    if order == 1:
        return str(coeffs[0])
    text = ""
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mono = "z" if i == 1 else f"z^{i}"
        part = str(c) if i == 0 else mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}"
        if text:
            part = f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        text += part
    return f"{text}  (z = zeta_{order})" if text else "0"


def coords_json(order: int, coeffs) -> dict:
    """JSON encoding of demoted coordinates: exact coordinates plus an advisory float."""
    z = coords_complex(order, coeffs)
    return {
        "order": order,
        "coeffs": list(coeffs),
        "approx": [float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")],
    }


class Cyclotomic:
    """An element of Z[zeta_N] in reduced power-basis form.

    Instances are immutable; all operations return new values.  Two
    values are equal iff their coordinate vectors agree after promotion
    to the lcm of their orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int]):
        _check_order(order)
        coeffs = tuple(int(c) for c in coeffs)
        deg = euler_phi(order)
        if len(coeffs) != deg:
            raise ValueError(f"expected {deg} coordinates for order {order}")
        order, coeffs = demote(order, coeffs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @staticmethod
    def from_int(value: int) -> "Cyclotomic":
        return Cyclotomic(1, (value,))

    @staticmethod
    def zero() -> "Cyclotomic":
        return Cyclotomic(1, (0,))

    @staticmethod
    def one() -> "Cyclotomic":
        return Cyclotomic(1, (1,))

    def coords_at(self, order: int) -> list[int]:
        """Raw power-basis coordinates in Z[zeta_order]; no demotion applied."""
        if order == self.order:
            return list(self.coeffs)
        if order % self.order:
            raise ValueError("can only promote to a multiple of the order")
        _check_order(order)
        step = order // self.order
        return _fold(order, ((i * step, c) for i, c in enumerate(self.coeffs)))

    @staticmethod
    def _coerce(value) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, int):
            return Cyclotomic.from_int(value)
        return NotImplemented

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        l = math.lcm(self.order, other.order)
        va, vb = self.coords_at(l), other.coords_at(l)
        return Cyclotomic(l, tuple(x + y for x, y in zip(va, vb)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.order, tuple(other * c for c in self.coeffs))
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = math.lcm(self.order, other.order)
        va, vb = self.coords_at(n), other.coords_at(n)
        prod = _poly_mul(va, vb)
        deg = len(va)
        # the first deg coefficients are already reduced; fold the rest back in
        high = _fold(n, ((i % n, prod[i]) for i in range(deg, len(prod))))
        return Cyclotomic(n, (low + c for low, c in zip(prod, high)))

    __rmul__ = __mul__

    def conj(self) -> "Cyclotomic":
        """Image under zeta -> zeta^(-1); an involutive ring automorphism."""
        n = self.order
        if n == 1:
            return self
        return Cyclotomic(n, _fold(n, ((-i % n, c) for i, c in enumerate(self.coeffs))))

    def as_integer(self) -> int:
        """The value as a rational integer, or NonIntegral if it is not one."""
        if self.order != 1:
            raise NonIntegral(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        l = math.lcm(self.order, other.order)
        return self.coords_at(l) == other.coords_at(l)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __complex__(self) -> complex:
        return coords_complex(self.order, self.coeffs)

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.coeffs})"

    def __str__(self):
        return self.render()

    def render(self) -> str:
        """Textual form "c0 + c1*z + ..." with z = zeta_N."""
        return coords_text(self.order, self.coeffs)

    def as_json(self) -> dict:
        """JSON encoding: exact coordinates plus an advisory float."""
        return coords_json(self.order, self.coeffs)


def root(n: int, e: int) -> Cyclotomic:
    """The root of unity zeta_n**e in reduced form; root(n, 0) is 1."""
    _check_order(n)
    if n == 1:
        return Cyclotomic.one()
    return Cyclotomic(n, _fold(n, ((e % n, 1),)))


def root_coords(n: int) -> tuple[tuple[int, ...], ...]:
    """Dense reduced coordinates of zeta_n**e for e in range(n)."""
    return tuple(tuple(_fold(n, ((e, 1),))) for e in range(n))


def reduce_root_sum(n: int, weights: Sequence[int]) -> Cyclotomic:
    """Exact value of sum(weights[e] * zeta_n**e for e in range(n))."""
    if len(weights) != n:
        raise ValueError("need one weight per exponent")
    return Cyclotomic(n, _fold(n, enumerate(weights)))
