"""Concrete finite-field towers F_p < F_q < F_{q^2} for the brute-force oracle.

Elements of F_{p^m} are encoded as integers in [0, p^m): the base-p
digits are the coefficients of a residue polynomial modulo a fixed
irreducible monic polynomial of degree m.  Moduli are the encoding-wise
smallest irreducible polynomials, so towers are reproducible without
external tables.  The tower keeps primitive elements sigma of F_{q^2}
and rho = sigma^(q+1) of F_q together with dense discrete-log tables on
both multiplicative groups; this is what lets the oracle read class
parameters straight off matrix eigenvalues.

Arithmetic is read from addition, negation, multiplication and inverse
tables built once per field; the multiplication table reduces through
the same polynomial remainder that tests moduli for irreducibility.
Scale is capped at q <= 16, so the largest field is F_256 and a table
has at most 65 536 entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import smallest_prime_factor
from .errors import BudgetExceeded, GL2RepError, NotPrime, NotPrimePower, ZeroElement

MAX_Q = 16


def is_prime(p: int) -> bool:
    return p >= 2 and smallest_prime_factor(p) == p


class GF:
    """Arithmetic in F_{p^m} with integer-encoded elements, read from tables."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.size = p**m
        self.modulus = modulus  # monic, length m + 1, constant term first
        weights = p ** np.arange(m)
        digits = np.arange(self.size)[:, None] // weights % p
        # a*b = sum of a_i b_j x^(i+j), with each x^k reduced modulo the modulus
        reduced = np.array([_poly_mod(x, modulus, p) for x in np.eye(2 * m - 1, dtype=int).tolist()])
        ij = np.add.outer(np.arange(m), np.arange(m))
        mul = np.einsum("ai,bj,ijk->abk", digits, digits, reduced[ij], optimize=True) % p @ weights
        self.add_table: list[list[int]] = ((digits[:, None] + digits[None]) % p @ weights).tolist()
        self.mul_table: list[list[int]] = mul.tolist()
        self.neg_table: list[int] = (-digits % p @ weights).tolist()
        # row 0 has no 1 and reads 0 here; inv(0) raises before reading it
        self.inv_table: list[int] = np.argmax(mul == 1, axis=1).tolist()

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("zero has no multiplicative inverse")
        return self.inv_table[a]

    def mult_order(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("zero has no multiplicative order")
        n, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n


def _poly_from_encoding(p: int, m: int, enc: int) -> tuple[int, ...]:
    """Monic degree-m polynomial whose lower coefficients encode enc base p."""
    coeffs = []
    for _ in range(m):
        coeffs.append(enc % p)
        enc //= p
    return tuple(coeffs) + (1,)


def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    num = [c % p for c in num]
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            for j in range(dn + 1):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % p
    return num[:dn]


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every lower-degree monic polynomial."""
    m = len(poly) - 1
    for deg in range(1, m // 2 + 1):
        for enc in range(p**deg):
            den = _poly_from_encoding(p, deg, enc)
            rem = _poly_mod(list(poly), den, p)
            if not any(rem):
                return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The irreducible monic polynomial of degree m with smallest encoding."""
    for enc in range(p**m):
        poly = _poly_from_encoding(p, m, enc)
        if _is_irreducible(poly, p):
            return poly
    raise GL2RepError(f"no irreducible polynomial of degree {m} over F_{p}")


@dataclass
class FieldTower:
    """F_q inside F_{q^2} with compatible primitive elements and dlog tables."""

    p: int
    ell: int
    q: int
    gf_q: GF
    gf_q2: GF
    embed: list[int]  # F_q element -> its image in F_{q^2}
    sigma: int  # primitive in F_{q^2}, order rs
    rho: int  # primitive in F_q (as an F_q element), order r; sigma^s = embed[rho]
    # entry x - 1 is the exponent of the nonzero x: sigma^k = x in F_{q^2}, rho^k = x in F_q
    dlog_q_table: np.ndarray = field(repr=False)
    dlog_q2_table: np.ndarray = field(repr=False)

    @property
    def r(self) -> int:
        return self.q - 1

    @property
    def s(self) -> int:
        return self.q + 1

    def dlog_q(self, x: int) -> int:
        """Exponent k with rho^k = x, for nonzero x in F_q."""
        if x == 0:
            raise ZeroElement("dlog of zero")
        return int(self.dlog_q_table[x - 1])

    def dlog_q2(self, x: int) -> int:
        """Exponent k with sigma^k = x, for nonzero x in F_{q^2}."""
        if x == 0:
            raise ZeroElement("dlog of zero")
        return int(self.dlog_q2_table[x - 1])


def build_tower(p: int, ell: int) -> FieldTower:
    """Construct the tower for q = p^ell; oracle budget caps q at 16."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if ell < 1:
        raise NotPrimePower(f"{p}^{ell} is not a prime power: the exponent must be >= 1")
    q = p**ell
    if q > MAX_Q:
        raise BudgetExceeded(f"q={q} exceeds the oracle budget {MAX_Q}")

    gf_q = GF(p, ell, smallest_irreducible(p, ell))
    gf_q2 = GF(p, 2 * ell, smallest_irreducible(p, 2 * ell))

    # Embed F_q into F_{q^2} by sending the residue-class generator to a
    # root of the F_q modulus; constants map to constants.
    if ell == 1:
        theta = 0  # unused beyond theta^0
    else:
        theta = next(
            x for x in range(gf_q2.size) if _eval_poly(gf_q2, gf_q.modulus, x) == 0
        )
    powers = [1]
    for _ in range(ell - 1):
        powers.append(gf_q2.mul(powers[-1], theta))
    embed = []
    for a in range(gf_q.size):
        img = 0
        for digit, power in zip(gf_q.digits(a), powers):
            img = gf_q2.add(img, gf_q2.mul(digit % p, power))
        embed.append(img)
    if len(set(embed)) != q:
        raise GL2RepError(f"the embedding of F_{q} into F_{q * q} is not injective")

    rs = q * q - 1
    sigma = next(x for x in range(1, gf_q2.size) if gf_q2.mult_order(x) == rs)
    rho_image = gf_q2.pow(sigma, q + 1)
    rho = embed.index(rho_image)

    dlog_q, dlog_q2 = _dlog_table(gf_q, rho, q - 1), _dlog_table(gf_q2, sigma, rs)
    if dlog_q is None or dlog_q2 is None:
        raise GL2RepError(f"rho^{q - 1} or sigma^{rs} is not 1 in the tower for q={q}")
    return FieldTower(
        p=p, ell=ell, q=q, gf_q=gf_q, gf_q2=gf_q2, embed=embed, sigma=sigma, rho=rho,
        dlog_q_table=dlog_q, dlog_q2_table=dlog_q2,
    )


def _dlog_table(gf: GF, g: int, order: int) -> np.ndarray | None:
    """The exponent k of g^k = x at entry x - 1, for the ``order`` powers of g,
    or None if g^order is not 1.  Entries no power reaches hold -1."""
    table = np.full(gf.size - 1, -1, dtype=np.int64)
    x = 1
    for k in range(order):
        table[x - 1] = k
        x = gf.mul(x, g)
    return table if x == 1 else None


def _eval_poly(gf: GF, poly: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = gf.add(gf.mul(acc, x), c % gf.p)
    return acc
