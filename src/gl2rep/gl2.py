"""Conjugacy classes, irreducible characters and labels for GL2(q).

Parameter conventions: r = q - 1, s = q + 1.  The four class types are

    c1(k)        central  diag(rho^k, rho^k)             size 1,  r classes
    c2(k)        non-semisimple, eigenvalue rho^k        size rs, r classes
    c3([k,l])    split semisimple diag(rho^k, rho^l)     size qs, r(r-1)/2
    c4([m])      irreducible char. poly, eigenvalue      size qr, qr/2
                 sigma^m over F_{q^2}

and the four irreducible families are U_a (dim 1), V_a (dim q),
W_[a,b] (dim s) and X_[n] (dim r).  W labels are unordered pairs of
distinct residues mod r; X labels and c4 labels are orbits {n, qn} in
Z_rs of residues with n != 0 mod s.  Character values are expressed
through the multiplicative characters alpha_a (order r, alpha_a(rho) =
zeta_r^a) and phi_n (order rs, phi_n(sigma) = zeta_rs^n), with the
compatibilities alpha_a(rho^j) = phi_{s*a}(sigma^j) and phi_n(sigma^{s*j})
= alpha_{n mod r}(rho^j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .cyclotomic import Cyclotomic, reduce_root_sum
from .errors import GL2RepError, InvalidLabel, MismatchedQ, NonIntegral, NotPrimePower

IRREP_KINDS = ("U", "V", "W", "X")
CLASS_KINDS = ("c1", "c2", "c3", "c4")


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    # a composite q has a prime factor p <= isqrt(q); the smallest divisor is prime
    p = next((p for p in range(2, math.isqrt(q) + 1) if q % p == 0), q)
    ell = 0
    m = q
    while m % p == 0:
        m //= p
        ell += 1
    if m != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, ell


@dataclass(frozen=True)
class GroupParams:
    """Derived integer constants for a fixed prime power q."""

    q: int
    p: int
    ell: int
    r: int
    s: int
    rs: int
    t: int
    d: int
    order: int

    def __post_init__(self):
        q, r, s = self.q, self.r, self.s
        if r * s != q * q - 1 or self.d not in (1, 3) or self.order != q * s * r * r:
            raise GL2RepError(f"inconsistent group constants {self}")


@lru_cache(maxsize=None)
def params(q: int) -> GroupParams:
    """Group constants for GL2(q); raises NotPrimePower for bad q."""
    p, ell = _factor_prime_power(q)
    r, s = q - 1, q + 1
    return GroupParams(
        q=q,
        p=p,
        ell=ell,
        r=r,
        s=s,
        rs=r * s,
        t=q * q + q + 1,
        d=math.gcd(3, r),
        order=q * s * r * r,
    )


def x_canonical(n: int, pr: GroupParams) -> int:
    """Canonical representative min(n, q*n) of an orbit in the X parameter set."""
    n %= pr.rs
    if n % pr.s == 0:
        raise InvalidLabel(f"X-type parameter {n} is 0 mod s={pr.s}")
    return min(n, (pr.q * n) % pr.rs)


def x_orbit_reps(pr: GroupParams) -> list[int]:
    """Sorted canonical representatives of the X parameter orbits."""
    seen = []
    for n in range(pr.rs):
        if n % pr.s == 0:
            continue
        if n <= (pr.q * n) % pr.rs:
            seen.append(n)
    return seen


def w_pairs(pr: GroupParams) -> list[tuple[int, int]]:
    """Sorted unordered pairs of distinct residues mod r."""
    return [(a, b) for a in range(pr.r) for b in range(a + 1, pr.r)]


class _Label:
    """Shared behaviour of parameterised GL2(q) labels."""

    __slots__ = ("q", "kind", "data")

    def __init__(self, q: int, kind: str, data: tuple[int, ...]):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("labels are immutable")

    def _key(self):
        return (self.kind, self.data)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.q != other.q:
            raise MismatchedQ(f"comparing labels for q={self.q} and q={other.q}")
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self.q, self.kind, self.data))

    def label(self) -> str:
        if not self.data:
            return self.kind
        return f"{self.kind}:{','.join(str(v) for v in self.data)}"

    def __repr__(self):
        return f"{type(self).__name__}({self.label()!r}, q={self.q})"

    def sort_key(self):
        return (self._kind_index(), self.data)

    def _kind_index(self) -> int:
        raise NotImplementedError


class GL2Irrep(_Label):
    """Canonical label of an irreducible representation of GL2(q)."""

    def _kind_index(self) -> int:
        return IRREP_KINDS.index(self.kind)

    @staticmethod
    def U(pr: GroupParams, a: int) -> "GL2Irrep":
        return GL2Irrep(pr.q, "U", (a % pr.r,))

    @staticmethod
    def V(pr: GroupParams, a: int) -> "GL2Irrep":
        return GL2Irrep(pr.q, "V", (a % pr.r,))

    @staticmethod
    def W(pr: GroupParams, a: int, b: int) -> "GL2Irrep":
        a, b = a % pr.r, b % pr.r
        if a == b:
            raise InvalidLabel(f"W pair needs distinct residues, got {{{a},{b}}}")
        return GL2Irrep(pr.q, "W", (min(a, b), max(a, b)))

    @staticmethod
    def X(pr: GroupParams, n: int) -> "GL2Irrep":
        return GL2Irrep(pr.q, "X", (x_canonical(n, pr),))

    def dim(self) -> int:
        pr = params(self.q)
        return {"U": 1, "V": pr.q, "W": pr.s, "X": pr.r}[self.kind]

    def dual(self) -> "GL2Irrep":
        pr = params(self.q)
        if self.kind == "U":
            return GL2Irrep.U(pr, -self.data[0])
        if self.kind == "V":
            return GL2Irrep.V(pr, -self.data[0])
        if self.kind == "W":
            return GL2Irrep.W(pr, -self.data[0], -self.data[1])
        return GL2Irrep.X(pr, -self.data[0])


class GL2Class(_Label):
    """Canonical label of a conjugacy class of GL2(q)."""

    def _kind_index(self) -> int:
        return CLASS_KINDS.index(self.kind)

    @staticmethod
    def C1(pr: GroupParams, k: int) -> "GL2Class":
        return GL2Class(pr.q, "c1", (k % pr.r,))

    @staticmethod
    def C2(pr: GroupParams, k: int) -> "GL2Class":
        return GL2Class(pr.q, "c2", (k % pr.r,))

    @staticmethod
    def C3(pr: GroupParams, k: int, l: int) -> "GL2Class":
        k, l = k % pr.r, l % pr.r
        if k == l:
            raise InvalidLabel(f"c3 pair needs distinct residues, got {{{k},{l}}}")
        return GL2Class(pr.q, "c3", (min(k, l), max(k, l)))

    @staticmethod
    def C4(pr: GroupParams, m: int) -> "GL2Class":
        return GL2Class(pr.q, "c4", (x_canonical(m, pr),))

    def size(self) -> int:
        pr = params(self.q)
        return {"c1": 1, "c2": pr.rs, "c3": pr.q * pr.s, "c4": pr.q * pr.r}[self.kind]


def enumerate_irreps(pr: GroupParams) -> list[GL2Irrep]:
    """All q^2 - 1 irreducible labels in canonical order."""
    out = [GL2Irrep.U(pr, a) for a in range(pr.r)]
    out += [GL2Irrep.V(pr, a) for a in range(pr.r)]
    out += [GL2Irrep.W(pr, a, b) for a, b in w_pairs(pr)]
    out += [GL2Irrep.X(pr, n) for n in x_orbit_reps(pr)]
    return out


def enumerate_classes(pr: GroupParams) -> list[GL2Class]:
    """All q^2 - 1 conjugacy class labels in canonical order."""
    out = [GL2Class.C1(pr, k) for k in range(pr.r)]
    out += [GL2Class.C2(pr, k) for k in range(pr.r)]
    out += [GL2Class.C3(pr, k, l) for k, l in w_pairs(pr)]
    out += [GL2Class.C4(pr, m) for m in x_orbit_reps(pr)]
    return out


def _check_same_q(a, b, pr: GroupParams) -> None:
    if a.q != pr.q or b.q != pr.q:
        raise MismatchedQ(f"labels {a!r}, {b!r} do not both live over q={pr.q}")


def char_terms(pi: GL2Irrep, c: GL2Class, pr: GroupParams) -> tuple[tuple[int, int], ...]:
    """The character value as a sum of terms coef * zeta_rs^exp.

    All values of the character table lie in Z[zeta_rs]; alpha_a(rho^j)
    contributes exponent a*j*s since zeta_r = zeta_rs^s.
    """
    _check_same_q(pi, c, pr)
    s, rs, q, r = pr.s, pr.rs, pr.q, pr.r
    kind = pi.kind
    if kind == "U":
        (a,) = pi.data
        if c.kind == "c1" or c.kind == "c2":
            return ((1, (2 * a * c.data[0] * s) % rs),)
        if c.kind == "c3":
            return ((1, (a * (c.data[0] + c.data[1]) * s) % rs),)
        return ((1, (a * c.data[0] * s) % rs),)
    if kind == "V":
        (a,) = pi.data
        if c.kind == "c1":
            return ((q, (2 * a * c.data[0] * s) % rs),)
        if c.kind == "c2":
            return ()
        if c.kind == "c3":
            return ((1, (a * (c.data[0] + c.data[1]) * s) % rs),)
        return ((-1, (a * c.data[0] * s) % rs),)
    if kind == "W":
        a, b = pi.data
        if c.kind == "c1":
            return ((s, ((a + b) * c.data[0] * s) % rs),)
        if c.kind == "c2":
            return ((1, ((a + b) * c.data[0] * s) % rs),)
        if c.kind == "c3":
            k, l = c.data
            return ((1, ((a * k + b * l) * s) % rs), (1, ((a * l + b * k) * s) % rs))
        return ()
    (n,) = pi.data
    if c.kind == "c1":
        return ((r, (n * c.data[0] * s) % rs),)
    if c.kind == "c2":
        return ((-1, (n * c.data[0] * s) % rs),)
    if c.kind == "c3":
        return ()
    m = c.data[0]
    return ((-1, (n * m) % rs), (-1, (n * q * m) % rs))


def terms_value(rs: int, terms) -> Cyclotomic:
    """Exact value of sum(coef * zeta_rs^exp) over character terms (coef, exp)."""
    weights = [0] * rs
    for coef, exp in terms:
        weights[exp] += coef
    return reduce_root_sum(rs, weights)


def char_value(pi: GL2Irrep, c: GL2Class, pr: GroupParams) -> Cyclotomic:
    """Exact character table entry chi_pi(c) as a cyclotomic integer."""
    return terms_value(pr.rs, char_terms(pi, c, pr))


# -- the exact class-sum kernel --------------------------------------------------

UNIT_TERMS = ((1, 0),)


@lru_cache(maxsize=None)
def class_table(q: int) -> tuple[tuple[GL2Class, ...], tuple[int, ...], dict[GL2Class, int]]:
    """The classes of GL2(q) in canonical order, their sizes and their positions."""
    classes = tuple(enumerate_classes(params(q)))
    return classes, tuple(c.size() for c in classes), {c: i for i, c in enumerate(classes)}


def char_row(pi: GL2Irrep, pr: GroupParams) -> tuple[tuple[tuple[int, int], ...], ...]:
    """char_terms of pi on every class, in canonical class order; cached per irrep."""
    if pi.q != pr.q:
        raise MismatchedQ(f"{pi!r} does not live over q={pr.q}")
    return _char_row(pi.q, pi.kind, pi.data)


# keyed on plain values: labels of different q raise MismatchedQ when compared
@lru_cache(maxsize=None)
def _char_row(q: int, kind: str, data: tuple[int, ...]):
    pr = params(q)
    pi = GL2Irrep(q, kind, data)
    return tuple(char_terms(pi, c, pr) for c in class_table(q)[0])


@lru_cache(maxsize=None)
def _irrep_rows(q: int):
    """char_row of every irrep of GL2(q), in canonical irrep order."""
    pr = params(q)
    return tuple(char_row(pi, pr) for pi in enumerate_irreps(pr))


def class_sum(rs: int, weights, a, b, c) -> Cyclotomic:
    """Exact sum over k of weights[k] * a[k] * b[k] * conj(c[k]) in Z[zeta_rs].

    a, b and c give one character value per k as terms (coef, exp); a
    two-factor sum passes UNIT_TERMS for every b[k].
    """
    acc = [0] * rs
    for w, t1, t2, t3 in zip(weights, a, b, c):
        for a1, e1 in t1:
            for a2, e2 in t2:
                coef = w * a1 * a2
                e12 = e1 + e2
                for a3, e3 in t3:
                    acc[(e12 - e3) % rs] += coef * a3
    return reduce_root_sum(rs, acc)


def divide_exact(total: int, divisor: int, what: str) -> int:
    """total // divisor, or NonIntegral naming ``what`` if the division leaves a remainder."""
    if total % divisor:
        raise NonIntegral(f"{what} = {total} is not divisible by {divisor}")
    return total // divisor


def char_inner_product(pi1: GL2Irrep, pi2: GL2Irrep, pr: GroupParams) -> int:
    """|G| * (chi_1 | chi_2), i.e. sum over classes of |c| chi_1(c) conj(chi_2(c)).

    Row orthogonality: the result is |G| when pi1 == pi2 and 0 otherwise.
    """
    _, sizes, _ = class_table(pr.q)
    row1, row2 = char_row(pi1, pr), char_row(pi2, pr)
    return class_sum(pr.rs, sizes, row1, repeat(UNIT_TERMS), row2).as_integer()


def class_inner_product(c1: GL2Class, c2: GL2Class, pr: GroupParams) -> int:
    """Column sum over irreps of chi(c1) conj(chi(c2)); |G|/|c| on the diagonal."""
    _check_same_q(c1, c2, pr)
    _, _, index = class_table(pr.q)
    i1, i2 = index[c1], index[c2]
    rows = _irrep_rows(pr.q)
    col1, col2 = [row[i1] for row in rows], [row[i2] for row in rows]
    return class_sum(pr.rs, repeat(1), col1, repeat(UNIT_TERMS), col2).as_integer()


def _parse_ints(body: str, count: int, what: str) -> tuple[int, ...]:
    parts = body.split(",")
    if len(parts) != count:
        raise InvalidLabel(f"{what} takes {count} integer parameter(s), got {body!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidLabel(f"bad integer in label {body!r}") from exc


def parse_irrep(text: str, pr: GroupParams) -> GL2Irrep:
    """Parse and canonicalise an irrep label: U:a, V:a, W:a,b or X:n."""
    kind, _, body = text.partition(":")
    if kind == "U":
        return GL2Irrep.U(pr, *_parse_ints(body, 1, "U"))
    if kind == "V":
        return GL2Irrep.V(pr, *_parse_ints(body, 1, "V"))
    if kind == "W":
        return GL2Irrep.W(pr, *_parse_ints(body, 2, "W"))
    if kind == "X":
        return GL2Irrep.X(pr, *_parse_ints(body, 1, "X"))
    raise InvalidLabel(f"unknown irrep label {text!r}")


def parse_class(text: str, pr: GroupParams) -> GL2Class:
    """Parse and canonicalise a class label: c1:k, c2:k, c3:k,l or c4:m."""
    kind, _, body = text.partition(":")
    if kind == "c1":
        return GL2Class.C1(pr, *_parse_ints(body, 1, "c1"))
    if kind == "c2":
        return GL2Class.C2(pr, *_parse_ints(body, 1, "c2"))
    if kind == "c3":
        return GL2Class.C3(pr, *_parse_ints(body, 2, "c3"))
    if kind == "c4":
        return GL2Class.C4(pr, *_parse_ints(body, 1, "c4"))
    raise InvalidLabel(f"unknown class label {text!r}")
