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

Every label conversion is written once, here: the grammar tables kind ->
(constructor, parameter names) that ``parse_label`` reads (sl3 keeps its own
table), the integer rows of the labels of both families (``label_arrays``),
kept once per q with every column read of them, label text too, in one table
(``label_table``), and an irrep's integer form ``operand`` and central
exponent ``omega``.
Character rows come in closed form from cell tables (``cell_rows``);
``char_terms`` is the scalar reference the tests pack and hold them to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .cyclotomic import (
    INT64_LIMIT,
    TABLE_BYTES_LIMIT,
    Cyclotomic,
    _fold,
    euler_phi,
    fold_tensor,
    power_coords,
    smallest_prime_factor,
)
from .errors import BudgetExceeded, GL2RepError, InvalidLabel, MismatchedQ, NonIntegral, NotPrimePower

# Kind codes of the label arrays: the index in IRREP_KINDS.
U, V, W, X = range(4)


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q >= 2:
        p, ell = smallest_prime_factor(q), 1
        while p**ell < q:
            ell += 1
        if p**ell == q:
            return p, ell
    raise NotPrimePower(f"{q} is not a prime power")


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
    """Group constants for GL2(q); raises NotPrimePower for bad q.

    BudgetExceeded is raised first if ``label_bytes`` passes TABLE_BYTES_LIMIT:
    every use of GL2(q) holds its labels, and factoring a large prime q by
    trial division takes about sqrt(q) steps."""
    require_budget(label_bytes(q), f"the labels of GL2({q})")
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


def x_canonical(n: int, pr: GroupParams, kind: str) -> int:
    """Canonical representative min(n, q*n) of an orbit in the X parameter set of labels of this kind."""
    n %= pr.rs
    if n % pr.s == 0:
        raise InvalidLabel(f"{kind} parameter {n} is 0 mod s={pr.s}")
    return min(n, (pr.q * n) % pr.rs)


class _Label:
    """Shared behaviour of parameterised GL2(q) labels."""

    __slots__ = ("q", "kind", "data")
    # the kinds of the family in canonical order, indexed by kind code
    KINDS: tuple[str, ...] = ()

    def __init__(self, q: int, kind: str, data: tuple[int, ...]):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("labels are immutable")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.q != other.q:
            raise MismatchedQ(f"comparing labels for q={self.q} and q={other.q}")
        return (self.kind, self.data) == (other.kind, other.data)

    def __hash__(self):
        return hash((type(self).__name__, self.q, self.kind, self.data))

    def label(self) -> str:
        if not self.data:
            return self.kind
        return f"{self.kind}:{','.join(str(v) for v in self.data)}"

    def __repr__(self):
        return f"{type(self).__name__}({self.label()!r}, q={self.q})"

    def sort_key(self):
        return (self.KINDS.index(self.kind), self.data)


class _GL2Label(_Label):
    """A label of GL2(q), of either family: see ``label_arrays`` for its parameters."""

    @classmethod
    def of(cls, code: int, pr: GroupParams, *values: int):
        """The canonical label of kind KINDS[code] from its parameters."""
        kind = cls.KINDS[code]
        if code == W:
            a, b = (v % pr.r for v in values)
            if a == b:
                raise InvalidLabel(f"{kind} pair needs distinct residues, got {{{a},{b}}}")
            return cls(pr.q, kind, (min(a, b), max(a, b)))
        return cls(pr.q, kind, (x_canonical(values[0], pr, kind) if code == X else values[0] % pr.r,))


class GL2Irrep(_GL2Label):
    """Canonical label of an irreducible representation of GL2(q):
    GL2Irrep.U(pr, a), V(pr, a), W(pr, a, b) and X(pr, n) build one."""

    KINDS = ("U", "V", "W", "X")

    def dim(self) -> int:
        return (1, self.q, self.q + 1, self.q - 1)[self.KINDS.index(self.kind)]

    def dual(self) -> "GL2Irrep":
        return self.of(self.KINDS.index(self.kind), params(self.q), *(-v for v in self.data))


class GL2Class(_GL2Label):
    """Canonical label of a conjugacy class of GL2(q): GL2Class.C1(pr, k),
    C2(pr, k), C3(pr, k, l) and C4(pr, m) build one."""

    KINDS = ("c1", "c2", "c3", "c4")

    def size(self) -> int:
        q = self.q
        return (1, q * q - 1, q * (q + 1), q * (q - 1))[self.KINDS.index(self.kind)]


GL2Irrep.U, GL2Irrep.V, GL2Irrep.W, GL2Irrep.X = (partial(GL2Irrep.of, code) for code in range(4))
GL2Class.C1, GL2Class.C2, GL2Class.C3, GL2Class.C4 = (partial(GL2Class.of, code) for code in range(4))


# The grammar of each label family: kind -> (constructor, parameter names),
# in canonical kind order.
IRREP_GRAMMAR = {
    "U": (GL2Irrep.U, ("a",)), "V": (GL2Irrep.V, ("a",)), "W": (GL2Irrep.W, ("a", "b")), "X": (GL2Irrep.X, ("n",))
}
CLASS_GRAMMAR = {
    "c1": (GL2Class.C1, ("k",)), "c2": (GL2Class.C2, ("k",)), "c3": (GL2Class.C3, ("k", "l")), "c4": (GL2Class.C4, ("m",))
}
IRREP_KINDS, CLASS_KINDS = GL2Irrep.KINDS, GL2Class.KINDS


def label_arrays(pr: GroupParams) -> np.ndarray:
    """The rows (kind code, p0, p1) of the labels of either family in canonical order,
    a (3, q^2 - 1) int64 array: kind by kind, both take their parameters from the
    same sets, (a, a) for the residues a mod r of U and V (c1 and c2), (a, b) for the
    pairs a < b of W (c3), and (n, qn mod rs) for the X (c4) orbits {n, qn} in Z_rs,
    n != 0 mod s and n < qn.  A label's row is its ``operand``."""
    r, rs = pr.r, pr.rs
    a, b = np.triu_indices(r, 1)
    n = np.arange(rs)
    n = n[(n % pr.s != 0) & (n <= pr.q * n % rs)]
    residues = np.tile(np.arange(r), 2)
    kind = np.repeat(np.arange(4), [r, r, len(a), len(n)])
    return np.stack([kind, np.concatenate([residues, a, n]), np.concatenate([residues, b, pr.q * n % rs])])


def label_texts(kinds: tuple[str, ...], rows: np.ndarray, quote: str = "") -> np.ndarray:
    """The label of each row of ``label_arrays``, kinds named by ``kinds``, read 256
    rows at a time, each between two ``quote``: a label holds only letters, digits,
    ':' and ',', so quoted by '"' it is its JSON text.  A read-only object array."""
    texts = np.empty(rows.shape[1], dtype=object)
    for lo in range(0, rows.shape[1], 256):
        block = zip(*rows[:, lo : lo + 256].tolist())
        texts[lo : lo + 256] = [
            f"{quote}{kinds[k]}:{a},{b}{quote}" if k == W else f"{quote}{kinds[k]}:{a}{quote}" for k, a, b in block
        ]
    return _frozen(texts)


def from_row(family: type[_GL2Label], q: int, kind: int, p0: int, p1: int) -> _GL2Label:
    """The GL2Irrep or GL2Class of a row of ``label_arrays``, given as Python ints."""
    return family(q, family.KINDS[kind], (p0, p1) if kind == W else (p0,))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class LabelTable:
    """The labels of GL2(q), irreps and classes alike, in canonical order: their
    rows of ``label_arrays``, read as kind, p0 and p1 (an irrep's ``operand``).

    Every other column is built from the rows the first time it is read, and
    kept: the class sizes; the irreps' dimensions, central exponents omega mod
    r, dual positions and omega buckets; and the label text of each family,
    and its JSON text.  The arrays are read-only.  No label object is kept:
    ``label`` builds one from its row.
    """

    def __init__(self, q: int):
        self.pr = params(q)
        self.rows = _frozen(label_arrays(self.pr))
        self.kind, self.p0, self.p1 = self.rows

    def label(self, family: type[_GL2Label], at: int) -> _GL2Label:
        """The GL2Irrep or GL2Class at this position, built from its row."""
        return from_row(family, self.pr.q, *map(int, self.rows[:, at]))

    def texts(self, family: type[_GL2Label], at) -> np.ndarray:
        """The label text of the GL2Irrep or GL2Class at these positions, not kept."""
        return label_texts(family.KINDS, self.rows[:, at])

    @cached_property
    def sizes(self) -> np.ndarray:
        q, r, s = self.pr.q, self.pr.r, self.pr.s
        return _frozen(np.array([1, r * s, q * s, q * r])[self.kind])

    @cached_property
    def dim(self) -> np.ndarray:
        q = self.pr.q
        return _frozen(np.array([1, q, q + 1, q - 1])[self.kind])

    @cached_property
    def omega(self) -> np.ndarray:
        return _frozen(omega(*self.rows) % self.pr.r)

    def find(self, kind, p0, p1) -> np.ndarray:
        """The positions of rows (kind, p0, p1), int arrays, each given as the
        table holds it, p0 <= p1 and X (c4) as (n, qn); GL2RepError if one is
        not a row of the table."""
        rs = self.pr.rs
        # each row is its sorted pair, so (kind, p0, p1) rises in canonical order
        rows, key = (self.kind * rs + self.p0) * rs + self.p1, (kind * rs + p0) * rs + p1
        at = np.searchsorted(rows, key)
        missing = rows[np.minimum(at, len(rows) - 1)] != key
        if missing.any():
            i = int(missing.argmax())
            raise GL2RepError(f"({kind[i]}, {p0[i]}, {p1[i]}) is not a label row at q={self.pr.q}")
        return at

    @cached_property
    def dual(self) -> np.ndarray:
        # the dual's pair is the negated one, mod rs for X and r otherwise
        kind, p0, p1 = self.rows
        modulus = np.where(kind == X, self.pr.rs, self.pr.r)
        u, v = -p0 % modulus, -p1 % modulus
        return _frozen(self.find(kind, np.minimum(u, v), np.maximum(u, v)))

    @cached_property
    def buckets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(by_omega, starts, counts): the irreps grouped by omega, each group in
        canonical order, group w starting at by_omega[starts[w]] with counts[w] members."""
        counts = np.bincount(self.omega, minlength=self.pr.r)
        return tuple(map(_frozen, (np.argsort(self.omega, kind="stable"), np.cumsum(counts) - counts, counts)))

    @cached_property
    def irrep_labels(self) -> np.ndarray:
        return label_texts(IRREP_KINDS, self.rows)

    @cached_property
    def class_labels(self) -> np.ndarray:
        return label_texts(CLASS_KINDS, self.rows)

    @cached_property
    def irrep_json(self) -> np.ndarray:
        return label_texts(IRREP_KINDS, self.rows, '"')

    @cached_property
    def class_json(self) -> np.ndarray:
        return label_texts(CLASS_KINDS, self.rows, '"')


@lru_cache(maxsize=None)
def label_table(q: int) -> LabelTable:
    """The LabelTable of GL2(q), one per q: its rows are built here, O(q^2), and
    each other column when first read."""
    return LabelTable(q)


def enumerate_irreps(pr: GroupParams) -> list[GL2Irrep]:
    """All q^2 - 1 irreducible labels in canonical order; ``params`` has held them to their budget."""
    return [from_row(GL2Irrep, pr.q, *row) for row in zip(*label_table(pr.q).rows.tolist())]


def enumerate_classes(pr: GroupParams) -> list[GL2Class]:
    """All q^2 - 1 conjugacy class labels in canonical order; ``params`` has held them to their budget."""
    return [from_row(GL2Class, pr.q, *row) for row in zip(*label_table(pr.q).rows.tolist())]


def position(x: GL2Irrep | GL2Class, pr: GroupParams) -> int:
    """The row of an irrep or a class in canonical order: its ``operand``'s row
    of the label table."""
    return int(label_table(pr.q).find(*np.array(operand(x, pr))[:, None])[0])


def triple_positions(triples, pr: GroupParams, what: str) -> np.ndarray:
    """Triples of label_table positions as an (m, 3) intp array; GL2RepError
    naming ``what`` if one holds a position outside range(q^2 - 1)."""
    triples, n = np.asarray(triples, dtype=np.intp).reshape(-1, 3), pr.q * pr.q - 1
    if triples.size and not 0 <= triples.min() <= triples.max() < n:
        raise GL2RepError(f"{what} holds a position outside range({n}) at q={pr.q}")
    return triples


def check_q(labels, pr: GroupParams) -> None:
    """MismatchedQ unless every label lives over pr.q."""
    for x in labels:
        if x.q != pr.q:
            raise MismatchedQ(f"{x!r} does not live over q={pr.q}")


def operand(pi: GL2Irrep | GL2Class, pr: GroupParams) -> tuple[int, int, int]:
    """The integer form (kind, d0, d1) of an irrep, or a class, every label read
    as an unordered pair: its row of ``label_arrays``.

    U_a and V_a are {a, a} and W_[a,b] is {a, b}, residues mod r; X_[n] is its
    orbit {n, qn} in Z_rs.  The twist by alpha_t(det) then maps each member u
    to u + t (mod r), or to u + s*t (mod rs) for X, and the dual maps u to -u;
    two labels of one kind are equal iff their pairs are.
    """
    check_q((pi,), pr)
    kind = pi.KINDS.index(pi.kind)
    if kind == X:
        return kind, pi.data[0], pr.q * pi.data[0] % pr.rs
    return kind, pi.data[0], pi.data[-1]


def operands(irreps, pr: GroupParams) -> np.ndarray:
    """The ``operand`` of each irrep as a (3, irreps) int64 array: kind codes, d0 and d1."""
    flat = chain.from_iterable(operand(pi, pr) for pi in irreps)
    return np.fromiter(flat, np.int64, 3 * len(irreps)).reshape(-1, 3).T


def omega(kind, d0, d1):
    """The central exponent of an irrep from its operand, for scalars or arrays:
    its central character is alpha_omega on F_q^x, so chi(c1:k) = dim *
    zeta_r^(omega k).  omega(U_a) = omega(V_a) = 2a, omega(W_[a,b]) = a + b
    and omega(X_[n]) = n, that is d0 + d1 but d0 for X.  Callers reduce it mod r.
    """
    return d0 + d1 * (kind != X)


def char_terms(pi: GL2Irrep, c: GL2Class, pr: GroupParams) -> tuple[tuple[int, int], ...]:
    """The character value as a sum of terms coef * zeta_rs^exp.

    All values of the character table lie in Z[zeta_rs]; alpha_a(rho^j)
    contributes exponent a*j*s since zeta_r = zeta_rs^s.

    This is the scalar reference, one entry at a time: ``char_rows`` builds
    whole stacks of rows in closed form, and the tests hold them to these
    terms packed into rows.
    """
    check_q((pi, c), pr)
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
    """Exact value of sum(coef * zeta_rs^exp) over character terms (coef, exp), each exp in range(rs)."""
    return Cyclotomic(rs, _fold(rs, ((exp, coef) for coef, exp in terms)))


def char_value(pi: GL2Irrep, c: GL2Class, pr: GroupParams) -> Cyclotomic:
    """Exact character table entry chi_pi(c) as a cyclotomic integer."""
    return terms_value(pr.rs, char_terms(pi, c, pr))


# -- the exact class-sum kernel --------------------------------------------------


class Block(NamedTuple):
    """One block of a stack of rows: term t of row i at index j of the block is
    terms[0, t, i, j] * zeta_rs^terms[1, t, i, j], the exponent in range(rs).
    terms is int64 of shape (2, width, rows, block length): the term axis
    comes first, so that arithmetic runs along the long (rows, length) axes.
    peak bounds the sum of |coef| over the terms of any entry."""

    terms: np.ndarray
    peak: int

    @property
    def width(self) -> int:
        return self.terms.shape[1]

    @property
    def rows(self) -> int:
        return self.terms.shape[2]

    @property
    def length(self) -> int:
        return self.terms.shape[3]


# A stack of rows over the blocks of a summation axis.  A character row has
# one block per class kind, c1 to c4, as wide as the most terms an entry of the
# block has among the rows: 0, 1 or 2 for GL2.  A stack of one irrep kind so
# holds no padding, and its products no zero terms; a stack of several kinds
# pads its narrower rows with zero terms (at q = 9 the rows of every irrep
# have 0, 1 and 2 terms in the split block for 36, 16 and 28 rows, and 2, 1
# and 0 in the elliptic one, both of width 2).
Rows = tuple[Block, ...]

# Scratch bytes one slice of a class_sum batch may hold; the batch is cut to fit.
SLICE_BYTES = 1 << 21


def columns(rows: Rows) -> Rows:
    """The columns of a stack of character rows as a stack over one block, the
    rows: one row per class in class order, each padded with zero terms to
    the widest block."""
    width = max(b.width for b in rows)
    terms = np.zeros((2, width, sum(b.length for b in rows), rows[0].rows), dtype=np.int64)
    at = 0
    for b in rows:
        terms[:, : b.width, at : at + b.length] = b.terms.transpose(0, 1, 3, 2)
        at += b.length
    return (Block(terms, max(b.peak for b in rows)),)


# -- the character table in closed form ------------------------------------------

# What char_rows holds besides the blocks while it fills them, counted by
# build_bytes.  Per entry of the stack: at most two int64 (rows, length)
# exponent arrays beside the c4 block.  Per label, irrep or class: the
# operands, 24 bytes an irrep as ``operands`` reads them off labels, and the
# rows of the label table, which char_rows builds when cold (at most 69 bytes
# a class at q = 16 to 256 under tracemalloc).  Per call:
# the cell tables and the temporaries numpy keeps of arrays too small for it
# to elide (at most 50 KB, q = 2 to 64 and 1 to 1024 rows).
BUILD_ENTRY_BYTES = 8
BUILD_LABEL_BYTES = 128
BUILD_CALL_BYTES = 1 << 16

# Bytes per label the label commands hold: the per-q label table with the columns they read,
# label text too, and their rendered output, 289 at most (irreps in json at q = 32) under
# tracemalloc at q = 32, 64 and 128 with a cold table.  It is not lowered to that: it sets the
# largest q a label command answers, 1024.
LABEL_BYTES = 1024


def label_bytes(q: int) -> int:
    """Bytes of the q^2 - 1 labels of one kind and what the label commands
    hold for them, worked out from q alone."""
    return LABEL_BYTES * (q * q - 1)


def table_bytes(q: int, rows: int | None = None, per_entry: int = 0) -> int:
    """Bytes of a closed-form stack of ``rows`` character rows of GL2(q), every
    irrep by default, plus ``per_entry`` bytes for each of its entries, worked
    out from q alone: 16 bytes per term slot, one slot per entry of the c1
    and c2 blocks and two per entry of the c3 and c4 blocks."""
    r = q - 1
    rows = q * q - 1 if rows is None else rows
    slots = 2 * r + r * (r - 1) + q * r
    return rows * (16 * slots + per_entry * (q * q - 1))


def build_bytes(q: int, rows: int | None = None) -> int:
    """The most bytes char_rows holds while it builds ``rows`` character rows
    of GL2(q), every irrep by default, from cold per-q caches, worked out
    from q alone: the stack and what it holds besides (``BUILD_*_BYTES``)."""
    rows = q * q - 1 if rows is None else rows
    return table_bytes(q, rows, per_entry=BUILD_ENTRY_BYTES) + BUILD_LABEL_BYTES * (rows + q * q - 1) + BUILD_CALL_BYTES


def require_budget(need: int, what: str) -> None:
    """BudgetExceeded, raised before anything is allocated, if ``need`` bytes,
    an estimate from q alone such as ``table_bytes``, pass TABLE_BYTES_LIMIT."""
    if need > TABLE_BYTES_LIMIT:
        raise BudgetExceeded(f"{what} needs about {need} bytes, over the limit of {TABLE_BYTES_LIMIT}")


def class_params(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The class parameters in canonical class order, views of label_table's rows: k of c1 and c2, (k, l) of c3, m of c4."""
    t, r = label_table(q), q - 1
    split = slice(2 * r, 2 * r + r * (r - 1) // 2)
    return t.p0[:r], t.p0[split], t.p1[split], t.p0[split.stop :]


def cell_rows(kind: np.ndarray, cells) -> Rows:
    """A stack of rows from a cell table: one row per kind code in ``kind``
    and one block per cell (length, coefs, exponents).  coefs[t] holds the
    coefficient of term t for each kind, constant over the block as a
    (terms, kinds) table or varying as a (terms, kinds, length) array, 0
    where an entry lacks the term; exponents[t]() returns its (rows, length)
    exponents mod rs and is called only if some row has the term.  An
    entry's terms come first, so a block is as wide as the most terms of an
    entry of these rows; its peak is the largest sum of |coef| over an entry."""
    blocks = []
    for length, coefs, exponents in cells:
        table = np.asarray(coefs, dtype=np.int64)
        # a constant stays a column that broadcasts; a block of no classes has no terms
        table = (table if table.ndim == 3 else table[..., None])[..., :length]
        present = np.bincount(kind, minlength=table.shape[1]) > 0
        width = int((table != 0).sum(axis=0)[present].max(initial=0))
        out = np.zeros((2, width, len(kind), length), dtype=np.int64)
        out[0] = table[:width, kind]
        for t in range(width):
            out[1, t] = exponents[t]()
        # an entry that lacks a term holds the zero term (0, 0) in its place
        out[1] *= out[0] != 0
        blocks.append(Block(out, int(np.abs(table).sum(axis=0)[present].max(initial=0))))
    return tuple(blocks)


def char_rows(ops, pr: GroupParams) -> Rows:
    """The character rows of the irreps of these operands (kind, a, b), three
    int arrays (table slices, or ``operands`` of labels), in order, as one stack.

    The cell table of GL2(q), built by ``cell_rows`` from the operands, which
    read X_[n] as (n, qn), and the class arrays (k, l, m).  The coefficient of
    each term is a constant of its (irrep kind x class kind) cell (1, q, s, r
    or -1) and its exponent an affine or bilinear form mod rs, read off
    char_terms, which the tests hold it to entry for entry.  BudgetExceeded
    is raised, before anything is allocated, if the stack and what is held
    while it is built (``build_bytes``) pass TABLE_BYTES_LIMIT.
    """
    kind, a, b = ops
    require_budget(build_bytes(pr.q, len(kind)), f"the character rows of {len(kind)} irreps of GL2({pr.q})")
    if not len(kind):
        return ()
    q, r, s, rs = pr.q, pr.r, pr.s, pr.rs
    k, k3, l3, m = class_params(q)
    # chi(c1:k) = dim * zeta_rs^(omega k s)
    central = omega(kind, a, b) * s % rs
    a_s, b_s = a * s % rs, b * s % rs

    def outer(x, y):
        return np.multiply.outer(x, y) % rs

    # per class block, the coefficients of its terms for each irrep kind (U, V, W, X) and their exponents
    scalar = (lambda: outer(central, k),)
    split = (lambda: (outer(a_s, k3) + outer(b_s, l3)) % rs, lambda: (outer(a_s, l3) + outer(b_s, k3)) % rs)
    elliptic = (lambda: outer(np.where(kind == X, a, a_s), m), lambda: outer(b, m))
    return cell_rows(
        kind,
        (
            (r, [(1, q, s, r)], scalar),
            (r, [(1, 0, 1, -1)], scalar),
            (len(k3), [(1, 1, 1, 0), (0, 0, 1, 0)], split),
            (len(m), [(1, -1, 0, -1), (0, 0, 0, -1)], elliptic),
        ),
    )


def _blocks(a: Rows | None, b: Rows | None, c: Rows | None) -> list[tuple[int, Block, Block, Block]]:
    """Per block of the summation axis: its length, from the first stack given,
    and the blocks of the three factors.  None is the constant 1: one term,
    coefficient 1 and exponent 0, in one block that broadcasts over any."""
    one = Block(np.array([1, 0]).reshape(2, 1, 1, 1), 1)
    given = next(f for f in (a, b, c) if f is not None)
    return [(g.length, *(one if f is None else f[i] for f in (a, b, c))) for i, g in enumerate(given)]


def int64_bound(weights: np.ndarray, a: Rows | None, b: Rows | None, c: Rows | None) -> int:
    """An upper bound on every |coordinate| that class_sum computes from these
    stacks, and on every partial sum behind it: the sum over blocks of
    length * max|weight| * a.peak * b.peak * c.peak (1 for None).  The tensor
    fold adds each exponent's weight to a coordinate at most once, with sign
    +-1 (cyclotomic.fold_tensor), so it grows no sum of absolute weights."""
    total, lo = 0, 0
    for length, ba, bb, bc in _blocks(a, b, c):
        total += length * int(np.abs(weights[lo : lo + length]).max(initial=0)) * ba.peak * bb.peak * bc.peak
        lo += length
    return total


def class_sum(rs: int, weights, a: Rows | None, b: Rows | None, c: Rows | None, index) -> np.ndarray:
    """The slices of ``class_sum_slices`` joined: a (batch, phi(rs)) int64 array."""
    out = list(class_sum_slices(rs, weights, a, b, c, index))
    return np.concatenate(out) if out else np.zeros((0, euler_phi(rs)), dtype=np.int64)


def class_sum_slices(rs: int, weights, a: Rows | None, b: Rows | None, c: Rows | None, index) -> Iterator[np.ndarray]:
    """Exact sums over k of weights[k] * a[k] * b[k] * conj(c[k]) in Z[zeta_rs],
    one per batch entry, as (slice, phi(rs)) int64 arrays of tensor-basis
    coordinates (cyclotomic.fold_tensor), one per slice of the batch in order.
    Coordinate 0 is that of 1, so a sum is a rational integer iff it is the
    only nonzero one; cyclotomic.power_coords converts a row to the power basis.

    a, b and c are stacks over the same blocks of the summation axis (the
    classes, or the irreps for a column sum) and weights has one integer per
    index k.  Batch entry i takes row index[0][i] of a, index[1][i] of b and
    index[2][i] of c; a factor None is the constant 1, its index entry None.
    Other modules take sums from ``exact_sums``, coordinates from ``class_sum``.

    Per block, the terms of the three rows are multiplied, times the weight,
    and their exponents combined, a's plus b's less c's; np.add.at gathers the
    products into one int64 array of exponent weights per slice of the batch,
    which cyclotomic.fold_tensor reduces once.  The batch runs in slices of at
    most SLICE_BYTES of scratch.  BudgetExceeded is raised, before anything
    is allocated, if a coordinate could leave int64.
    """
    weights = np.asarray(weights, dtype=np.int64)
    bound = int64_bound(weights, a, b, c)
    if bound >= INT64_LIMIT:
        raise BudgetExceeded(f"class sum bound {bound} reaches 2^62 in Z[zeta_{rs}]")
    index = [None if i is None else np.asarray(i, dtype=np.intp) for i in index]
    count = len(next(i for i in index if i is not None))
    blocks, lo, products = [], 0, 0
    for length, ba, bb, bc in _blocks(a, b, c):
        if ba.width * bb.width * bc.width:
            blocks.append((weights[lo : lo + length], ba, bb, bc))
            products += length * ba.width * bb.width * bc.width
        lo += length
    # scratch per batch entry: about five int64 arrays of its products, the
    # accumulator's 3 rs slots, their sum and the fold's two arrays of rs
    step = max(1, SLICE_BYTES // (40 * products + 56 * rs))
    for start in range(0, count, step):
        picks = [None if i is None else i[start : start + step] for i in index]
        size = min(step, count - start)
        # exponents a + b - c lie in (-rs, 2rs): each batch entry gets 3 rs
        # accumulator slots, so no product needs reducing mod rs
        acc = np.zeros(size * 3 * rs, dtype=np.int64)
        offset = np.arange(rs, acc.size, 3 * rs)[:, None]
        for w, *factors in blocks:
            # a stack of one row, the constant 1 too, broadcasts; only real stacks are gathered
            (ca, ea), (cb, eb), (cc, ec) = (
                f.terms if f.rows == 1 else f.terms.take(i, axis=2) for f, i in zip(factors, picks)
            )
            exp = ea[:, None, None] + eb[None, :, None] - ec[None, None, :] + offset
            coef = (w * ca)[:, None, None] * cb[None, :, None] * cc[None, None, :]
            if coef.shape != exp.shape:
                coef = np.broadcast_to(coef, exp.shape)
            np.add.at(acc, exp.reshape(-1), coef.reshape(-1))
        yield fold_tensor(rs, acc.reshape(size, 3, rs).sum(axis=1))


def rational(rs: int, coords: np.ndarray, what: str) -> int:
    """One entry of a class_sum result as a rational integer, or NonIntegral
    naming ``what`` with the entry's coordinates, converted to the power basis."""
    if coords[1:].any():
        raise NonIntegral(f"{what} has power-basis coordinates {power_coords(rs, coords.tolist())}, not a rational integer")
    return int(coords[0])


def divide_exact(total: int, divisor: int, what: str) -> int:
    """total // divisor, or NonIntegral naming ``what`` if the division leaves a remainder."""
    if total % divisor:
        raise NonIntegral(f"{what} = {total} is not divisible by {divisor}")
    return total // divisor


def exact_sums(rs: int, weights, a: Rows | None, b: Rows | None, c: Rows | None, index, what, divisor: int = 1) -> list[int]:
    """The sums of ``class_sum_slices``, rational integers divided exactly by
    ``divisor``, each slice checked as it arrives and none kept.  NonIntegral
    names what(i), as ``rational`` or ``divide_exact`` would, for the first
    sum i that is not a rational integer or not a multiple of ``divisor``."""
    out: list[int] = []
    for coords in class_sum_slices(rs, weights, a, b, c, index):
        bad = coords[:, 1:].any(axis=1) | (coords[:, 0] % divisor != 0)
        if bad.any():
            i = int(bad.argmax())
            text = what(len(out) + i)
            divide_exact(rational(rs, coords[i], text), divisor, text)
        out += (coords[:, 0] // divisor).tolist()
    return out


def char_inner_product(pi1: GL2Irrep, pi2: GL2Irrep, pr: GroupParams) -> int:
    """|G| * (chi_1 | chi_2), i.e. sum over classes of |c| chi_1(c) conj(chi_2(c)).

    Row orthogonality: the result is |G| when pi1 == pi2 and 0 otherwise.
    """
    rows = char_rows(operands([pi1, pi2], pr), pr)
    what = f"inner product of {pi1.label()} and {pi2.label()}"
    return exact_sums(pr.rs, label_table(pr.q).sizes, rows, None, rows, ([0], None, [1]), lambda i: what)[0]


def class_inner_product(c1: GL2Class, c2: GL2Class, pr: GroupParams) -> int:
    """Column sum over irreps of chi(c1) conj(chi(c2)); |G|/|c| on the diagonal."""
    index = ([position(c1, pr)], None, [position(c2, pr)])
    cols = columns(char_rows(label_table(pr.q).rows, pr))
    what = f"column product of {c1.label()} and {c2.label()}"
    return exact_sums(pr.rs, [1] * cols[0].length, cols, None, cols, index, lambda i: what)[0]


def _pair_sums(pr: GroupParams, weights, rows: Rows, family: type[_GL2Label], what: str) -> list[int]:
    """Sum over k of weights[k] * row_i[k] * conj(row_j[k]) for every pair i <= j
    of rows of the stack, row-major, in one exact_sums call; row i is the label
    of ``family`` at position i, rendered only to name a sum that fails."""
    first, second = np.triu_indices(rows[0].rows)
    t = label_table(pr.q)
    return exact_sums(
        pr.rs, weights, rows, None, rows, (first, None, second),
        lambda i: f"{what} of {t.label(family, first[i]).label()} and {t.label(family, second[i]).label()}",
    )


def char_inner_products(pr: GroupParams) -> list[int]:
    """char_inner_product of every pair pi_i, pi_j (i <= j) of irreps in canonical order, row-major."""
    t = label_table(pr.q)
    return _pair_sums(pr, t.sizes, char_rows(t.rows, pr), GL2Irrep, "inner product")


def class_inner_products(pr: GroupParams) -> list[int]:
    """class_inner_product of every pair c_i, c_j (i <= j) of classes in canonical order, row-major."""
    cols = columns(char_rows(label_table(pr.q).rows, pr))
    return _pair_sums(pr, [1] * cols[0].length, cols, GL2Class, "column product")


def label_forms(grammar) -> list[str]:
    """How each kind of a grammar is written, its parameters named: U:a, W:a,b, piQS."""
    return [f"{kind}:{','.join(names)}" if names else kind for kind, (_, names) in grammar.items()]


def parse_label(text: str, pr: GroupParams, grammar, unknown: str):
    """Parse and canonicalise a label kind:p1,...,pn by a grammar kind ->
    (constructor, parameter names) such as IRREP_GRAMMAR; a kind of no
    parameters is written bare or with an empty body.  InvalidLabel is
    raised with ``unknown % text`` for a kind the grammar lacks."""
    kind, _, body = text.partition(":")
    build, names = grammar.get(kind, (None, ()))
    if build is None or (body and not names):
        raise InvalidLabel(unknown % (text,))
    parts = body.split(",") if names else []
    if len(parts) != len(names):
        raise InvalidLabel(f"{kind} takes {len(names)} integer parameter(s), got {body!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise InvalidLabel(f"bad integer in label {body!r}") from exc
    return build(pr, *values)


def parse_irrep(text: str, pr: GroupParams) -> GL2Irrep:
    """Parse and canonicalise an irrep label: U:a, V:a, W:a,b or X:n."""
    return parse_label(text, pr, IRREP_GRAMMAR, "unknown irrep label %r")


def parse_class(text: str, pr: GroupParams) -> GL2Class:
    """Parse and canonicalise a class label: c1:k, c2:k, c3:k,l or c4:m."""
    return parse_label(text, pr, CLASS_GRAMMAR, "unknown class label %r")
