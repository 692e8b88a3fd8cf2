"""Brute-force verification layer: real matrices over F_q, no table shortcuts.

Everything in this module recomputes structure from raw matrix
enumeration and compares against the closed-form tables elsewhere in
the package: conjugacy census, embedding of classes into SL3(q),
element-by-element multiplicity sums, restriction to the unipotent
subgroup, and a generic restriction-multiplicity engine for explicit
character tables (with the S4 over C3 fixture as its reference case).

The matrices are arrays: GL2(q) is an (n, 4) int array of the invertible
matrices in lexicographic order, and ``classify_elements`` classifies every
one of them from its own entries in one pass of table lookups, the field
tables, a q x q root table of the characteristic polynomials and the dlog
arrays of the tower, into positions of ``gl2.label_table(q)``.  The only
tables of GL2(q) it reads are the rows that name the classes; the class
sizes and character values it is checked against come from elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import Cyclotomic, root
from .errors import BudgetExceeded, GL2RepError, InvalidCharTable, InvalidClassMap, NonIntegral, Singular
from .fields import FieldTower, build_tower
from .gl2 import (
    GL2Class,
    GL2Irrep,
    GroupParams,
    char_rows,
    char_value,
    divide_exact,
    enumerate_classes,
    enumerate_irreps,
    exact_sums,
    label_table,
    params,
    position,
    triple_positions,
)
from .sl3 import SL3Class, embed_class

CENSUS_MAX_Q = 9
ELEMENTWISE_MAX_Q = 5

Matrix2 = tuple[int, int, int, int]

# the kind codes of the classes, as label_table's kind column holds them
C1, C2, C3, C4 = range(4)


@lru_cache(maxsize=None)
def tower_for(q: int) -> FieldTower:
    pr = params(q)
    return build_tower(pr.p, pr.ell)


def _arrays(gf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The addition, multiplication and negation tables of a field as int arrays."""
    return np.array(gf.add_table), np.array(gf.mul_table), np.array(gf.neg_table)


def _det(elements: np.ndarray, gf) -> np.ndarray:
    """ad - bc of each row (a, b, c, d) of an (m, 4) array of matrices over the field gf."""
    add, mul, neg = _arrays(gf)
    a, b, c, d = elements.T
    return add[mul[a, d], neg[mul[b, c]]]


def root_table(tower: FieldTower) -> np.ndarray:
    """roots[tr, det]: the first root in F_{q^2} element order of x^2 - tr*x + det,
    for every tr and det in F_q, a (q, q) int array found by one array search.

    Every quadratic over F_q splits in F_{q^2}, so every entry has a root; it
    is 0 where det = 0, and nonzero elsewhere."""
    add, mul, neg = _arrays(tower.gf_q2)
    x, emb = np.arange(tower.gf_q2.size), np.array(tower.embed)
    # [tr, det, x]: x^2 - tr*x, then + det
    value = add[add[mul[x, x], neg[mul[emb[:, None], x]]][:, None, :], emb[None, :, None]]
    return np.argmax(value == 0, axis=2)


def classify_elements(elements: np.ndarray, tower: FieldTower) -> np.ndarray:
    """The class of each invertible matrix, rows (a, b, c, d) of an (m, 4) int
    array, as its position in ``label_table(q)``, recovered from eigenvalues.

    A scalar a*I is c1:k with rho^k = a.  Any other g is classified by its
    eigenvalues, the roots of x^2 - tr*x + det in F_{q^2}: ``root_table``
    gives one, sigma^e, and the other is tr minus it.  sigma^e lies in F_q
    iff s | e, and then it is rho^(e/s).  So s not dividing e gives c4:m, m
    the least of e and qe mod rs; a repeated root in F_q gives c2; two
    distinct roots in F_q give c3, the pair sorted.  Singular names the first
    singular row.
    """
    pr = params(tower.q)
    det = _det(elements, tower.gf_q)
    if not det.all():
        raise Singular(f"matrix {tuple(elements[det.argmin()].tolist())} over F_{tower.q} is singular")
    add = np.array(tower.gf_q.add_table)
    add2, _, neg2 = _arrays(tower.gf_q2)
    a, b, c, d = elements.T
    tr = add[a, d]
    lam = root_table(tower)[tr, det]
    mu = add2[np.array(tower.embed)[tr], neg2[lam]]
    e, f = tower.dlog_q2_table[lam - 1], tower.dlog_q2_table[mu - 1]
    k, l = e // pr.s, f // pr.s
    m = np.minimum(e, pr.q * e % pr.rs)
    scalar = (b == 0) & (c == 0) & (a == d)
    elliptic = e % pr.s != 0
    kind = np.select([scalar, elliptic, mu == lam], [C1, C4, C2], C3)
    p0 = np.select([scalar, elliptic], [tower.dlog_q_table[a - 1], m], np.minimum(k, l))
    p1 = np.select([scalar, elliptic], [p0, pr.q * m % pr.rs], np.maximum(k, l))
    return label_table(tower.q).find(kind, p0, p1)


def classify_element(g: Matrix2, tower: FieldTower) -> GL2Class:
    """The conjugacy class of one invertible 2x2 matrix: ``classify_elements``
    of one row, Singular if g is singular."""
    return label_table(tower.q).label(GL2Class, int(classify_elements(np.array([g]), tower)[0]))


def _place(q: int) -> np.ndarray:
    """The weights of the entries a, b, c, d in a matrix's base-q code."""
    return q ** np.arange(3, -1, -1)


def enumerate_gl2(tower: FieldTower) -> np.ndarray:
    """Every invertible 2x2 matrix over F_q as an (n, 4) int array of rows
    (a, b, c, d), in lexicographic order: the base-q codes of the q^4 matrices
    rising, the singular ones masked out by their determinants."""
    q = tower.q
    matrices = np.arange(q**4)[:, None] // _place(q) % q
    return matrices[_det(matrices, tower.gf_q) != 0]


class OracleContext:
    """Enumeration and per-element classification for one q, in arrays.

    ``elements`` holds GL2(q)'s n matrices as an (n, 4) int array in
    lexicographic order, ``code_index`` the row among them of each base-q
    code (-1 for a singular matrix), ``cls`` each element's class position in
    ``label_table(q)``, classified element by element, and ``tally`` the
    number of elements in each class, in class order.
    """

    def __init__(self, q: int):
        if q > CENSUS_MAX_Q:
            raise BudgetExceeded(f"q={q} exceeds the oracle ceiling {CENSUS_MAX_Q}")
        self.q = q
        self.pr = params(q)
        self.tower = tower_for(q)
        self.elements = enumerate_gl2(self.tower)
        self.code_index = np.full(q**4, -1)
        self.code_index[self.elements @ _place(q)] = np.arange(len(self.elements))
        self.cls = classify_elements(self.elements, self.tower)
        self.tally = np.bincount(self.cls, minlength=q * q - 1)
        # one context per q is shared by every caller: its arrays are read-only
        for array in (self.elements, self.code_index, self.cls, self.tally):
            array.setflags(write=False)

    def index_of(self, matrices) -> np.ndarray:
        """The row among ``elements`` of each matrix (a, b, c, d), the last axis
        of an int array; -1 for a matrix that is not among them."""
        return self.code_index[np.asarray(matrices) @ _place(self.q)]

    def classes_of(self, matrices) -> np.ndarray:
        """The class position of each matrix, as ``cls`` holds it; -1 for a
        matrix that is not among the elements."""
        at = self.index_of(matrices)
        return np.where(at < 0, -1, self.cls[at])


@lru_cache(maxsize=None)
def _context(q: int) -> OracleContext:
    return OracleContext(q)


def census(q: int) -> dict:
    """Conjugacy census from raw enumeration, checked against the class tables."""
    ctx = _context(q)
    pr, t = ctx.pr, label_table(q)
    details = []
    ok = True
    expected_counts = {"c1": pr.r, "c2": pr.r, "c3": pr.r * (pr.r - 1) // 2, "c4": pr.q * pr.r // 2}
    # the classes some element falls in, in class order
    seen = np.flatnonzero(ctx.tally)
    for label, count, size in zip(t.class_labels[seen], ctx.tally[seen].tolist(), t.sizes[seen].tolist()):
        good = count == size
        ok = ok and good
        details.append({"class": label, "size": count, "expected": size, "ok": good})
    seen_by_kind = np.bincount(t.kind[seen], minlength=4).tolist()
    for (kind, expected), count in zip(expected_counts.items(), seen_by_kind):
        good = count == expected
        ok = ok and good
        details.append({"class_type": kind, "count": count, "expected": expected, "ok": good})
    total = len(ctx.elements)
    ok = ok and total == pr.order and len(seen) == len(ctx.tally)
    return {"check": "census", "q": q, "pass": ok, "total": total, "details": details}


def elementwise_mults(q: int, triples) -> list[int]:
    """(1/|G|) sum_c #c * chi1(c) chi2(c) conj(chi3(c)) for each row of an (m, 3)
    array of ``label_table`` positions (pi1, pi2, pi3), #c counted from matrices:
    one ``exact_sums`` call over the character rows of their distinct irreps.

    This is the class sum of ``tensor.mult_sums`` with the same character
    terms and the same kernel; only the class sizes are independent:
    every element of GL2(q) is enumerated and classified, and #c is the
    tally, not the size column of any table.
    """
    if q > ELEMENTWISE_MAX_Q:
        raise BudgetExceeded(f"q={q} exceeds the element-sum ceiling {ELEMENTWISE_MAX_Q}")
    ctx = _context(q)
    present, codes = np.unique(triple_positions(triples, ctx.pr, "an element-sum triple"), return_inverse=True)
    rows = char_rows(label_table(q).rows[:, present], ctx.pr)
    return exact_sums(
        ctx.pr.rs, ctx.tally, rows, rows, rows, codes.reshape(-1, 3).T, lambda i: "element sum", ctx.pr.order
    )


def elementwise_mult(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, q: int) -> int:
    """``elementwise_mults`` of one triple of labels."""
    pr = params(q)
    return elementwise_mults(q, [[position(pi, pr) for pi in (pi1, pi2, pi3)]])[0]


def _matrix_for_class(cls: GL2Class, tower: FieldTower) -> Matrix2:
    """A concrete representative of a class label inside GL2(q)."""
    gf, gf2 = tower.gf_q, tower.gf_q2
    if cls.kind == "c1":
        x = gf.pow(tower.rho, cls.data[0])
        return (x, 0, 0, x)
    if cls.kind == "c2":
        x = gf.pow(tower.rho, cls.data[0])
        return (x, 0, 1, x)
    if cls.kind == "c3":
        return (gf.pow(tower.rho, cls.data[0]), 0, 0, gf.pow(tower.rho, cls.data[1]))
    m = cls.data[0]
    lam = gf2.pow(tower.sigma, m)
    trace = gf2.add(lam, gf2.pow(lam, tower.q))
    tr_small = tower.embed.index(trace)
    det_small = gf.pow(tower.rho, m % tower.r)
    return (0, gf.neg(det_small), 1, tr_small)


Matrix3 = tuple[int, ...]  # row-major 3x3 over F_{q^2}


def _expected_eigen_structure(big: SL3Class, tower: FieldTower) -> tuple[list[int], dict[int, int]]:
    """Eigenvalues over F_{q^2} of an SL3 class label, and rank(A - lam*I) at each lam.

    For 3x3 matrices these fix the Jordan form.  The rank is 3 - mult(lam),
    raised at the repeated eigenvalue by 1 for the 2-block of C2 and C5 and
    by 2 for the 3-block of C3.
    """
    gf, gf2 = tower.gf_q, tower.gf_q2
    pr = params(tower.q)
    unit = pr.r // pr.d

    def emb_rho(e: int) -> int:
        return tower.embed[gf.pow(tower.rho, e % pr.r)]

    # for C1-C5 the repeated eigenvalue comes first
    if big.kind in ("C1", "C2", "C3"):
        eigs = [emb_rho(unit * big.data[0])] * 3
    elif big.kind in ("C4", "C5"):
        k = big.data[0]
        eigs = [emb_rho(k), emb_rho(k), emb_rho(-2 * k)]
    elif big.kind == "C6":
        k, l = big.data
        eigs = [emb_rho(k), emb_rho(l), emb_rho(-k - l)]
    elif big.kind == "C7":
        k = big.data[0]
        eigs = [
            emb_rho(k % pr.r),
            gf2.pow(tower.sigma, (-k) % pr.rs),
            gf2.pow(tower.sigma, (-pr.q * k) % pr.rs),
        ]
    else:
        raise InvalidClassMap(f"a GL2({pr.q}) class mapped to {big.label()}; none lands in C8")
    ranks = {lam: 3 - eigs.count(lam) for lam in eigs}
    ranks[eigs[0]] += {"C2": 1, "C3": 2, "C5": 1}.get(big.kind, 0)
    return sorted(eigs), ranks


def verify_embedding(q: int) -> dict:
    """Check the class embedding table against diag(g, det g^-1) matrices.

    Each matrix must have the characteristic polynomial prod(x - lam) over
    the expected eigenvalues and the expected rank(A - lam*I) at each lam.
    """
    ctx = _context(q)
    pr, tower = ctx.pr, ctx.tower
    gf, gf2 = tower.gf_q, tower.gf_q2
    mismatches = []
    classes = enumerate_classes(pr)
    reps = [_matrix_for_class(cls, tower) for cls in classes]
    for cls, g, at, want in zip(classes, reps, ctx.classes_of(reps).tolist(), range(len(classes))):
        if at != want:
            mismatches.append({"class": cls.label(), "reason": "bad representative"})
            continue
        a, b, c, d = g
        det = gf.sub(gf.mul(a, d), gf.mul(b, c))
        inv_det = gf.inv(det)
        emb = tower.embed
        big_matrix: Matrix3 = (
            emb[a], emb[b], 0,
            emb[c], emb[d], 0,
            0, 0, emb[inv_det],
        )
        target = embed_class(cls, pr)
        eigs, ranks = _expected_eigen_structure(target, tower)
        expected = [1]
        for lam in eigs:
            # times (x - lam), constant term first
            expected = [
                gf2.sub(lo, gf2.mul(lam, hi)) for lo, hi in zip([0, *expected], [*expected, 0])
            ]
        charpoly = _charpoly3_coeffs(gf2, big_matrix)
        got_ranks = {lam: _rank3_shifted(gf2, big_matrix, lam) for lam in ranks}
        if charpoly != expected or got_ranks != ranks:
            mismatches.append(
                {
                    "class": cls.label(),
                    "target": target.label(),
                    "charpoly": charpoly,
                    "expected": expected,
                    "ranks": got_ranks,
                    "expected_ranks": ranks,
                }
            )
    return {"check": "embed", "q": q, "pass": not mismatches, "mismatches": mismatches}


def _charpoly3_coeffs(gf, A: Matrix3) -> list[int]:
    """Coefficients of det(x*I - A), constant term first, monic degree 3."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = A

    def det2(p, q_, r_, s_):
        return gf.sub(gf.mul(p, s_), gf.mul(q_, r_))

    tr = gf.add(gf.add(a00, a11), a22)
    minors = gf.add(
        gf.add(det2(a00, a01, a10, a11), det2(a00, a02, a20, a22)),
        det2(a11, a12, a21, a22),
    )
    det3 = gf.add(
        gf.sub(gf.mul(a00, det2(a11, a12, a21, a22)), gf.mul(a01, det2(a10, a12, a20, a22))),
        gf.mul(a02, det2(a10, a11, a20, a21)),
    )
    return [gf.neg(det3), minors, gf.neg(tr), 1]


def _rank3_shifted(gf, A: Matrix3, lam: int) -> int:
    """Rank of A - lam*I by Gaussian elimination."""
    rows = [list(A[3 * i : 3 * i + 3]) for i in range(3)]
    for i in range(3):
        rows[i][i] = gf.sub(rows[i][i], lam)
    rank = 0
    for col in range(3):
        pivot = next((i for i in range(rank, 3) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = gf.inv(rows[rank][col])
        for i in range(rank + 1, 3):
            f = gf.mul(rows[i][col], inv)
            rows[i] = [gf.sub(x, gf.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@dataclass
class ExplicitCharTable:
    """A complete character table given by explicit exact values."""

    name: str
    class_labels: list[str]
    class_sizes: list[int]
    irrep_labels: list[str]
    values: list[list[Cyclotomic]]

    def __post_init__(self):
        n = len(self.class_labels)
        lengths = {len(self.class_sizes), len(self.irrep_labels), len(self.values), *map(len, self.values)}
        if lengths != {n}:
            raise InvalidCharTable(
                f"{self.name}: {n} classes need {n} sizes, {n} irreps and {n} values per row"
            )
        order = sum(self.class_sizes)
        for i, row_i in enumerate(self.values):
            for j, row_j in enumerate(self.values):
                acc = Cyclotomic.zero()
                for size, a, b in zip(self.class_sizes, row_i, row_j):
                    acc = acc + size * (a * b.conj())
                if acc != Cyclotomic.from_int(order if i == j else 0):
                    raise InvalidCharTable(f"{self.name}: row orthogonality fails at ({i},{j})")

    @property
    def order(self) -> int:
        return sum(self.class_sizes)


def generic_multiplicity(
    table: ExplicitCharTable, sub: ExplicitCharTable, class_map: list[int]
) -> list[list[int]]:
    """Restriction multiplicities M[i][j] = <chi_i restricted, psi_j> over the subgroup.

    ``class_map`` sends each subgroup class index to the parent class
    containing it.  Row i lists how the i-th parent irreducible
    restricts; column j, by Frobenius reciprocity, how the induction of
    the j-th subgroup irreducible decomposes.
    """
    if len(class_map) != len(sub.class_labels):
        raise InvalidClassMap("need exactly one parent class per subgroup class")
    if any(not 0 <= idx < len(table.class_labels) for idx in class_map):
        raise InvalidClassMap("class map index out of range")
    h_order = sub.order
    out = []
    for row in table.values:
        out_row = []
        for j in range(len(sub.irrep_labels)):
            acc = Cyclotomic.zero()
            for c, parent in enumerate(class_map):
                acc = acc + sub.class_sizes[c] * (row[parent] * sub.values[j][c].conj())
            out_row.append(divide_exact(acc.as_integer(), h_order, "inner product"))
        out.append(out_row)
    return out


def s4_char_table() -> ExplicitCharTable:
    """The symmetric group S4: five classes, five irreducibles."""
    z = Cyclotomic.from_int
    rows = [
        [1, 1, 1, 1, 1],
        [1, -1, 1, -1, 1],
        [2, 0, -1, 0, 2],
        [3, 1, 0, -1, -1],
        [3, -1, 0, 1, -1],
    ]
    return ExplicitCharTable(
        name="S4",
        class_labels=["e", "(12)", "(123)", "(1234)", "(12)(34)"],
        class_sizes=[1, 6, 8, 6, 3],
        irrep_labels=["chi1", "chi2", "chi3", "chi4", "chi5"],
        values=[[z(v) for v in row] for row in rows],
    )


def c3_char_table() -> ExplicitCharTable:
    """The cyclic group of order three."""
    w = root(3, 1)
    w2 = root(3, 2)
    one = Cyclotomic.one()
    return ExplicitCharTable(
        name="C3",
        class_labels=["e", "r", "r2"],
        class_sizes=[1, 1, 1],
        irrep_labels=["psi1", "psi2", "psi3"],
        values=[[one, one, one], [one, w, w2], [one, w2, w]],
    )


S4_OVER_C3_CLASS_MAP = [0, 2, 2]

S4_OVER_C3_EXPECTED = [
    [1, 0, 0],
    [1, 0, 0],
    [0, 1, 1],
    [1, 1, 1],
    [1, 1, 1],
]


def gl2_char_table(pr: GroupParams) -> ExplicitCharTable:
    """The full character table of GL2(q) as an explicit table."""
    classes = enumerate_classes(pr)
    irreps = enumerate_irreps(pr)
    return ExplicitCharTable(
        name=f"GL2({pr.q})",
        class_labels=[c.label() for c in classes],
        class_sizes=[c.size() for c in classes],
        irrep_labels=[pi.label() for pi in irreps],
        values=[[char_value(pi, c, pr) for c in classes] for pi in irreps],
    )


def center_char_table(pr: GroupParams) -> ExplicitCharTable:
    """Character table of the center of GL2(q) (cyclic of order r)."""
    r = pr.r
    return ExplicitCharTable(
        name=f"Z(GL2({pr.q}))",
        class_labels=[f"z:{k}" for k in range(r)],
        class_sizes=[1] * r,
        irrep_labels=[f"psi:{b}" for b in range(r)],
        values=[[root(r, b * k) for k in range(r)] for b in range(r)],
    )


def bessel_check(q: int) -> dict:
    """Restriction of every GL2(q) irreducible to the unipotent line.

    For each character psi of the order-q subgroup of upper unitriangular
    matrices, computes [chi restricted : psi] by summing over the q
    elements.  Nontrivial psi must pick up every irreducible of dimension
    > 1 exactly once and miss the one-dimensionals; the trivial psi must
    contain every dimension-(q+1) irreducible twice.

    The sum over the q unipotents is regrouped by class: the unipotents fall
    in two classes (the identity and c2:0), each irrep's value on a met class
    is read once, as a rational integer, and conj psi(u) = zeta_p^-<c, b> is
    counted per exponent and class.  One integer product gives, for every psi
    and irrep, the coefficients c_j of sum_j c_j zeta_p^j, which is rational
    iff c_1 = ... = c_(p-1), and then equals c_0 - c_1.
    """
    ctx = _context(q)
    pr, t = ctx.pr, label_table(q)
    p = pr.p
    unipotents = np.array([(1, 0, b, 1) for b in range(q)])
    met, klass = np.unique(ctx.classes_of(unipotents), return_inverse=True)
    values = np.array(
        [[char_value(pi, t.label(GL2Class, c), pr).as_integer() for c in met.tolist()] for pi in enumerate_irreps(pr)]
    )
    # exponent[c, b] = -<c, b> mod p over the base-p digits; count[c, met, j] of the b with exponent j
    digits = np.arange(q)[:, None] // p ** np.arange(pr.ell) % p
    exponent = -(digits @ digits.T) % p
    cell = (np.arange(q)[:, None] * len(met) + klass) * p + exponent
    count = np.bincount(cell.ravel(), minlength=q * len(met) * p).reshape(q, len(met), p)
    coefs = np.einsum("im,cmj->cij", values, count)
    irrational = (coefs[:, :, 1:] != coefs[:, :, 1:2]).any(axis=2)
    totals = coefs[:, :, 0] - coefs[:, :, 1]
    bad = irrational | (totals % q != 0)
    if bad.any():
        # the first failing sum, psi by psi and irrep by irrep
        c, i = np.unravel_index(bad.argmax(), bad.shape)
        if irrational[c, i]:
            raise NonIntegral(
                f"unipotent restriction sum of {t.irrep_labels[i]} at psi {c} has coefficients "
                f"{coefs[c, i].tolist()} on the powers of zeta_{p}, not a rational integer"
            )
        divide_exact(int(totals[c, i]), q, "unipotent restriction sum")
    mults = (totals // q).tolist()
    expected_trivial = np.array([1, 1, 2, 0])[t.kind].tolist()
    expected_nontrivial = np.array([0, 1, 1, 1])[t.kind].tolist()
    labels = t.irrep_labels.tolist()
    rows = []
    ok = True
    for c_param in range(q):
        good = mults[c_param] == (expected_nontrivial if c_param else expected_trivial)
        ok = ok and good
        rows.append(
            {
                "psi": c_param,
                "trivial": c_param == 0,
                "multiplicities": dict(zip(labels, mults[c_param])),
                "ok": good,
            }
        )
    report = {
        "check": "bessel",
        "q": q,
        "pass": ok,
        "big_irreps": int((t.dim > 1).sum()),
        "rows": rows,
    }
    if q == 2:
        report["note"] = (
            "q=2 is degenerate: the W family is empty and the cuspidals have "
            "dimension 1, so the dimension-count bookkeeping below is vacuous"
        )
    else:
        # the span of nontrivial-psi spherical functions has dimension q(q-1)
        if report["big_irreps"] != q * (q - 1):
            raise GL2RepError(
                f"{report['big_irreps']} irreps of dimension > 1 at q={q}, not q(q-1)"
            )
    return report
