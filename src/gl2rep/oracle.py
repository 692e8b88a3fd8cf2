"""Brute-force verification layer: real matrices over F_q, no table shortcuts.

Everything in this module recomputes structure from raw matrix
enumeration and compares against the closed-form tables elsewhere in
the package: conjugacy census, embedding of classes into SL3(q),
element-by-element multiplicity sums, restriction to the unipotent
subgroup, and a generic restriction-multiplicity engine for explicit
character tables (with the S4 over C3 fixture as its reference case).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .cyclotomic import Cyclotomic, root
from .errors import BudgetExceeded, GL2RepError, InvalidCharTable, InvalidClassMap, Singular
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
    operands,
    params,
)
from .sl3 import SL3Class, embed_class

CENSUS_MAX_Q = 9
ELEMENTWISE_MAX_Q = 5

Matrix2 = tuple[int, int, int, int]


@lru_cache(maxsize=None)
def tower_for(q: int) -> FieldTower:
    pr = params(q)
    return build_tower(pr.p, pr.ell)


@lru_cache(maxsize=None)
def _eigenvalue(q: int, tr: int, det: int) -> int:
    """A root in F_{q^2} of x^2 - tr*x + det, by search: the first in element
    order.  Kept per (q, tr, det), q(q - 1) roots per q: every tower of one q
    is built alike, so the root is that of ``tower_for(q)``."""
    tower = tower_for(q)
    gf2 = tower.gf_q2
    tr2, det2 = tower.embed[tr], tower.embed[det]
    return next(x for x in range(1, gf2.size) if gf2.add(gf2.mul(x, x), gf2.sub(det2, gf2.mul(tr2, x))) == 0)


def classify_element(g: Matrix2, tower: FieldTower) -> GL2Class:
    """Conjugacy class of an invertible 2x2 matrix, recovered from eigenvalues.

    A non-scalar g is classified by its eigenvalues, the roots of
    x^2 - tr*x + det in F_{q^2}: one search finds a root sigma^e, and the
    other root is tr minus it.  sigma^e lies in F_q iff s | e, and then
    it is rho^(e/s).  So s not dividing e gives C4, a repeated root in
    F_q gives C2, and two distinct roots in F_q give C3.  The search runs
    once per (q, tr, det) (``_eigenvalue``).
    """
    gf, gf2 = tower.gf_q, tower.gf_q2
    a, b, c, d = g
    det = gf.sub(gf.mul(a, d), gf.mul(b, c))
    if det == 0:
        raise Singular(f"matrix {g} over F_{tower.q} is singular")
    pr = params(tower.q)
    if b == 0 and c == 0 and a == d:
        return GL2Class.C1(pr, tower.dlog_q(a))
    tr = gf.add(a, d)
    lam = _eigenvalue(tower.q, tr, det)
    mu = gf2.sub(tower.embed[tr], lam)
    e = tower.dlog_q2(lam)
    if e % pr.s:
        return GL2Class.C4(pr, e)
    if mu == lam:
        return GL2Class.C2(pr, e // pr.s)
    return GL2Class.C3(pr, e // pr.s, tower.dlog_q2(mu) // pr.s)


def enumerate_gl2(tower: FieldTower) -> list[Matrix2]:
    """Every invertible 2x2 matrix over F_q, in lexicographic order."""
    mul = tower.gf_q.mul_table
    return [g for g in product(range(tower.q), repeat=4) if mul[g[0]][g[3]] != mul[g[1]][g[2]]]


class OracleContext:
    """Cached enumeration and per-element classification for one q.

    Every element is classified on its own; the eigenvalue search behind
    ``classify_element`` runs once per (trace, det): q(q - 1) searches, not
    one per element.
    """

    def __init__(self, q: int):
        if q > CENSUS_MAX_Q:
            raise BudgetExceeded(f"q={q} exceeds the oracle ceiling {CENSUS_MAX_Q}")
        self.q = q
        self.pr = params(q)
        self.tower = tower_for(q)
        self.elements = enumerate_gl2(self.tower)
        self.class_of: dict[Matrix2, GL2Class] = {
            g: classify_element(g, self.tower) for g in self.elements
        }
        self.counts: Counter[GL2Class] = Counter(self.class_of.values())
        # the same tally in canonical class order, 0 for a class no element falls in
        self.tally = [self.counts[c] for c in enumerate_classes(self.pr)]


@lru_cache(maxsize=None)
def _context(q: int) -> OracleContext:
    return OracleContext(q)


def census(q: int) -> dict:
    """Conjugacy census from raw enumeration, checked against the class tables."""
    ctx = _context(q)
    pr = ctx.pr
    details = []
    ok = True
    expected_counts = {"c1": pr.r, "c2": pr.r, "c3": pr.r * (pr.r - 1) // 2, "c4": pr.q * pr.r // 2}
    seen_by_kind: dict[str, int] = {k: 0 for k in expected_counts}
    for cls, count in sorted(ctx.counts.items(), key=lambda kv: kv[0].sort_key()):
        seen_by_kind[cls.kind] += 1
        good = count == cls.size()
        ok = ok and good
        details.append(
            {"class": cls.label(), "size": count, "expected": cls.size(), "ok": good}
        )
    for kind, expected in expected_counts.items():
        good = seen_by_kind[kind] == expected
        ok = ok and good
        details.append(
            {"class_type": kind, "count": seen_by_kind[kind], "expected": expected, "ok": good}
        )
    total = len(ctx.elements)
    ok = ok and total == pr.order and set(ctx.counts) == set(enumerate_classes(pr))
    return {"check": "census", "q": q, "pass": ok, "total": total, "details": details}


def elementwise_mult(pi1: GL2Irrep, pi2: GL2Irrep, pi3: GL2Irrep, q: int) -> int:
    """(1/|G|) sum_c #c * chi1(c) chi2(c) conj(chi3(c)), with #c counted from matrices.

    This is the class sum of ``tensor.mult_sum`` with the same character
    terms and the same kernel; only the class sizes are independent:
    every element of GL2(q) is enumerated and classified, and #c is the
    tally, not the size column of any table.
    """
    if q > ELEMENTWISE_MAX_Q:
        raise BudgetExceeded(f"q={q} exceeds the element-sum ceiling {ELEMENTWISE_MAX_Q}")
    ctx = _context(q)
    pr = ctx.pr
    rows = char_rows(operands([pi1, pi2, pi3], pr), pr)
    return exact_sums(pr.rs, ctx.tally, rows, rows, rows, ([0], [1], [2]), lambda i: "element sum", pr.order)[0]


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
    for cls in enumerate_classes(pr):
        g = _matrix_for_class(cls, tower)
        if ctx.class_of[g] != cls:
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
    """
    ctx = _context(q)
    pr, tower = ctx.pr, ctx.tower
    gf = tower.gf_q
    p = pr.p
    irreps = enumerate_irreps(pr)
    unipotents = [(1, 0, b, 1) for b in range(q)]
    classes = [ctx.class_of[u] for u in unipotents]
    # the q unipotents fall in two classes (the identity and c2:0): the sum
    # over them is regrouped by class, sum_c chi(c) * (sum over u in c of
    # conj psi(u)), so each irrep's value on a class is taken once
    met = list(dict.fromkeys(classes))
    values = [[char_value(pi, cls, pr) for cls in met] for pi in irreps]
    b_digits = [gf.digits(u[2]) for u in unipotents]
    rows = []
    ok = True
    for c_param in range(q):
        c_digits = gf.digits(c_param)
        phases = dict.fromkeys(met, Cyclotomic.zero())
        for cls, bd in zip(classes, b_digits):
            phases[cls] = phases[cls] + root(p, -sum(x * y for x, y in zip(c_digits, bd)) % p)
        mults = []
        for chi in values:
            acc = Cyclotomic.zero()
            for value, phase in zip(chi, phases.values()):
                acc = acc + value * phase
            mults.append(divide_exact(acc.as_integer(), q, "unipotent restriction sum"))
        if c_param == 0:
            expected = [2 if pi.kind == "W" else (1 if pi.kind in ("U", "V") else 0) for pi in irreps]
        else:
            expected = [0 if pi.kind == "U" else 1 for pi in irreps]
        good = mults == expected
        ok = ok and good
        rows.append(
            {
                "psi": c_param,
                "trivial": c_param == 0,
                "multiplicities": dict(zip((pi.label() for pi in irreps), mults)),
                "ok": good,
            }
        )
    report = {
        "check": "bessel",
        "q": q,
        "pass": ok,
        "big_irreps": sum(1 for pi in irreps if pi.dim() > 1),
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
