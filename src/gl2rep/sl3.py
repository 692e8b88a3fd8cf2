"""Restriction from SL3(q) to GL2(q) embedded via g -> diag(g, det(g)^-1).

Only the three irreducible families of SL3(q) needed to exhibit
multiplicity >= 2 witnesses are carried: pi_qs (dimension q*s),
pi_t^(u) (dimension t = q^2 + q + 1) and pi_rt^(u) (dimension r*t).
Their character values are known on all eight class types C1..C8 of
SL3(q); the embedded copy of GL2(q) only ever meets C1..C7.

Class parameter conventions, with omega = rho^(r/d), d = gcd(3, r):

    C1(k), C2(k)      1 <= k <= d (k = d is the identity coset)
    C3(k, l)          1 <= k, l <= d; character values depend on k only
    C4(k), C5(k)      k in Z_r with k != 0 mod r/d
    C6({k, l})        distinct eigenvalue exponents {k, l, -k-l} mod r
    C7(k)             k in Z_rs, k != 0 mod s, orbit k ~ q*k
    C8(k)             k in Z_t, k != 0 mod t/d, orbit k ~ q*k ~ q^2*k

The pi_rt value on C7(k) is -(phi_u(sigma^-k) + phi_u(sigma^-qk)).
The rows on the embedded GL2 classes come in closed form (``sl3_rows``);
``embed_class`` is the scalar reference of the class each GL2 class meets,
and tests/packed.py keeps the scalar character terms they are held to.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidLabel, MismatchedQ, WitnessFailed
from .gl2 import (
    SLICE_BYTES,
    GL2Class,
    GL2Irrep,
    GroupParams,
    Rows,
    _Label,
    cell_rows,
    char_rows,
    check_q,
    class_params,
    enumerate_irreps,
    exact_sums,
    label_forms,
    label_table,
    operands,
    params,
    parse_label,
    require_budget,
    table_bytes,
    x_canonical,
)


class SL3Class(_Label):
    """Canonical label of a conjugacy class of SL3(q)."""

    __slots__ = ()

    @staticmethod
    def C1(pr: GroupParams, k: int) -> "SL3Class":
        return SL3Class(pr.q, "C1", (_central_param(k, pr),))

    @staticmethod
    def C2(pr: GroupParams, k: int) -> "SL3Class":
        return SL3Class(pr.q, "C2", (_central_param(k, pr),))

    @staticmethod
    def C3(pr: GroupParams, k: int, l: int) -> "SL3Class":
        if not (1 <= l <= pr.d):
            raise InvalidLabel(f"C3 second parameter {l} outside 1..{pr.d}")
        return SL3Class(pr.q, "C3", (_central_param(k, pr), l))

    @staticmethod
    def C4(pr: GroupParams, k: int) -> "SL3Class":
        return SL3Class(pr.q, "C4", (_noncentral_param(k, pr),))

    @staticmethod
    def C5(pr: GroupParams, k: int) -> "SL3Class":
        return SL3Class(pr.q, "C5", (_noncentral_param(k, pr),))

    @staticmethod
    def C6(pr: GroupParams, k: int, l: int) -> "SL3Class":
        r = pr.r
        k, l = k % r, l % r
        third = (-k - l) % r
        triple = sorted({k, l, third})
        if len(triple) != 3:
            raise InvalidLabel(
                f"C6 eigenvalue exponents {{{k},{l},{third}}} must be pairwise distinct"
            )
        return SL3Class(pr.q, "C6", (triple[0], triple[1]))

    @staticmethod
    def C7(pr: GroupParams, k: int) -> "SL3Class":
        return SL3Class(pr.q, "C7", (x_canonical(k, pr, "C7"),))

    @staticmethod
    def C8(pr: GroupParams, k: int) -> "SL3Class":
        t, q = pr.t, pr.q
        k %= t
        if pr.d * k % t == 0:
            raise InvalidLabel(f"C8 parameter {k} is 0 mod t/d")
        return SL3Class(pr.q, "C8", (min(k, q * k % t, q * q * k % t),))


def _central_param(k: int, pr: GroupParams) -> int:
    if not (1 <= k <= pr.d):
        raise InvalidLabel(f"central class parameter {k} outside 1..{pr.d}")
    return k


def _noncentral_param(k: int, pr: GroupParams) -> int:
    k %= pr.r
    if k * pr.d % pr.r == 0:
        raise InvalidLabel(f"parameter {k} is 0 mod r/d={pr.r // pr.d}")
    return k


class SL3Irrep(_Label):
    """One of the three partial-table irreducibles of SL3(q)."""

    __slots__ = ()

    @staticmethod
    def QS(pr: GroupParams) -> "SL3Irrep":
        return SL3Irrep(pr.q, "piQS", ())

    @staticmethod
    def T(pr: GroupParams, u: int) -> "SL3Irrep":
        u %= pr.r
        if u == 0:
            raise InvalidLabel("piT parameter must be nonzero mod r")
        return SL3Irrep(pr.q, "piT", (u,))

    @staticmethod
    def RT(pr: GroupParams, u: int) -> "SL3Irrep":
        return SL3Irrep(pr.q, "piRT", (x_canonical(u, pr, "piRT"),))

    def dim(self) -> int:
        pr = params(self.q)
        if self.kind == "piQS":
            return pr.q * pr.s
        if self.kind == "piT":
            return pr.t
        return pr.r * pr.t


# The grammar of the SL3 irrep labels, as gl2.IRREP_GRAMMAR is of the GL2 ones.
SL3_IRREP_GRAMMAR = {"piQS": (SL3Irrep.QS, ()), "piT": (SL3Irrep.T, ("u",)), "piRT": (SL3Irrep.RT, ("u",))}
SL3_IRREP_KINDS = tuple(SL3_IRREP_GRAMMAR)
_UNKNOWN_SL3_IRREP = f"unknown SL3 irrep label %r ({', '.join(label_forms(SL3_IRREP_GRAMMAR))})"


def parse_sl3_irrep(text: str, pr: GroupParams) -> SL3Irrep:
    """Parse and canonicalise an SL3 irrep label: piQS, piT:u or piRT:u."""
    return parse_label(text, pr, SL3_IRREP_GRAMMAR, _UNKNOWN_SL3_IRREP)


def embed_class(c: GL2Class, pr: GroupParams) -> SL3Class:
    """The SL3(q) class met by the image of a GL2(q) class under the embedding."""
    if c.q != pr.q:
        raise MismatchedQ(f"{c!r} does not live over q={pr.q}")
    r, d = pr.r, pr.d
    unit = r // d
    if c.kind == "c1":
        k = c.data[0]
        if k % unit == 0:
            return SL3Class.C1(pr, _omega_exponent(k, pr))
        return SL3Class.C4(pr, k)
    if c.kind == "c2":
        k = c.data[0]
        if k % unit == 0:
            return SL3Class.C2(pr, _omega_exponent(k, pr))
        return SL3Class.C5(pr, k)
    if c.kind == "c3":
        k, l = c.data
        if (2 * k + l) % r == 0:
            return SL3Class.C4(pr, k)
        if (2 * l + k) % r == 0:
            return SL3Class.C4(pr, l)
        return SL3Class.C6(pr, k, l)
    return SL3Class.C7(pr, -c.data[0])


def _omega_exponent(k: int, pr: GroupParams) -> int:
    """Translate a scalar exponent k (multiple of r/d) to the omega scale 1..d."""
    j = (k * pr.d // pr.r) % pr.d
    return j if j else pr.d


def sl3_rows(pis, pr: GroupParams) -> Rows:
    """The character rows of these SL3 irreps on the embedded GL2 classes, in
    this order and in canonical class order, as one stack: the cell table of
    the scalar character terms (tests/packed.py) on the classes embed_class
    gives, which the tests hold it to entry for entry.

    A coefficient varies over a GL2 class block with the SL3 class that each
    class meets.  c1:k and c2:k meet C1 and C2 when k = 0 mod r/d, and C4(k)
    and C5(k) otherwise.  c3:k,l meets C4(x) when 2x + y = 0 mod r for {x, y}
    = {k, l}, and otherwise C6, whose piT terms run over the sorted exponents
    {k, l, -k-l}.  c4:m meets C7(min(-m, -qm) mod rs).  The exponents are
    alpha_u(rho^e) = u e s, u = 0 for piQS, but -u k and -u q k for piRT on C7.
    """
    check_q(pis, pr)
    if not pis:
        return ()
    kind = np.array([SL3_IRREP_KINDS.index(pi.kind) for pi in pis], dtype=np.int64)
    u = np.array([pi.data[0] if pi.data else 0 for pi in pis], dtype=np.int64)
    q, r, s, rs, t = pr.q, pr.r, pr.s, pr.rs, pr.t
    k, k3, l3, m = class_params(q)
    central = k % (r // pr.d) == 0
    # c3:k,l meets C4(x) if 2x + y = 0 mod r for {x, y} = {k, l}, k tested first
    x = np.where((2 * k3 + l3) % r == 0, k3, l3)
    c6 = (x + k3 + l3) % r != 0
    low, mid, high = np.sort([k3, l3, (-k3 - l3) % r], axis=0)
    k7 = np.minimum(-m % rs, -q * m % rs)
    rt = kind == SL3_IRREP_KINDS.index("piRT")

    def power(base, e):
        """zeta_rs^(base_i e_j) for each row i and class j."""
        return np.multiply.outer(base % rs, e) % rs

    def meets(where, there, elsewhere):
        """Coefficients (terms, kinds, classes) of a block: ``there`` on the classes where ``where`` holds."""
        return np.where(where, np.array(there)[..., None], np.array(elsewhere)[..., None])

    # per class block, the coefficients of its terms for each SL3 kind (piQS, piT, piRT) on the SL3
    # classes it meets, and their exponents; piT has a second term off the centre
    c1 = meets(central, [(q * s, t, r * t), (0, 0, 0)], [(s, s, r), (0, 1, 0)])
    c2 = meets(central, [(q, s, -1), (0, 0, 0)], [(1, 1, -1), (0, 1, 0)])
    c3 = meets(c6, [(2, 1, 0), (0, 1, 0), (0, 1, 0)], [(s, s, r), (0, 1, 0), (0, 0, 0)])
    c7 = [(0, 1, -1), (0, 0, -1)]
    scalar = (lambda: power(u * s, k), lambda: power(u * s, -2 * k))
    split = (
        lambda: power(u * s, np.where(c6, low, x)),
        lambda: power(u * s, np.where(c6, mid, -2 * x)),
        lambda: power(u * s, high),
    )
    elliptic = (lambda: power(np.where(rt, -u, u * s), k7), lambda: power(-u * q, k7))
    return cell_rows(kind, ((r, c1, scalar), (r, c2, scalar), (len(k3), c3, split), (len(m), c7, elliptic)))


def _restriction_mults(pairs: list[tuple[SL3Irrep, GL2Irrep]], pr: GroupParams) -> list[int]:
    """restriction_mult of every (pi, tau) pair, from one exact_sums call over
    the rows of the distinct pi, each pair reading its pi's row by index."""
    rows_of: dict[SL3Irrep, int] = {}
    at = [rows_of.setdefault(pi, len(rows_of)) for pi, _ in pairs]
    pi_rows = sl3_rows(list(rows_of), pr)
    tau_rows = char_rows(operands([tau for _, tau in pairs], pr), pr)
    index = (at, None, np.arange(len(pairs)))
    return exact_sums(
        pr.rs, label_table(pr.q).sizes, pi_rows, None, tau_rows, index,
        lambda i: f"restriction sum for [{pairs[i][0].label()} | : {pairs[i][1].label()}]", pr.order,
    )


def restriction_mult(pi: SL3Irrep, tau: GL2Irrep, pr: GroupParams) -> int:
    """Multiplicity of tau in the restriction of pi to the embedded GL2(q)."""
    return _restriction_mults([(pi, tau)], pr)[0]


def witness_irrep(tau: GL2Irrep, pr: GroupParams) -> SL3Irrep:
    """The designated SL3(q) irreducible containing tau with multiplicity >= 2."""
    r, s, rs = pr.r, pr.s, pr.rs
    if tau.kind == "U":
        a = tau.data[0]
        if a == 0:
            return SL3Irrep.QS(pr)
        return SL3Irrep.T(pr, -a)
    if tau.kind == "V":
        # -a, but -r for a = 0, the one residue a mod r with -a = 0 mod s
        a = tau.data[0]
        return SL3Irrep.RT(pr, -a if a else -r)
    if tau.kind == "W":
        # the first shift u = b - 2a + c r (mod rs), c = 0, 1, ..., with u != 0
        # mod s: r = -2 mod s, so c = 1 leaves the coset of c = 0, as s >= 3
        a, b = tau.data
        return SL3Irrep.RT(pr, (b - 2 * a + r * ((b - 2 * a) % s == 0)) % rs)
    return SL3Irrep.RT(pr, tau.data[0])


def expected_witness_mult(tau: GL2Irrep, pr: GroupParams) -> int:
    """Closed-form witness multiplicity: 2, 2, d+1, 1+d (or 2+d), d+1."""
    d = pr.d
    if tau.kind == "U":
        return 2
    if tau.kind == "V":
        return d + 1
    if tau.kind == "W":
        a, b = tau.data
        bonus = 1 if (3 * (b - a)) % pr.r == 0 else 0
        return 1 + d + bonus
    return d + 1


def _require_witness(pi: SL3Irrep, tau: GL2Irrep, mult: int, pr: GroupParams) -> None:
    if mult < 2:
        raise WitnessFailed(
            f"designated witness {pi.label()} for {tau.label()} at q={pr.q} "
            f"has multiplicity {mult} < 2"
        )


def witness_no_gelfand(tau: GL2Irrep, pr: GroupParams) -> tuple[SL3Irrep, int]:
    """A verified (SL3 irrep, multiplicity >= 2) witness that tau is not Gelfand."""
    pi = witness_irrep(tau, pr)
    mult = restriction_mult(pi, tau, pr)
    _require_witness(pi, tau, mult, pr)
    return pi, mult


def witness_bytes(q: int) -> int:
    """About the most bytes witness_report holds, from q alone: the SL3 and GL2
    rows (up to three terms per entry in the first) and a class_sum slice."""
    return table_bytes(q, per_entry=48) + SLICE_BYTES


def witness_report(pr: GroupParams) -> list[dict]:
    """Witness table over all GL2(q) irreducibles, with the d = 3 caveat flagged.

    For X-type tau the bullet-list value (two) and the worked multiplicity
    (d + 1) differ when d = 3; the computed value is reported and the
    affected rows carry a note.  BudgetExceeded is raised, before anything
    is allocated, if ``witness_bytes`` passes the table limit.
    """
    require_budget(witness_bytes(pr.q), f"the SL3 and GL2 rows of the witnesses over GL2({pr.q})")
    pairs = [(witness_irrep(tau, pr), tau) for tau in enumerate_irreps(pr)]
    rows = []
    # the restriction sums of every witness at once; checked as witness_no_gelfand checks one
    for (pi, tau), mult in zip(pairs, _restriction_mults(pairs, pr)):
        _require_witness(pi, tau, mult, pr)
        expected = expected_witness_mult(tau, pr)
        row = {
            "tau": tau.label(),
            "witness": pi.label(),
            "multiplicity": mult,
            "expected": expected,
            "ok": mult == expected and mult >= 2,
        }
        if tau.kind == "X" and pr.d == 3:
            row["note"] = (
                "d=3: computed multiplicity d+1 = 4 (the value two quoted for "
                "this family holds only when d = 1)"
            )
        rows.append(row)
    return rows
