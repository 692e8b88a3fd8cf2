"""The scalar references of the closed-form row stacks: the SL3 character
terms one entry at a time, rows packed from (coef, exp) terms one entry at a
time, and an array-for-array comparison."""

import numpy as np

from gl2rep.cyclotomic import Cyclotomic
from gl2rep.errors import MismatchedQ
from gl2rep.gl2 import Block, GroupParams, terms_value
from gl2rep.sl3 import SL3Class, SL3Irrep


def sl3_char_terms(pi: SL3Irrep, c: SL3Class, pr: GroupParams) -> tuple[tuple[int, int], ...]:
    """Character value as terms coef * zeta_rs^exp; alpha lives at zeta_r = zeta_rs^s."""
    if pi.q != pr.q or c.q != pr.q:
        raise MismatchedQ(f"{pi!r}, {c!r} must both live over q={pr.q}")
    q, r, s, rs, t, d = pr.q, pr.r, pr.s, pr.rs, pr.t, pr.d
    unit = r // d
    kind = pi.kind
    if kind == "piQS":
        scalar = {"C1": q * s, "C2": q, "C3": 0, "C4": s, "C5": 1, "C6": 2, "C7": 0, "C8": -1}[
            c.kind
        ]
        return ((scalar, 0),) if scalar else ()
    u = pi.data[0]
    if c.kind in ("C1", "C2", "C3"):
        omega_exp = (u * c.data[0] * unit * s) % rs
        if kind == "piT":
            scalar = {"C1": t, "C2": s, "C3": 1}[c.kind]
            return ((scalar, omega_exp),)
        scalar = {"C1": r * t, "C2": -1, "C3": -1}[c.kind]
        return ((scalar, omega_exp),)
    if c.kind == "C4":
        k = c.data[0]
        if kind == "piT":
            return ((s, (u * k * s) % rs), (1, (-2 * u * k * s) % rs))
        return ((r, (u * k * s) % rs),)
    if c.kind == "C5":
        k = c.data[0]
        if kind == "piT":
            return ((1, (u * k * s) % rs), (1, (-2 * u * k * s) % rs))
        return ((-1, (u * k * s) % rs),)
    if c.kind == "C6":
        k, l = c.data
        if kind == "piT":
            return (
                (1, (u * k * s) % rs),
                (1, (u * l * s) % rs),
                (1, (-u * (k + l) * s) % rs),
            )
        return ()
    if c.kind == "C7":
        k = c.data[0]
        if kind == "piT":
            return ((1, (u * k * s) % rs),)
        return ((-1, (-u * k) % rs), (-1, (-u * q * k) % rs))
    return ()


def sl3_char_value(pi: SL3Irrep, c: SL3Class, pr: GroupParams) -> Cyclotomic:
    """Exact partial character table entry for SL3(q)."""
    return terms_value(pr.rs, sl3_char_terms(pi, c, pr))


def class_blocks(q: int) -> tuple[int, ...]:
    """Lengths of the c1, c2, c3 and c4 runs of the canonical class order."""
    r = q - 1
    return (r, r, r * (r - 1) // 2, q * r // 2)


def pack_rows(term_rows, q: int):
    """A stack of rows of character terms, each row one sequence of (coef, exp)
    terms per class in canonical class order.  The entries of a block shorter
    than its widest are padded with zero terms (0, 0); no rows give ()."""
    rs = q * q - 1
    term_rows = list(term_rows)
    if not term_rows:
        return ()
    blocks, lo = [], 0
    for length in class_blocks(q):
        cells = [row[lo : lo + length] for row in term_rows]
        lo += length
        width = max((len(t) for row in cells for t in row), default=0)
        flat = [part for row in cells for t in row for term in t + ((0, 0),) * (width - len(t)) for part in term]
        terms = np.array(flat, dtype=np.int64).reshape(len(cells), length, width, 2)
        terms = np.ascontiguousarray(terms.transpose(3, 2, 0, 1))
        terms[1] %= rs
        blocks.append(Block(terms, int(np.abs(terms[0]).sum(axis=0).max(initial=0))))
    return tuple(blocks)


def assert_same_stack(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.terms.dtype == w.terms.dtype and g.terms.shape == w.terms.shape
        assert np.array_equal(g.terms, w.terms)
        assert g.peak == w.peak
