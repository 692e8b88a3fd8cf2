"""The scalar reference of the closed-form row stacks: rows packed from
(coef, exp) terms one entry at a time, and an array-for-array comparison."""

import numpy as np

from gl2rep.gl2 import Block


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
