"""Exact character theory of GL2(q): tensor multiplicities, Gelfand triples,
and restriction from SL3(q), with brute-force matrix and convolution oracles."""

from .cyclotomic import Cyclotomic, cyclotomic_polynomial, root
from .gl2 import GL2Class, GL2Irrep, GroupParams, char_value, params
from .sl3 import SL3Class, SL3Irrep
from .tensor import decompose, mult_closed, mult_sum

__all__ = [
    "Cyclotomic",
    "cyclotomic_polynomial",
    "root",
    "GL2Class",
    "GL2Irrep",
    "GroupParams",
    "char_value",
    "params",
    "SL3Class",
    "SL3Irrep",
    "decompose",
    "mult_closed",
    "mult_sum",
]

__version__ = "0.1.0"
