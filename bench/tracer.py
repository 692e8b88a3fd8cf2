"""Spans recorded from outside the program, by wrapping gl2rep's public functions.

Each wrapped call of an entry function is a span with a name, a start, an
end and a parent; spans stay in memory until the run ends.  Hot leaves,
called millions of times, are not kept one by one: they are aggregated as
a count and a total time under their nearest enclosing span.  Calls made
from inside a hot leaf are not traced, so a leaf's time includes them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

ROOT = -1
PACKAGE = "gl2rep"


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children, leaf_total: float = 0.0) -> float:
    """A span's duration minus the part its direct children cover.

    ``children`` are the (start, end) intervals of the direct child spans;
    ``leaf_total`` is the time of the hot leaves aggregated under the span,
    which run one at a time and never overlap a child span.
    """
    return (end - start) - covered(start, end, children) - leaf_total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        # (parent span, leaf name) -> [calls, total seconds, nonzero results]
        self.leaves: dict[tuple[int, str], list] = {}
        self.current = ROOT
        self.in_leaf = False
        # name -> {id(array): nbytes} for the distinct arrays a span returned
        self.arrays: dict[str, dict[int, int]] = {}
        self.basis_dim_total = 0

    def span(self, name: str, fn, on_result=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.in_leaf:
                return fn(*args, **kwargs)
            i = len(tr.names)
            tr.names.append(name)
            tr.parents.append(tr.current)
            tr.ends.append(0.0)
            parent, tr.current = tr.current, i
            tr.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.ends[i] = perf_counter()
                tr.current = parent
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def leaf(self, name: str, fn, count_nonzero: bool = False):
        tr = self
        leaves = self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.in_leaf:
                return fn(*args, **kwargs)
            tr.in_leaf = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tr.in_leaf = False
                key = (tr.current, name)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
            if count_nonzero and result:
                agg[2] += 1
            return result

        return wrapper

    def record_array(self, name: str):
        def hook(array):
            self.arrays.setdefault(name, {})[id(array)] = int(array.nbytes)

        return hook

    def record_basis(self, basis):
        self.basis_dim_total += len(basis)

    def group_totals(self) -> dict[str, list]:
        """name -> [calls, self seconds, nonzero results], spans and leaves together."""
        children: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p != ROOT:
                children[p].append(i)
        leaf_under = [0.0] * len(self.names)
        out: dict[str, list] = {}
        for (parent, name), (calls, total, nonzero) in self.leaves.items():
            if parent != ROOT:
                leaf_under[parent] += total
            agg = out.setdefault(name, [0, 0.0, 0])
            agg[0] += calls
            agg[1] += total
            agg[2] += nonzero
        for i, name in enumerate(self.names):
            kids = [(self.starts[c], self.ends[c]) for c in children[i]]
            agg = out.setdefault(name, [0, 0.0, 0])
            agg[0] += 1
            agg[1] += self_time(self.starts[i], self.ends[i], kids, leaf_under[i])
        return out


# Entry functions traced as spans: (module, attribute, span name).  A
# dotted attribute names a method, patched on its class.
SPANS = (
    ("harmonic", "pair_context", "harmonic.pair_context"),
    ("harmonic", "PairGroupContext.n_tensor", "harmonic.n_tensor"),
    ("harmonic", "PairGroupContext.pair_count", "harmonic.pair_count"),
    ("harmonic", "build_I_pi", "harmonic.build_I_pi"),
    ("harmonic", "commutativity_check", "harmonic.commutativity_check"),
    ("tensor", "classify_gelfand", "tensor.sweep"),
    ("tensor", "ind_decompose", "tensor.sweep"),
    ("tensor", "decompose", "tensor.sweep"),
    ("tensor", "verify_agreement", "tensor.sweep"),
    ("tensor", "mult_sum", "tensor.mult_sum"),
    ("gl2", "char_inner_product", "gl2.inner_product"),
    ("gl2", "class_inner_product", "gl2.inner_product"),
    ("gl2", "char_value", "gl2.char_value"),
    ("gl2", "enumerate_classes", "gl2.enumerate"),
    ("gl2", "enumerate_irreps", "gl2.enumerate"),
    ("sl3", "restriction_mult", "sl3.restriction_mult"),
    ("oracle", "enumerate_gl2", "oracle.enumerate_gl2"),
    ("oracle", "_context", "oracle.checks"),
    ("oracle", "census", "oracle.checks"),
    ("oracle", "elementwise_mult", "oracle.checks"),
    ("oracle", "verify_embedding", "oracle.checks"),
    ("oracle", "bessel_check", "oracle.checks"),
    ("oracle", "generic_multiplicity", "oracle.checks"),
    ("fields", "build_tower", "fields.build_tower"),
)

# Hot leaves, aggregated under their parent span.
LEAVES = (
    ("tensor", "mult_closed", "tensor.mult_closed"),
    ("gl2", "char_terms", "gl2.char_terms"),
    ("oracle", "classify_element", "oracle.classify_element"),
    ("cyclotomic", "reduce_root_sum", "cyclotomic.reduce_root_sum"),
)

# Cyclotomic methods with a group of their own; every other method is "ops".
CYCLOTOMIC_GROUPS = {"as_json": "cyclotomic.as_json", "render": "cyclotomic.render"}


def _rebind(original, wrapper) -> None:
    """Point every module-level binding of ``original`` in the package at ``wrapper``.

    ``from .gl2 import char_terms`` binds the function again in tensor,
    oracle and sl3, and those bindings are what their code calls.
    """
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the entry functions, hot leaves and Cyclotomic methods of gl2rep."""
    hooks = {
        "harmonic.n_tensor": tracer.record_array("harmonic.n_tensor"),
        "harmonic.pair_count": tracer.record_array("harmonic.pair_count"),
        "harmonic.build_I_pi": tracer.record_basis,
    }
    for modname, attr, name in SPANS:
        module = importlib.import_module(f"{PACKAGE}.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.span(name, vars(cls)[meth], hooks.get(name)))
        else:
            original = getattr(module, attr)
            _rebind(original, tracer.span(name, original, hooks.get(name)))
    for modname, attr, name in LEAVES:
        original = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), attr)
        wrapper = tracer.leaf(name, original, count_nonzero=name == "tensor.mult_closed")
        _rebind(original, wrapper)

    cls = importlib.import_module(f"{PACKAGE}.cyclotomic").Cyclotomic
    for attr, value in list(vars(cls).items()):
        if attr == "__setattr__":
            continue
        name = CYCLOTOMIC_GROUPS.get(attr, "cyclotomic.ops")
        if isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(tracer.leaf(name, value.__func__)))
        elif callable(value):
            setattr(cls, attr, tracer.leaf(name, value))
