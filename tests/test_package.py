"""Repository-wide invariants of the library source."""

import ast
import importlib
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gl2rep").glob("*.py"))


def _asserts(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def test_library_invariants_are_not_asserts():
    # python -O strips assert statements; invariants raise GL2RepError instead
    assert SOURCES
    found = {path.name: _asserts(ast.parse(path.read_text(), str(path))) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_assert_check_sees_both_forms():
    source = "assert x\nraise AssertionError\nraise AssertionError('y')\nraise ValueError\n"
    assert _asserts(ast.parse(source)) == [1, 2, 3]


def _label_errors(tree: ast.AST) -> list[int]:
    """Lines of every call of InvalidLabel, by name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "InvalidLabel" or getattr(node.func, "attr", None) == "InvalidLabel")
    ]


def test_only_the_label_modules_construct_invalid_label():
    # each label family's grammar and canonical forms live in gl2 and sl3; no other module reads labels
    found = {path.stem for path in SOURCES if _label_errors(ast.parse(path.read_text(), str(path)))}
    assert found == {"gl2", "sl3"}


def test_the_label_error_check_sees_both_forms():
    source = "raise InvalidLabel('a')\nraise errors.InvalidLabel('b')\nx = InvalidLabel\n"
    assert _label_errors(ast.parse(source)) == [1, 2]


def _names(tree: ast.AST, name: str) -> list[int]:
    """Lines that name ``name``: as a name, an attribute or an imported name."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names))
    )


def test_only_gl2_names_the_class_sum_slices():
    # the front door to the kernel is gl2.exact_sums, or gl2.class_sum for coordinates
    found = {path.stem for path in SOURCES if _names(ast.parse(path.read_text(), str(path)), "class_sum_slices")}
    assert found == {"gl2"}


def test_only_gl2_names_label_texts():
    # the label text of either family is rendered by gl2's label table the
    # first time it is read, and kept there; no other module renders a column
    found = {path.stem for path in SOURCES if _names(ast.parse(path.read_text(), str(path)), "label_texts")}
    assert found == {"gl2"}


def test_only_the_oracle_enumerates_and_classifies_matrices():
    # harmonic reads GL2(q)'s elements and their classes from the oracle's context
    for name in ("enumerate_gl2", "classify_elements"):
        found = {path.stem for path in SOURCES if _names(ast.parse(path.read_text(), str(path)), name)}
        assert found == {"oracle"}, name


def test_the_name_check_sees_every_form():
    source = "from m import (a,\n    k)\nk(1)\nm.k\nx = 'k'\nkk(2)\n"
    assert _names(ast.parse(source), "k") == [1, 3, 4]


def _object_dtypes(tree: ast.AST) -> list[int]:
    """Lines that ask for numpy's object dtype: the name ``object``, or the
    string "object" or "O" given as a dtype keyword or to astype or np.dtype."""
    lines = _names(tree, "object")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = [k.value for k in node.keywords if k.arg == "dtype"]
        if getattr(node.func, "attr", None) in ("astype", "dtype"):
            args += node.args[:1]
        if any(isinstance(a, ast.Constant) and a.value in ("object", "O") for a in args):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_harmonic_layer_has_no_object_dtype():
    # its kernels run on int64 and float64 under a priori bounds, never on Python integers
    path = next(path for path in SOURCES if path.stem == "harmonic")
    assert _object_dtypes(ast.parse(path.read_text(), str(path))) == []


def test_the_object_dtype_check_sees_every_form():
    source = (
        "a.astype(object)\nnp.zeros(3, dtype=object)\nnp.dtype('O')\nb.astype('object')\n"
        "np.array(c, dtype='O')\nnp.int64\nd.astype(np.int64)\ne = 'O'\n"
    )
    assert _object_dtypes(ast.parse(source)) == [1, 2, 3, 4, 5]


# The unbounded caches the library may keep, one entry per argument (mostly
# per q).  Any other is refused: a cache of whole tables grows with every q a
# process touches.
ALLOWED_CACHES = {
    "cli._parser",
    "cyclotomic._cyclotomic_polynomial",
    "cyclotomic._crt_order",
    "cyclotomic._power_table",
    "gl2.label_table",
    "gl2.params",
    "harmonic.pair_context",
    "oracle._context",
    "oracle.tower_for",
}


def _is_unbounded(dec: ast.expr) -> bool:
    func = dec.func if isinstance(dec, ast.Call) else dec
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(dec, ast.Call):
        return False
    sizes = [*dec.args[:1], *(k.value for k in dec.keywords if k.arg == "maxsize")]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def _unbounded_caches(tree: ast.AST, module: str) -> list[str]:
    """module.function of each function decorated with lru_cache(maxsize=None) or functools.cache."""
    return [
        f"{module}.{node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_unbounded, node.decorator_list))
    ]


def test_only_allowed_caches_are_unbounded():
    found = [name for path in SOURCES for name in _unbounded_caches(ast.parse(path.read_text(), str(path)), path.stem)]
    assert found and set(found) <= ALLOWED_CACHES, sorted(set(found) - ALLOWED_CACHES)


def test_the_cache_check_sees_every_form():
    source = (
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@functools.lru_cache(None)\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "@cache\ndef d(): pass\n"
        "@lru_cache(maxsize=8)\ndef e(): pass\n"
        "@lru_cache\ndef f(): pass\n"
    )
    assert _unbounded_caches(ast.parse(source), "m") == ["m.a", "m.b", "m.c", "m.d"]


def _traced_names() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of bench/tracer.py's SPANS and LEAVES, read without importing it."""
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    pairs = []
    for node in ast.parse(tracer.read_text(), str(tracer)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("SPANS", "LEAVES") for t in node.targets):
            pairs += [tuple(ast.literal_eval(entry))[:2] for entry in node.value.elts]
    return pairs


def test_every_name_the_tracer_wraps_resolves_in_the_package():
    # bench/run.py --trace patches these by name; a renamed or deleted one fails here first
    pairs = _traced_names()
    assert len(pairs) > 20
    missing = []
    for module, attr in pairs:
        target = importlib.import_module(f"gl2rep.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert missing == []
