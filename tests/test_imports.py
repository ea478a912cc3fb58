"""Every name a module imports is read somewhere in that module, no
library module imports inside a function, dedups through numpy's
hash-based ``unique``, or writes a comma-joined row by hand, every
``numcore`` export has a reader in another library module, and
``np.asarray`` converts only where outside input enters the library."""

import ast
from pathlib import Path

from regioncl import numcore

REPO = Path(__file__).resolve().parents[1]
LIBRARY = sorted((REPO / "src" / "regioncl").glob("*.py"))
MODULES = sorted([*LIBRARY, *(REPO / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Imported names that the module never reads, in import order.

    A name counts as read when it appears as a name expression anywhere in
    the module, annotations included, or as a string in ``__all__``.
    """
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in read]


def test_scanner_finds_unread_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from typing import Any, List\nfrom x import y as z\n"
              "__all__ = ['z']\n"
              "def f(a: List) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["os", "os", "Any"]


def test_no_module_imports_a_name_it_never_reads():
    found = {str(path.relative_to(REPO)): names for path in MODULES
             if (names := unused_imports(path.read_text()))}
    assert found == {}


def function_imports(source: str) -> list:
    """Line numbers of imports inside a function or method body, nested
    functions included."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_function_import_scanner_finds_nested_imports():
    source = ("import os\n"
              "from x import y\n"
              "def f():\n    import json\n    return json\n"
              "class C:\n    from z import w\n"
              "    def m(self):\n"
              "        def g():\n            from . import q\n"
              "        return g\n"
              "async def h():\n    import re\n")
    assert function_imports(source) == [4, 10, 13]


def test_no_library_module_imports_inside_a_function():
    found = {str(path.relative_to(REPO)): lines for path in LIBRARY
             if (lines := function_imports(path.read_text()))}
    assert found == {}, (
        f"imports inside functions at {found}: import at module level, so "
        f"a module's dependencies are read from its head")


# set routines that dedup their input with np.unique unless told it is unique
DEDUPING = {"isin", "intersect1d", "setdiff1d", "setxor1d"}


def unique_calls(source: str) -> list:
    """Line numbers of calls that reach ``np.unique``: the ``np.unique``
    family (``np.unique_values``, ...), ``np.union1d``, and the other set
    routines unless they pass ``assume_unique=True``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in {"np", "numpy"}):
            continue
        name = node.func.attr
        told_unique = any(k.arg == "assume_unique"
                          and isinstance(k.value, ast.Constant)
                          and k.value.value is True for k in node.keywords)
        if name.startswith("unique") or name == "union1d" \
                or (name in DEDUPING and not told_unique):
            lines.append(node.lineno)
    return lines


def test_unique_scanner_finds_calls():
    source = ("import numpy as np\n"
              "a = np.unique([1])\n"
              "b = sorted_unique(a)  # np.unique in a comment\n"
              "c = np.unique_values(a)\n"
              "d = np.setdiff1d(a, c)\n"
              "e = np.isin(a, c, assume_unique=True)\n"
              "f = np.intersect1d(a, c, assume_unique=False)\n"
              "g = np.union1d(a, c)\n")
    assert unique_calls(source) == [2, 4, 5, 7, 8]


def test_no_library_module_calls_np_unique():
    found = {str(path.relative_to(REPO)): lines for path in LIBRARY
             if (lines := unique_calls(path.read_text()))}
    assert found == {}, (
        f"calls that reach np.unique at {found}: since numpy 2.3 np.unique "
        f"builds a hash table before it sorts. Dedup int64 keys with "
        f"regioncl.hetero_graph.sorted_unique (one sort and a mask of "
        f"adjacent differences), and pass assume_unique=True to set "
        f"routines whose inputs are already unique")


def hand_written_rows(source: str) -> list:
    """Line numbers of ``.write(...)`` calls whose argument holds a string
    or f-string literal with a comma: a table row joined by hand."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "write" \
                and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                        and "," in c.value
                        for arg in node.args for c in ast.walk(arg)):
            lines.append(node.lineno)
    return lines


def test_row_scanner_finds_hand_written_rows():
    source = ("fh.write('a,b\\n')\n"
              "fh.write(f'{a},{b!r}\\n')\n"
              "fh.write('\\n')\n"
              "fh.write(json.dumps(rec) + '\\n')\n"
              "fh.write(x + ',' + y)\n"
              "print('a,b')\n")
    assert hand_written_rows(source) == [1, 2, 5]


def test_no_library_module_writes_a_csv_row_by_hand():
    found = {str(path.relative_to(REPO)): lines for path in LIBRARY
             if (lines := hand_written_rows(path.read_text()))}
    assert found == {}, (
        f"hand-joined rows at {found}: write tables with "
        f"regioncl.region_data.write_csv, which quotes a field that holds "
        f"a comma and writes each float as its repr")


# a setting is checked once, when its config dataclass is built; these
# library functions check something a config cannot see on its own
CONFIG_CHECKS_AT_USE = {
    "trainer.train",            # views sharing < 2 nodes: needs the city
    "eval_harness.run_arms",    # a variant or seed named twice
    "gradcheck.run_gradcheck",  # --points and --seed
}


def config_raisers(source: str) -> list:
    """Functions that raise ``ConfigError``, as ``name`` or
    ``Class.method`` in source order, leaving out ``__post_init__``; a
    nested function counts as the function it is defined in."""
    found = []

    def raises_config_error(node) -> bool:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Raise) and inner.exc is not None:
                exc = inner.exc.func if isinstance(inner.exc, ast.Call) \
                    else inner.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name == "ConfigError":
                    return True
        return False

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name != "__post_init__" \
                    and raises_config_error(node):
                found.append(prefix + node.name)

    visit(ast.parse(source).body, "")
    return found


def test_config_raiser_scanner_finds_checks_outside_post_init():
    source = ("class C:\n"
              "    def __post_init__(self):\n"
              "        raise ConfigError('x')\n"
              "    def check(self):\n"
              "        raise errors.ConfigError\n"
              "def f(x):\n"
              "    def g():\n        raise ConfigError(f'{x}')\n"
              "    return g\n"
              "def h():\n    raise DataError('ConfigError')\n"
              "async def k():\n    raise ConfigError('y') from None\n")
    assert config_raisers(source) == ["C.check", "f", "k"]


def test_each_setting_is_checked_where_its_config_is_built():
    found = {f"{path.stem}.{name}" for path in LIBRARY
             if path.name not in ("config.py", "cli.py")
             for name in config_raisers(path.read_text())}
    assert found == CONFIG_CHECKS_AT_USE, (
        f"ConfigError raised outside a __post_init__ by "
        f"{sorted(found - CONFIG_CHECKS_AT_USE)}: check the setting in its "
        f"config dataclass's __post_init__, once, and trust it where it is "
        f"used; a check that needs more than the config goes in "
        f"CONFIG_CHECKS_AT_USE")


# numcore exports that no other library module reads: the explicit array
# conversion, which the benchmark harness calls, and the log the tests'
# composed NCE references take
NUMCORE_UNREAD = {"constant", "log"}


def numcore_names_read(source: str) -> set:
    """Names a module reads from ``numcore``: those it imports from it,
    and the attributes it reads off a name bound to the module."""
    aliases, names = set(), set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "numcore":
                names |= {a.name for a in node.names}
            else:
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "numcore"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.asname and a.name.split(".")[-1] == "numcore"}
    return names | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases}


def test_numcore_reader_scanner_finds_imports_and_attributes():
    source = ("from . import numcore as nc\n"
              "from .numcore import Tensor, no_grad as ng\n"
              "from .losses import rows\n"
              "import regioncl.numcore as core\n"
              "y = nc.matmul(a, b) + core.relu(c) + losses.add(d)\n"
              "z = rows(nc.data).scale\n")
    assert numcore_names_read(source) == {"Tensor", "no_grad", "matmul",
                                          "relu", "data"}


def test_every_numcore_export_is_read_by_another_library_module():
    read = set().union(*(numcore_names_read(path.read_text())
                         for path in LIBRARY if path.name != "numcore.py"))
    unread = set(numcore.__all__) - read - NUMCORE_UNREAD
    assert unread == set(), (
        f"numcore exports {sorted(unread)} that no library module reads: "
        f"delete a form no caller uses, rather than keep it working and "
        f"tested for its own tests")


# where outside input becomes an array: the region pairs that
# ``regioncl case --pairs`` reads; numcore and gradcheck are exempt whole
ASARRAY_CALLERS = {"eval_harness.pair_similarity"}


def asarray_callers(source: str) -> list:
    """Functions that call ``np.asarray``, as ``name`` or ``Class.method``
    in source order, and ``<module>`` for a call outside any function; a
    nested function counts as the function it is defined in."""
    found = []

    def calls_asarray(node) -> bool:
        return any(isinstance(inner, ast.Call)
                   and isinstance(inner.func, ast.Attribute)
                   and inner.func.attr == "asarray"
                   and isinstance(inner.func.value, ast.Name)
                   and inner.func.value.id in {"np", "numpy"}
                   for inner in ast.walk(node))

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif calls_asarray(node):
                found.append(prefix + node.name if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else "<module>")

    visit(ast.parse(source).body, "")
    return found


def test_asarray_scanner_finds_callers():
    source = ("import numpy as np\n"
              "X = np.asarray([1])\n"
              "class M:\n"
              "    def predict(self, X):\n        return np.asarray(X) @ w\n"
              "    def fit(self, X):\n        return np.array(X)\n"
              "def f(x):\n"
              "    def g():\n        return numpy.asarray(x, dtype=float)\n"
              "    return g\n"
              "def h(x):\n    return x.asarray()  # np.asarray(x)\n")
    assert asarray_callers(source) == ["<module>", "M.predict", "f"]


def test_arrays_are_converted_only_where_outside_input_enters():
    found = {f"{path.stem}.{name}" for path in LIBRARY
             if path.stem not in ("numcore", "gradcheck")
             for name in asarray_callers(path.read_text())}
    assert found == ASARRAY_CALLERS, (
        f"np.asarray re-converts an array in "
        f"{sorted(found - ASARRAY_CALLERS)}: a library function takes the "
        f"one form its callers pass, so convert outside input once, where "
        f"it enters the program")
