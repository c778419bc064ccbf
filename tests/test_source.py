"""Rules on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kkgeom"


def test_no_assert_statements():
    """``python -O`` strips ``assert``, so no check in the package may rely
    on one."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def _self_calling_nested_functions(tree):
    """``outer.inner`` for every function defined inside another function
    that calls itself by name: such a closure refers to its own cell, so
    each call of ``outer`` leaves a reference cycle (and what the closure
    holds) for the cyclic collector."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, functions):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, functions):
                continue
            if any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == inner.name
                   for node in ast.walk(inner)):
                found.add(f"{outer.name}.{inner.name}")
    return found


def test_no_self_calling_nested_function():
    """Recursion lives at module level (as the generated walk of
    ``nlconnection.adapted_derivatives`` does), never in a nested
    closure."""
    found = {f"{path.name}:{name}"
             for path in sorted(SRC.glob("*.py"))
             for name in _self_calling_nested_functions(
                 ast.parse(path.read_text(), str(path)))}
    assert found == set()


def test_the_self_call_guard_sees_a_recursive_closure():
    tree = ast.parse("def outer(node):\n"
                     "    def walk(n):\n"
                     "        return [walk(s) for s in n]\n"
                     "    return walk(node)\n")
    assert _self_calling_nested_functions(tree) == {"outer.walk"}


def _unused_imports(tree):
    """Names a module imports and never reads, outside ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return {name for name in imported if name not in used}


def test_no_unused_imports():
    """In the package (whose ``__init__.py`` only re-exports) and in the
    tests."""
    paths = [path for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"] + sorted(TESTS.glob("*.py"))
    found = {f"{path.parent.name}/{path.name}:{name}"
             for path in paths
             for name in _unused_imports(ast.parse(path.read_text(),
                                                   str(path)))}
    assert found == set()


def test_the_unused_import_guard_sees_an_unused_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "from math import pi, tau\n"
                     "__all__ = ['tau']\n"
                     "print(pi)\n")
    assert _unused_imports(tree) == {"os"}


def _scopes_reading(node, name, scope=()):
    """The qualified name (``Class.method.inner``, ``""`` at module level)
    of the def or class around every read of ``name`` under ``node``."""
    if isinstance(node, ast.Name) and node.id == name:
        return {".".join(scope)}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope += (node.name,)
    return set().union(*(_scopes_reading(child, name, scope)
                         for child in ast.iter_child_nodes(node)))


def _template_text(value):
    """The text of a kernel template assigned as ``value``: the string of a
    ``KernelTemplate(...)``, or a plain string (a template's fragment);
    ``""`` for any other value."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id == "KernelTemplate" and value.args:
        value = value.args[0]
    return value.value if isinstance(value, ast.Constant) \
        and isinstance(value.value, str) else ""


def _template_reads(tree, name):
    """``NAME`` for every module-level template assigned to ``NAME``
    (:func:`_template_text`) whose text names ``name``."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            and name in re.findall(r"[A-Za-z_]\w*", _template_text(node.value))
            for target in node.targets if isinstance(target, ast.Name)}


def _primal_reads(trees):
    """``module:scope`` for every read of ``primal`` in ``trees`` (module
    name -> parsed source) outside ``calculus.py``, the Jet arithmetic: in
    code, and in the text of a module-level template, whose generated
    code the AST does not show."""
    return {f"{module}:{scope}" for module, tree in trees.items()
            if module != "calculus.py"
            for scope in (_scopes_reading(tree, "primal")
                          | _template_reads(tree, "primal"))}


# Jets exist only inside a derivative pass, so ``primal`` is read only where
# one can arrive: pivoting in a matrix of Jets (the inverse templates that
# pick the pivot and skip a zero factor, the factory that hands them
# ``primal`` and the error of a vanishing pivot), the g00 test of the
# metric coefficients that run inside derivative passes, the float point
# that the metric coefficients name in an error, and the depth check of the
# per-point tables.
PRIMAL_ALLOWED = {
    "metric.py:_INVERSE_COLUMN",
    "metric.py:_INVERSE_PICK",
    "metric.py:_INVERSE_ELIMINATE",
    "metric.py:_inverse_kernel",
    "metric.py:_singular_pivot",
    "metric.py:metric_dconnection.hv_at",
    "metric.py:metric_dconnection.vv_at",
    "metric.py:_float_point",
    "curvature.py:PointTables.per_depth.at",
}


def test_primal_only_where_a_jet_can_arrive():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _primal_reads(trees) == PRIMAL_ALLOWED


def test_the_primal_guard_sees_an_unwrap_of_a_float():
    trees = {"calculus.py": ast.parse("def flog(u):\n"
                                      "    return primal(u)\n"),
             "metric.py": ast.parse("from .calculus import primal\n"
                                    "def _singular_pivot(m):\n"
                                    "    return primal(m)\n"
                                    "def inverse_h(g):\n"
                                    "    return [primal(v) for v in g]\n"),
             "lift.py": ast.parse("class BaseCurve:\n"
                                  "    def point_at(self, t):\n"
                                  "        return tuple(map(primal, t))\n"
                                  "g0 = primal(1.0)\n"
                                  "_RHS = '''def f(u):\n"
                                  "    return primal(u)\n'''\n"
                                  "_STEP = KernelTemplate('''def g(u):\n"
                                  "    return 2.0 * primal(u)\n''')\n"
                                  "_NOTE = 'unwraps nothing: primary'\n")}
    assert _primal_reads(trees) - PRIMAL_ALLOWED == {
        "metric.py:inverse_h", "lift.py:BaseCurve.point_at", "lift.py:",
        "lift.py:_RHS", "lift.py:_STEP"}


def _dynamic_code_sites(trees):
    """``module:scope`` for every read of ``eval``, ``exec`` or ``compile``
    in ``trees`` (module name -> parsed source)."""
    return {f"{module}:{scope}" for module, tree in trees.items()
            for name in ("eval", "exec", "compile")
            for scope in _scopes_reading(tree, name)}


# Source compiled at run time: a scenario's expressions, and the generated
# kernels (the Jet arithmetic of each dimension m, the adapted-derivative
# split, the Leibniz rule, the matrix inverse, the Koszul formula and the
# per-entry sums of the metric connection, the oracle, the curvature
# checks, the validators and the transformation suite), which all go
# through the one helper that compiles them under their own module's file.
DYNAMIC_CODE_ALLOWED = {"exprlang.py:compile_expr",
                        "calculus.py:compile_kernel"}


def test_code_is_compiled_only_at_the_two_compile_sites():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _dynamic_code_sites(trees) == DYNAMIC_CODE_ALLOWED


def test_the_compile_guard_sees_a_stray_eval():
    trees = {"exprlang.py": ast.parse("import re\n"
                                      "NUM = re.compile('[0-9]+')\n"
                                      "def compile_expr(node, params):\n"
                                      "    return eval(node)\n"
                                      "def parse(text):\n"
                                      "    return eval(text)\n"),
             "cli.py": ast.parse("run = exec\n")}
    assert _dynamic_code_sites(trees) - DYNAMIC_CODE_ALLOWED == {
        "exprlang.py:parse", "cli.py:"}


def _names_read(node, name, scope=()):
    """As :func:`_scopes_reading`, with a read of ``name`` as an attribute
    (``sys._getframe``, ``calculus.compile_kernel``) counted too."""
    if isinstance(node, ast.Name) and node.id == name \
            or isinstance(node, ast.Attribute) and node.attr == name:
        return {".".join(scope)}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope += (node.name,)
    return set().union(*(_names_read(child, name, scope)
                         for child in ast.iter_child_nodes(node)))


def _construction_sites(trees):
    """``module:scope:name`` for every read of ``_getframe`` or of
    ``compile_kernel`` in ``trees`` (module name -> parsed source)."""
    return {f"{module}:{scope}:{name}" for module, tree in trees.items()
            for name in ("_getframe", "compile_kernel")
            for scope in _names_read(tree, name)}


# The one construction path of the generated kernels: a template reads its
# module's file and its line from the frame that declares it, and the
# cached factory of ``calculus.kernel`` compiles every kernel through
# ``compile_kernel``.  No module finds a line or compiles a kernel itself.
CONSTRUCTION_ALLOWED = {
    "calculus.py:KernelTemplate.__init__:_getframe",
    "calculus.py:kernel.decorate.factory:compile_kernel",
}


def test_kernels_are_built_only_on_the_construction_path():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _construction_sites(trees) == CONSTRUCTION_ALLOWED


def test_the_construction_guard_sees_a_stray_line_and_compile():
    """A module that finds its own template line, or a factory that calls
    ``compile_kernel`` itself (by name or through its module), is
    reported; importing the name is not a read."""
    trees = {"algebroid.py": ast.parse(
                 "import sys\n"
                 "from . import calculus\n"
                 "from .calculus import compile_kernel\n"
                 "_ANCHOR_LINE = sys._getframe().f_lineno + 2\n"
                 "def _anchor_kernel(p, m):\n"
                 "    return compile_kernel(_ANCHOR, _ANCHOR_LINE)\n"
                 "def _jacobi_kernel(p, m):\n"
                 "    return calculus.compile_kernel(_JACOBI, 3)\n")}
    assert _construction_sites(trees) - CONSTRUCTION_ALLOWED == {
        "algebroid.py::_getframe",
        "algebroid.py:_anchor_kernel:compile_kernel",
        "algebroid.py:_jacobi_kernel:compile_kernel"}


# The constructors that take zero masks, with the number of arguments
# below which a call passes none.
MASK_CONSTRUCTORS = {"AlgebroidData": 5, "MetricStructure": 4,
                     "ConnectionZeros": 0}


def _mask_sites(trees):
    """``module:scope:name`` for every read of ``_zeros`` (the zero mask
    of a parsed table) and every call of a constructor with zero masks
    among its arguments."""
    found = {f"{module}:{scope}:_zeros" for module, tree in trees.items()
             for scope in _names_read(tree, "_zeros")}

    def walk(node, module, scope=()):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in MASK_CONSTRUCTORS \
                and len(node.args) + len(node.keywords) \
                >= MASK_CONSTRUCTORS[node.func.id]:
            found.add(f"{module}:{'.'.join(scope)}:{node.func.id}")
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope += (node.name,)
        for child in ast.iter_child_nodes(node):
            walk(child, module, scope)

    for module, tree in trees.items():
        walk(tree, module)
    return found


# Zero masks are computed once, at load, from the parsed tables
# (``scenario._zeros``), and handed to the algebroid, the metric and an
# explicit connection there; the metric connection derives its own from
# them when it is built, and the fiber rescale of the transformation
# suite, which substitutes into g, hands on g's.  No evaluator or kernel
# computes a mask.
MASK_ALLOWED = {
    "suites.py:_fiber_change_data:MetricStructure",
    "scenario.py:_zeros:_zeros",
    "scenario.py:_masked_table:_zeros",
    "scenario.py:scenario_from_dict:AlgebroidData",
    "scenario.py:scenario_from_dict:MetricStructure",
    "scenario.py:scenario_from_dict:ConnectionZeros",
    "metric.py:metric_dconnection:ConnectionZeros",
}


def test_zero_masks_are_computed_only_at_load():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _mask_sites(trees) == MASK_ALLOWED


def test_the_mask_guard_sees_a_stray_mask():
    """A mask computed from parsed nodes outside the load, or handed to a
    constructor elsewhere, is reported; a constructor called without
    masks is not."""
    trees = {"suites.py": ast.parse(
                 "from .scenario import _zeros\n"
                 "def primed(nodes, rho_at, L_at):\n"
                 "    A = AlgebroidData(2, 2, rho_at, L_at)\n"
                 "    return AlgebroidData(2, 2, rho_at, L_at, _zeros(nodes))\n"
                 "def metric(g_at, g00_at):\n"
                 "    return MetricStructure(2, g_at, g00_at, None)\n")}
    assert _mask_sites(trees) - MASK_ALLOWED == {
        "suites.py:primed:_zeros", "suites.py:primed:AlgebroidData",
        "suites.py:metric:MetricStructure"}


def _mask_factories(trees):
    """``module:name`` of every function named ``*_kernel`` with a zero
    mask (a ``*_zero`` parameter) in its key, and whether ``kernel(...)``
    decorates it."""
    return {f"{module}:{node.name}": any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                and d.func.id == "kernel" for d in node.decorator_list)
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name.endswith("_kernel")
            and any(a.arg.endswith("_zero")
                    for a in node.args.args + node.args.kwonlyargs)}


def test_masked_kernels_are_built_on_the_construction_path():
    """The kernels keyed by zero masks are ``calculus.kernel`` factories,
    so they compile only where :data:`CONSTRUCTION_ALLOWED` says."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _mask_factories(trees) == {
        "nlconnection.py:_split_kernel": True,
        "metric.py:_masked_koszul_kernel": True,
        "curvature.py:_rh_rv_kernel": True}


def test_the_mask_factory_guard_sees_an_undecorated_one():
    trees = {"metric.py": ast.parse(
        "@kernel(_KOSZUL)\n"
        "def _koszul_kernel(p, g_zero=None):\n"
        "    return {}\n"
        "def _sparse_kernel(p, L_zero):\n"
        "    return compile(text, 'metric.py', 'exec')\n")}
    assert _mask_factories(trees) == {"metric.py:_koszul_kernel": True,
                                      "metric.py:_sparse_kernel": False}


# The definition side of the oracle, the arbiter of the component formulas:
# it must compute torsion and curvature from the definitions alone, so
# neither its code nor the kernels it generates may name a formula it
# certifies (``components`` is the ``PointTables`` property that holds
# them).
ORACLE_SIDE = [("curvature.py", "frame_definitions"),
               ("dconnection.py", "bracket_pairs"),
               ("dconnection.py", "frame_derivatives"),
               ("dconnection.py", "frame_contract")]
COMPONENT_FORMULAS = {"_thh", "_torsion", "_rh_rv", "bracket_curvature",
                      "torsion_components_at", "curvature_components_at",
                      "PointTables", "components"}


def _texts(node):
    """The string constants under ``node``, its docstrings apart."""
    docs = {id(sub.body[0].value) for sub in ast.walk(node)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef, ast.Module))
            and sub.body and isinstance(sub.body[0], ast.Expr)}
    return [sub.value for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and id(sub) not in docs]


def _oracle_side_reads(trees):
    """``module:scope:name`` for every component formula that the oracle
    side names, in ``trees`` (module name -> parsed source).  The side is
    :data:`ORACLE_SIDE` and every package function that it reads, followed
    through the package's own imports; a name counts in code and in string
    text, the text of a module-level string (a kernel template) included
    where a function reads it."""
    defs, assigned, imports = {}, {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[module, node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned[module, target.id] = node.value
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (
                        f"{node.module}.py", alias.name)
    found, seen, stack = set(), set(), list(ORACLE_SIDE)
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        node = defs[key] if key in defs else assigned[key]
        names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                 for sub in ast.walk(node)
                 if isinstance(sub, (ast.Name, ast.Attribute))}
        names |= {word for text in _texts(node)
                  for word in re.findall(r"[A-Za-z_]\w*", text)}
        module, scope = key
        found |= {f"{module}:{scope}:{name}"
                  for name in names & COMPONENT_FORMULAS}
        for name in names:
            target = imports.get((module, name), (module, name))
            if target in defs or target in assigned:
                stack.append(target)
    return found


def test_the_oracle_side_names_no_component_formula():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _oracle_side_reads(trees) == set()


def test_the_oracle_guard_sees_a_planted_formula():
    """A formula read by an oracle function, by a helper it calls in
    another module, or named in the template of a kernel it generates (a
    string it reads, or the ``KernelTemplate`` of a factory it calls) is
    reported; one that only a docstring mentions is not."""
    trees = {"curvature.py": ast.parse(
                 "from .dconnection import bracket_pairs\n"
                 "_T = '''def k(H):\n    return _rh_rv(H)\n'''\n"
                 "def _kernel():\n"
                 "    return _T\n"
                 "def frame_definitions(D, tables):\n"
                 "    '''Never calls _thh.'''\n"
                 "    return (_kernel(), bracket_pairs(D),\n"
                 "            tables.components)\n"),
             "dconnection.py": ast.parse(
                 "from .nlconnection import helper\n"
                 "_B = KernelTemplate('''def b(X):\n"
                 "    return _torsion(X)\n''')\n"
                 "@kernel(_B)\n"
                 "def _bracket_kernel(p):\n"
                 "    return {}\n"
                 "def bracket_pairs(A):\n"
                 "    return helper(A), _bracket_kernel(2)\n"
                 "def frame_derivatives(A):\n"
                 "    return f\"{A}: _thh\"\n"
                 "def frame_contract(X):\n"
                 "    return X\n"),
             "nlconnection.py": ast.parse(
                 "def helper(A):\n"
                 "    return bracket_curvature(A)\n")}
    assert _oracle_side_reads(trees) == {
        "curvature.py:_T:_rh_rv", "curvature.py:frame_definitions:components",
        "dconnection.py:_B:_torsion", "dconnection.py:frame_derivatives:_thh",
        "nlconnection.py:helper:bracket_curvature"}


# Python 3.12's builtin ``sum`` compensates a sum of floats, so a sum in an
# output would change its bits with the interpreter; the package folds its
# sums from the integer 0 with ``functools.reduce(operator.add, ..., 0)``,
# which is what ``sum`` does up to 3.11.  The stderr timing total of
# ``check`` is the one ``sum`` left.
SUM_ALLOWED = {"cli.py:cmd_check"}


def _sum_reads(trees):
    """``module:scope`` for every read of ``sum`` in ``trees`` (module name
    -> parsed source)."""
    return {f"{module}:{scope}" for module, tree in trees.items()
            for scope in _scopes_reading(tree, "sum")}


def test_no_builtin_sum():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _sum_reads(trees) == SUM_ALLOWED


def test_the_sum_guard_sees_a_planted_sum():
    """A call of ``sum``, or ``sum`` handed to another function, is
    reported; a method or attribute named ``sum`` and a fold are not."""
    trees = {"cli.py": ast.parse("def cmd_check(t):\n"
                                 "    return sum(t)\n"),
             "curvature.py": ast.parse(
                 "import functools, operator\n"
                 "def ricci(R, p):\n"
                 "    return [sum(R[g][g] for g in range(p)),\n"
                 "            functools.reduce(operator.add, R[0], 0),\n"
                 "            R.sum(), R.sum]\n"
                 "class Check:\n"
                 "    def step(self, rows):\n"
                 "        return list(map(sum, rows))\n"
                 "total = sum([1.0, 2.0])\n")}
    assert _sum_reads(trees) - SUM_ALLOWED == {
        "curvature.py:ricci", "curvature.py:Check.step", "curvature.py:"}


# Every check and kernel returns its largest residual at a point; only
# ``suites.py`` builds the trackers of ``report.py``, feeds them and holds
# them to their tolerance, so no other module names the class.
TRACKER_MODULES = {"report.py", "suites.py"}


def _tracker_readers(trees):
    """The modules of ``trees`` (module name -> parsed source) that read
    or import ``ResidualTracker``."""
    return {module for module, tree in trees.items()
            if _names_read(tree, "ResidualTracker")
            or any(alias.name == "ResidualTracker" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names)}


def test_trackers_live_in_one_module():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _tracker_readers(trees) <= TRACKER_MODULES
    assert "suites.py" in _tracker_readers(trees)


def test_the_tracker_guard_sees_a_planted_tracker():
    """A check that imports the class, or builds one through its module,
    is reported; a docstring or a comment that names it is not."""
    trees = {"curvature.py": ast.parse(
                 "from .report import ResidualTracker, row_max\n"
                 "class OracleCheck:\n"
                 "    def __init__(self, tol):\n"
                 "        self.trackers = [ResidualTracker('t', tol)]\n"),
             "metric.py": ast.parse(
                 "from . import report\n"
                 "def check(tol):\n"
                 "    return report.ResidualTracker('compatibility', tol)\n"),
             "algebroid.py": ast.parse(
                 "def anchor_residual(A, pt):\n"
                 "    \"\"\"Fed to a ResidualTracker by the suites.\"\"\"\n"
                 "    return 0.0  # ResidualTracker\n")}
    assert _tracker_readers(trees) - TRACKER_MODULES == {"curvature.py",
                                                         "metric.py"}


def _imported_modules(tree):
    """Top-level names of the modules a module imports (absolute imports)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_dataclasses_import():
    """The records are plain classes: ``dataclasses`` (and the ``inspect``
    it imports) would cost every ``kkgeom`` process its import, and each
    decorated class its generated methods, at start-up."""
    found = {path.name for path in sorted(SRC.glob("*.py"))
             if "dataclasses" in _imported_modules(
                 ast.parse(path.read_text(), str(path)))}
    assert found == set()


def test_the_import_guard_sees_dataclasses():
    tree = ast.parse("from dataclasses import dataclass\nimport os.path\n"
                     "from .calculus import EPoint\n")
    assert _imported_modules(tree) == {"dataclasses", "os"}


def test_cli_import_leaves_dataclasses_unloaded():
    """No module that a fresh ``import kkgeom.cli`` loads imports
    ``dataclasses`` either."""
    code = "import sys, kkgeom.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "False\n"


def _function_local_imports(tree):
    """The line of every ``import`` inside a function body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.lineno
            for func in ast.walk(tree) if isinstance(func, functions)
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))}


def test_no_function_local_imports():
    """Every module states its imports at the top: an import inside a
    function hides a dependency (or an import cycle) from the reader."""
    found = {f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _function_local_imports(
                 ast.parse(path.read_text(), str(path)))}
    assert found == set()


def test_the_local_import_guard_sees_one():
    tree = ast.parse("import os\n"
                     "def outer():\n"
                     "    def inner():\n"
                     "        from .curvature import PointTables\n"
                     "    import sys\n"
                     "    return os.sep\n")
    assert _function_local_imports(tree) == {4, 5}


def _definitions(tree):
    """``(qualified name, node)`` for every module-level function and class
    of ``tree`` and every method (static methods and properties too) of a
    module-level class, dunders apart: Python calls those itself."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for top in tree.body:
        if isinstance(top, functions + (ast.ClassDef,)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, functions) and not (
                        node.name.startswith("__")
                        and node.name.endswith("__")):
                    yield f"{top.name}.{node.name}", node


def _reads(node, around=(), found=None):
    """Name -> the tuples of definitions around each read of it (as a
    ``Name`` or as an attribute) under ``node``."""
    found = {} if found is None else found
    if isinstance(node, ast.Name):
        found.setdefault(node.id, []).append(around)
    elif isinstance(node, ast.Attribute):
        found.setdefault(node.attr, []).append(around)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        around += (node,)
    for child in ast.iter_child_nodes(node):
        _reads(child, around, found)
    return found


def _uncalled_definitions(trees):
    """``module:name`` for every definition of ``trees`` (module name ->
    parsed source; see :func:`_definitions`) that no code of these modules
    reads outside the definition's own body.  ``__all__`` lists strings,
    and imports bind names without reading them, so neither counts."""
    reads = {}
    for tree in trees.values():
        for name, arounds in _reads(tree).items():
            reads.setdefault(name, []).extend(arounds)
    return {f"{module}:{qualified}"
            for module, tree in trees.items()
            for qualified, node in _definitions(tree)
            if all(node in around
                   for around in reads.get(node.name, ()))}


# Names the package keeps without a caller in it, each for a reason
# (``module:name``, or ``module:Class.method`` for a method):
UNCALLED_ALLOWED = {
    # perfbench/layers.py resolves these two by name to count oracle
    # builds; they leave once that count moves to bracket_pairs and
    # frame_derivatives (ROADMAP item 1b).
    "dconnection.py:cov_deriv_along",
    "dconnection.py:bracket_d_vectors",
    # the characterisation of the (g,h)-lift that a future lift suite
    # certifies (ROADMAP item 5); only tests call them today.
    "lift.py:acceleration_lift",
    "lift.py:lift_condition_residual",
    # argparse calls these overrides of ArgumentParser methods.
    "cli.py:_Parser.error",
    "cli.py:_Parser._parse_optional",
}


def test_every_function_has_a_caller_in_src():
    """Code the package itself never runs is a test reference and lives
    under ``tests/``; ``__init__.py`` only re-exports, so it calls nothing."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert _uncalled_definitions(trees) == UNCALLED_ALLOWED


def test_the_caller_guard_sees_an_unreferenced_def():
    """A def read only by itself, by ``__all__`` or by an import is
    reported; one read by another module's code is not."""
    trees = {"a.py": ast.parse("__all__ = ['unused']\n"
                               "def walk(n):\n"
                               "    return [walk(s) for s in n]\n"
                               "def unused():\n"
                               "    return 0\n"
                               "class Kept:\n"
                               "    pass\n"),
             "b.py": ast.parse("from .a import Kept, walk\n"
                               "def run():\n"
                               "    return Kept()\n")}
    assert _uncalled_definitions(trees) == {"a.py:walk", "a.py:unused",
                                            "b.py:run"}


def test_the_caller_guard_sees_an_unread_method():
    """A method or static method that only its own body reads is reported,
    one that another method reads is not, and a dunder never is."""
    trees = {"a.py": ast.parse("class Change:\n"
                               "    def __init__(self, m):\n"
                               "        self.m = m\n"
                               "    def push(self, pt):\n"
                               "        return self.phi_at(pt) * pt\n"
                               "    def phi_at(self, pt):\n"
                               "        return 1.0\n"
                               "    def self_check(self, pts):\n"
                               "        return [self.self_check(p)\n"
                               "                for p in pts]\n"
                               "    @staticmethod\n"
                               "    def identity(m):\n"
                               "        return Change(m)\n"),
             "b.py": ast.parse("from .a import Change\n"
                               "def run(pt):\n"
                               "    return Change(2).push(pt)\n")}
    assert _uncalled_definitions(trees) == {
        "a.py:Change.self_check", "a.py:Change.identity", "b.py:run"}
