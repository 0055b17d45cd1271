"""Package metadata agrees with the build configuration, every module uses
what it imports, every top-level function and class and every method,
property and record field has a reader (in the package or the benchmark,
save top-level names of the public API, which tests may read alone),
exact-to-real conversion has one home, no module works at mpmath's word
level and every power of e is mp.exp, the CLI turns
a ValueError into exit 2 in one place, the package's names load on first
read, mpmath only where a real is computed, numpy (and inspect with it)
only with the sampler's random streams and dataclasses never, and the
benchmark's tracer still finds the names it reads."""

import ast
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import orbitstat

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    pyproject = ROOT / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        meta = tomllib.load(handle)
    assert orbitstat.__version__ == meta["project"]["version"]


def unused_imports(path):
    """Names a module imports but never references, as 'file:line: name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports are the package's re-exports
    modules = [
        path
        for directory in (ROOT / "src" / "orbitstat", ROOT / "tests")
        for path in sorted(directory.glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(modules) > 20
    assert [entry for path in modules for entry in unused_imports(path)] == []


def scan(path):
    """One pass over a module: its definitions and its reads.

    The definitions map 'name' to 'top' for each top-level function and
    class, and 'Class.name' to 'member' for each method and property and to
    'field' for each name in the __slots__ of a top-level class, dunders
    aside.
    The reads are (kind, name, owner) triples: kind 'name' for every name
    and attribute, which reaches a top-level definition; 'attribute' for
    every attribute that is not assigned to, which reaches a member, save
    'self' for such an attribute of self, which reaches only a member of
    the enclosing class; and 'fields' for the class C of each C.__slots__,
    which reads every field of C. owner is the key of the innermost
    enclosing definition, or None at module level. Imports are not reads.
    Dunders, module-level ones (such as a package's __getattr__) as well as
    those of a class, are read by the interpreter and are not definitions.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    definitions = {}
    reads = set()

    def visit(node, owner):
        if isinstance(node, ast.Name):
            reads.add(("name", node.id, owner))
        elif isinstance(node, ast.Attribute):
            reads.add(("name", node.attr, owner))
            if node.attr == "__slots__":
                reads.add(("fields", ast.unparse(node.value).rpartition(".")[2], owner))
            elif not isinstance(node.ctx, ast.Store):
                on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                reads.add(("self" if on_self else "attribute", node.attr, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    def dunder(name):
        return name.startswith("__") and name.endswith("__")

    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or dunder(top.name):
            visit(top, None)
            continue
        definitions[top.name] = "top"
        if not isinstance(top, ast.ClassDef):
            visit(top, top.name)
            continue
        for node in top.decorator_list + top.bases + top.keywords:
            visit(node, top.name)
        for node in top.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, kind = node.name, "member"
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__slots__"]:
                for name in ast.literal_eval(node.value):
                    if not dunder(name):
                        definitions[f"{top.name}.{name}"] = "field"
                continue
            else:
                name = kind = None
            if name is None or dunder(name):
                visit(node, top.name)
            else:
                definitions[f"{top.name}.{name}"] = kind
                visit(node, f"{top.name}.{name}")
    return definitions, reads


def unread_definitions(directories, exempt=()):
    """The definitions of the package, as 'module: key' (see scan), that no
    module under the given directories reads, top-level names in exempt
    aside."""
    files = [path for directory in directories for path in sorted((ROOT / directory).rglob("*.py"))]
    assert {path.relative_to(ROOT).parts[0] for path in files} == set(directories)
    scans = {path: scan(path) for path in files}
    return unread_in(scans, sorted((ROOT / "src" / "orbitstat").glob("*.py")), exempt)


def unread_in(scans, modules, exempt=()):
    """The definitions of the given modules, as 'module: key', that no
    scanned file reads. A definition that only its own body reads is a
    pass-through nothing reaches; a re-export in __init__.py is not a
    reader; self.name reads a member name only inside its own class."""
    readers = {}
    for path, (_, reads) in scans.items():
        for kind, name, owner in reads:
            readers.setdefault((kind, name), set()).add((path, owner))
    unread = []
    for module in modules:
        for key, kind in scans[module][0].items():
            cls, _, name = key.rpartition(".")
            if kind == "top":
                if key in exempt:
                    continue
                found = {(path, owner) for path, owner in readers.get(("name", key), ())
                         if path != module or (owner or "").partition(".")[0] != key}
            else:
                found = readers.get(("attribute", name), set()) | {
                    (path, owner) for path, owner in readers.get(("self", name), ())
                    if path == module and (owner or "").partition(".")[0] == cls
                }
                found -= {(module, key)}
                if kind == "field":
                    found |= readers.get(("fields", cls), set())
            if not found:
                unread.append(f"{module.name}: {key}")
    return unread


def test_every_definition_has_a_reader():
    assert unread_definitions(("src", "tests", "perfbench")) == []


def test_package_code_is_reached_by_more_than_tests():
    # a definition that only tests read is code no caller of the package
    # runs: tests check what the package does, so the package itself or the
    # benchmark must reach it. Top-level names in the public API are exempt;
    # their methods, properties and fields are not.
    assert unread_definitions(("src", "perfbench"), exempt=orbitstat.__all__) == []


TWO_CLASSES = textwrap.dedent(
    """
    class Census:
        def __init__(self, counts):
            self.counts = counts

        @property
        def cumulative(self):
            return sum(self.counts)

        def total(self):
            return len(self.counts)


    class Sampler:
        def __init__(self, census):
            self.cumulative = census.total()

        def sample(self):
            return self.cumulative


    Sampler(Census([1, 2])).sample()
    """
)


def test_self_attribute_reads_only_its_own_class(tmp_path):
    # Sampler.sample loads its own self.cumulative; that must not count as a
    # read of Census.cumulative, which nothing else reads
    module = tmp_path / "two_classes.py"
    module.write_text(TWO_CLASSES, encoding="utf-8")
    assert unread_in({module: scan(module)}, [module]) == [
        "two_classes.py: Census.cumulative"
    ]


RECORDS = textwrap.dedent(
    """
    class Row:
        __slots__ = ("x", "y", "__dict__")

        def __init__(self, x, y):
            self.x, self.y = x, y


    class Pair:
        __slots__ = ("left", "right")

        def __init__(self, left, right):
            self.left, self.right = left, right


    print(Row(1, 2).x, Row.__slots__, Pair(1, 2).left)
    """
)


def test_an_unread_slot_field_is_reported(tmp_path):
    # Row.y is read only through Row.__slots__, which reads every field of
    # Row; nothing reads Pair.right, and __dict__ is no field
    module = tmp_path / "records.py"
    module.write_text(RECORDS, encoding="utf-8")
    definitions, _ = scan(module)
    assert [key for key, kind in definitions.items() if kind == "field"] == ["Row.x", "Row.y", "Pair.left", "Pair.right"]
    assert unread_in({module: scan(module)}, [module]) == ["records.py: Pair.right"]


def spellings(path, matches):
    """The nodes of a module that matches accepts, as (enclosing function,
    line) pairs."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def is_fraction_conversion(node):
    """mp.mpf(<x>.numerator)"""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) == "mp.mpf"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "numerator"
    )


def is_e_power(node):
    """mp.e ** <x> or mp.power(mp.e, <x>)"""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return ast.unparse(node.left) == "mp.e"
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) == "mp.power"
        and bool(node.args)
        and ast.unparse(node.args[0]) == "mp.e"
    )


def is_mp_exp(node):
    """mp.exp(<x>)"""
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "mp.exp"


def is_word_level(node):
    """An import from mpmath.libmp, a read of an mpf's _mpf_ tuple or a
    call of make_mpf."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("mpmath.libmp")
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("mpmath.libmp") for alias in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr in ("_mpf_", "make_mpf")
    return isinstance(node, ast.Name) and node.id == "make_mpf"


def test_fraction_to_mpf_has_one_home():
    # the two roundings of mp.mpf(x.numerator) / x.denominator fix every
    # real column's last digits, so only polyops.to_mpf may spell them out
    found = {
        path.name: spellings(path, is_fraction_conversion)
        for path in sorted((ROOT / "src" / "orbitstat").glob("*.py"))
    }
    assert [function for function, _ in found.pop("polyops.py")] == ["to_mpf"]
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_no_module_works_at_mpmath_word_level():
    # every real goes through mpmath's public mpf arithmetic, and every power
    # of e is mp.exp, which rounds once: mp.e ** t rounds e first and would
    # move the last bits of the transforms the tail report and the Legendre
    # solver share
    paths = sorted((ROOT / "src" / "orbitstat").glob("*.py"))
    assert {path.name: hits for path in paths if (hits := spellings(path, is_word_level))} == {}
    assert {path.name: hits for path in paths if (hits := spellings(path, is_e_power))} == {}
    ldp_path = ROOT / "src" / "orbitstat" / "ldp.py"
    assert sorted({function for function, _ in spellings(ldp_path, is_mp_exp)}) == ["_laplace", "powers"]


def value_error_handlers(path):
    """The enclosing function of each handler in a module that catches
    ValueError, alone or in a tuple."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(ast.unparse(name) == "ValueError" for name in caught):
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_cli_anchors_value_errors_in_main_only():
    # main is the one boundary that words a library ValueError as rejected
    # input (exit 2, "spec:1:"); a second handler would be a second policy
    assert value_error_handlers(ROOT / "src" / "orbitstat" / "cli.py") == ["main"]


IMPORT_BOUNDARY = textwrap.dedent(
    """
    import contextlib, io, sys


    def loaded():
        return [name for name in ("mpmath", "numpy", "dataclasses", "inspect") if name in sys.modules]


    import orbitstat

    assert loaded() == [], "import orbitstat"
    from orbitstat.cli import main

    assert loaded() == [], "import orbitstat.cli"
    step = sys.argv[1]
    if step == "RandomStream":
        orbitstat.RandomStream(1, 0)
    else:
        samples = ["--samples", "3"] if step == "sample" else []
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([step, "--system", "builtin:FF,q=2", "--X", "12", *samples])
        assert code == 0, step
    print(*loaded())
    """
)

# what each step loads after `import orbitstat` and `import orbitstat.cli`,
# which load none of them: mpmath only where a real is printed, numpy only
# where a random stream is built, inspect only with numpy, which imports
# it, and dataclasses never (the records are plain classes)
LOADS = {
    "validate": [],
    "wdist": [],
    "sample": ["numpy", "inspect"],
    "census": ["mpmath"],
    "constants": ["mpmath"],
    "ldp": ["mpmath"],
    "RandomStream": ["numpy", "inspect"],
}


def fresh_interpreter(script, *args):
    """stdout of a new interpreter running script with the checkout's src/
    first on its path; it must exit 0."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_numpy_loads_with_the_first_random_stream():
    # numpy serves only the Philox bytes of the sampler, and mpmath only the
    # reals; a fresh interpreter per step is the only place where
    # sys.modules shows what that step loads
    assert {step: fresh_interpreter(IMPORT_BOUNDARY, step).split() for step in LOADS} == LOADS


def test_no_module_imports_dataclasses():
    # a generated record class costs about 0.8 ms at import and the module
    # 7 ms more, on every CLI process; numtheory.Record replaces both
    imports = {}
    for path in sorted((ROOT / "src" / "orbitstat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                imports.setdefault(path.name, []).append(node.lineno)
    assert imports == {}


LAZY_EXPORTS = textwrap.dedent(
    """
    import importlib

    import orbitstat

    # a library submodule resolves on a bare import, as when __init__
    # imported every module
    assert orbitstat.kernels.BACKEND == "pure"
    assert len(orbitstat.__all__) == len(set(orbitstat.__all__)) == 48
    assert set(orbitstat.__all__) <= set(dir(orbitstat))
    names = {}
    exec("from orbitstat import *", names)
    assert sorted(names.keys() - {"__builtins__"}) == sorted(orbitstat.__all__)
    for name in orbitstat.__all__:
        home = importlib.import_module(f"orbitstat.{orbitstat._HOMES[name]}")
        assert names[name] is getattr(orbitstat, name) is getattr(home, name), name
    for name in ("no_such_name", "to_mpf"):
        try:
            getattr(orbitstat, name)
        except AttributeError as exc:
            assert str(exc) == f"module 'orbitstat' has no attribute {name!r}", exc
        else:
            raise AssertionError(name)
    """
)


def test_exports_load_on_first_read():
    # each public name is its home module's object, read once through the
    # package's __getattr__ and then bound in the package
    fresh_interpreter(LAZY_EXPORTS)


def test_benchmark_tracer_reads_what_the_library_keeps():
    # perfbench/tracing.py counts len(bc.cells) and len(bc.values) on every
    # joint census, and perfbench/worker.py records kernels.BACKEND; both
    # stay until the counters move into the library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    # the tracer patches every orbitstat namespace that binds a traced
    # function, the package's included: a name the package has already
    # bound is traced and restored like the home module's
    joint_census = orbitstat.joint_census
    tracer.install()
    try:
        cen = orbitstat.build_census(orbitstat.builtin_source("FF", q=2), 2)
        orbitstat.joint_census(orbitstat.unit_weights(cen), 2, census=cen)
    finally:
        tracer.uninstall()
    assert tracer.counts["distribution.cells"] == 4
    assert tracer.counts["distribution.values"] == 3
    assert orbitstat.joint_census is orbitstat.distribution.joint_census is joint_census
    assert hasattr(orbitstat.kernels, "BACKEND")
