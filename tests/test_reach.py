"""Every function defined in src/ramify/*.py is reached by a CLI run, or
is on ALLOWED with one reason.

The runs are the golden transcripts of test_cli plus three error paths
(a malformed --algebra file, an unknown subcommand, a precondition
failure), made in-process under sys.setprofile.  A function none of
them calls and ALLOWED does not explain is dead code.  An ALLOWED entry
that names no function, or one the runs now reach, is stale.
Dataclass-generated methods have no source lines and are not counted.
Last, no module imports or reads another module's private names.
"""

import ast
import contextlib
import glob
import importlib
import io
import os
import sys

import pytest

from ramify import cli
from test_cli import GOLDEN, HERE

SRC = os.path.dirname(os.path.abspath(cli.__file__))

REASONS = ("README API", "test oracle", "benchmark tracer name", "error message", "repr")

ALLOWED = {
    "artin.py": {
        "FinAlgebra.__repr__": "repr",
        "tensor_algebra": "README API",
    },
    "cli.py": {
        "main_entry": "README API",  # the `ramify` script
    },
    "cochain.py": {
        "CyclicCochainRing.__repr__": "repr",
        "RingElement.__repr__": "repr",
    },
    "coeff.py": {
        "Context.__repr__": "repr",
        "Context.describe": "error message",
    },
    "emss.py": {
        "BigradedPage.monomials": "error message",
        "_round_cycle": "test oracle",
        "dp_multiply": "benchmark tracer name",
        "round_differential": "benchmark tracer name",
    },
    "fgl.py": {
        "FormalGroupLaw.__repr__": "repr",
        "FormalGroupLaw.describe": "repr",
        "TruncatedSeries.__add__": "README API",  # the multiplicative formal sum
        "TruncatedSeries.__repr__": "repr",
        "TruncatedSeries._entry": "README API",  # used by __add__
        "TruncatedSeries.compose": "benchmark tracer name",
        "formal_sum": "README API",
    },
    "groups.py": {
        "ComplementReport.__str__": "repr",
        "ConjugationReport.__str__": "repr",
        "FiniteGroup.__repr__": "repr",
        "_qmul": "README API",  # the named groups of acceptance criterion 9
        "alternating_group": "README API",
        "cyclic_group": "README API",
        "dihedral_group": "README API",
        "quaternion_group": "README API",
        "quaternion_group.<locals>.left": "README API",
        "symmetric_group": "README API",
    },
}


def _defined():
    """{(file, first line, name): (file, qualname)} for every def in SRC.

    The first line is that of the first decorator, as in co_firstlineno."""
    out = {}

    def walk(node, fname, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(fname, first, child.name)] = (fname, qual)
                walk(child, fname, qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, fname, prefix + child.name + ".")
            else:
                walk(child, fname, prefix)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            walk(ast.parse(fh.read()), os.path.basename(path), "")
    return out


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    bad = tmp_path_factory.mktemp("reach") / "bad.alg"
    bad.write_text("labels: 1 y\nmul: 0 0\n", encoding="utf-8")
    runs = [(argv, 0) for argv in GOLDEN.values()]
    runs += [
        (["betti", "--algebra", str(bad)], 65),
        (["bogus"], 64),
        (["pseries", "--n", "2", "--N", "0"], 2),
    ]
    seen = set()
    in_src = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            fname = code.co_filename
            if fname not in in_src:
                in_src[fname] = os.path.dirname(os.path.abspath(fname)) == SRC
            if in_src[fname]:
                seen.add((os.path.basename(fname), code.co_firstlineno, code.co_name))

    cli._parser.cache_clear()  # the parser is built inside the runs
    cwd, old = os.getcwd(), sys.getprofile()
    os.chdir(HERE)  # --algebra paths in GOLDEN are tests-relative
    sys.setprofile(profile)
    try:
        codes = [(_run(argv), want) for argv, want in runs]
    finally:
        sys.setprofile(old)
        os.chdir(cwd)
    assert [got for got, _ in codes] == [want for _, want in codes]
    defined = _defined()
    reached = {defined[k] for k in seen if k in defined}
    return set(defined.values()), reached


def test_every_function_is_reached_or_allowed(reach):
    defined, reached = reach
    allowed = {(f, q) for f, names in ALLOWED.items() for q in names}
    assert sorted(defined - reached - allowed) == []


def test_allowlist_is_not_stale(reach):
    defined, reached = reach
    stale = []
    for fname, names in ALLOWED.items():
        for qual, why in names.items():
            assert why in REASONS, (fname, qual, why)
            if (fname, qual) not in defined:
                stale.append((fname, qual, "not defined"))
            elif (fname, qual) in reached:
                stale.append((fname, qual, "reached"))
    assert stale == []


def test_every_export_is_defined():
    # a stale __all__ entry makes `from ramify.<module> import *` raise
    stale = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        module = importlib.import_module("ramify" if name == "__init__" else "ramify." + name)
        stale += [(name, export) for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert stale == []


def test_no_module_reaches_a_private_name_of_another():
    # a name with one leading underscore belongs to its own module: no
    # module imports it from another ramify module or reads it off one
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules, here = set(), os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ramify")):
                names = [alias.asname or alias.name for alias in node.names]
                found += [(here, node.module, name) for name in names if _private(name)]
                modules.update(names if node.module is None else ())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    found.append((here, node.value.id, node.attr))
    assert found == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")
