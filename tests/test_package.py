"""The package's public surface, and which layers a process imports.

`revsym` resolves its names on first use, so an in-process test, which has
already imported every layer, cannot see a missing import.  The footprint
tests therefore run fresh interpreters.
"""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import revsym
from test_cli import cli_env

# every exported name, grouped by the layer that defines it
EXPORTS = {
    "exactmath": ["IntMatrix", "IntPoly", "NotUnimodular", "char_poly",
                  "cyclotomic", "finite_order_test", "mat_det",
                  "mat_inverse_unimodular", "mat_mul", "mat_pow",
                  "reciprocity_class"],
    "matgroup": ["GroupContext", "ReversibilityReport", "SymmetryDescriptor",
                 "analyze", "find_conjugator", "intertwiner_lattice",
                 "is_reversor", "is_symmetry", "search_reversors",
                 "symmetry_generator_2x2"],
    "absgroup": ["GroupModel", "MODEL_TAGS", "Word", "make_model",
                 "multiply", "verify_theorem_claims"],
    "polyauto": ["MultiPoly", "PolyMap", "build_example_family",
                 "check_reversor_identity", "check_symmetry_identity",
                 "compose", "trace_map_suite"],
    "elliptic": ["Curve", "CurveMap", "add", "compose_maps", "scalar_mul"],
    "numth": ["predicted_count", "square_roots_of_unity"],
}
NAMES = {n for layer, names in EXPORTS.items() for n in (layer, *names)}


def test_all_and_dir_list_the_exported_names():
    assert len(NAMES) == 47
    assert sorted(revsym.__all__) == sorted(NAMES)
    assert [n for n in dir(revsym) if not n.startswith("_")] == sorted(NAMES)
    assert "__version__" in dir(revsym)


@pytest.mark.parametrize("layer", EXPORTS)
def test_each_name_is_its_layers_object(layer):
    module = importlib.import_module(f"revsym.{layer}")
    assert getattr(revsym, layer) is module
    for name in EXPORTS[layer]:
        assert getattr(revsym, name) is getattr(module, name), name


def test_exception_classes():
    # the walk of CI's "Library size" step: each class a revsym module
    # defines that derives from BaseException
    modules = [importlib.import_module("revsym." + m.name)
               for m in pkgutil.iter_modules(revsym.__path__)]
    errors = [c.__name__ for m in modules
              for _, c in inspect.getmembers(m, inspect.isclass)
              if c.__module__ == m.__name__ and issubclass(c, BaseException)]
    assert sorted(errors) == ["CliError", "DegreeLimitExceeded",
                              "NotUnimodular", "OddnessViolated"]


def test_names_follow_their_layer(monkeypatch):
    # nothing is cached in the package, so a name rebound in its layer (as
    # span tracing does) shows through, and so does its restoration
    from revsym import matgroup

    original = matgroup.analyze
    monkeypatch.setattr(matgroup, "analyze", lambda *args: None)
    assert revsym.analyze is matgroup.analyze
    monkeypatch.undo()
    assert revsym.analyze is original


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        revsym.nosuch
    with pytest.raises(ImportError):
        exec("from revsym import nosuch", {})


def test_star_import():
    namespace = {}
    exec("from revsym import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == NAMES
    assert all(value is getattr(revsym, name)
               for name, value in namespace.items())


def _loaded_after(code):
    """The `revsym`, `fractions`, `dataclasses` and `inspect` modules a
    fresh interpreter holds after running `code`, which may print to
    stdout."""
    probe = (f"import sys\n{code}\n"
             "print(sorted(m for m in sys.modules if m.startswith('revsym')"
             " or m in ('fractions', 'dataclasses', 'inspect')),"
             " file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr.splitlines()[-1])


def test_bare_import_loads_no_layer():
    assert _loaded_after("import revsym") == ["revsym"]


def test_analyze_loads_only_its_layers():
    # the path of the installed `revsym` console script
    loaded = _loaded_after("from revsym.cli import main\n"
                           "assert main(['analyze', '0 1; 1 1']) == 0")
    assert loaded == ["revsym", "revsym.cli", "revsym.exactmath",
                      "revsym.matgroup"]


@pytest.mark.parametrize("argv", [
    ["analyze", "0 1; 1 1"],
    ["analyze", "--group", "pgl", "--format", "json", "--", "1 2; 1 3"],
    ["analyze", "--format", "json", "--", "1 1; 1 2"],
    ["modroots", "120"],
    ["absgroup", "dinf", "--window", "3"],
    ["polyauto", "1"],
    ["elliptic", "--curve", "0", "1", "--omega", "2", "3", "--s", "0", "1"],
    ["verify-paper"],
])
def test_cold_cli_loads_no_dataclasses(argv):
    # `dataclasses` imports `inspect` (with `ast`, `dis` and `tokenize`),
    # the largest cost of a cold process; `typing` is asserted in a
    # `python -S` interpreter below, as a site `.pth` file may load it
    # before revsym runs
    loaded = _loaded_after(f"from revsym.cli import main\n"
                           f"assert main({argv!r}) == 0")
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_no_layer_loads_typing():
    # `absgroup.Word` is a `collections.namedtuple`; -S skips the site
    # `.pth` files, which may import `typing` themselves
    probe = ("import sys\nimport revsym.verify\n"
             "from revsym.cli import main\n"
             "assert main(['absgroup', 'dinf', '--window', '3']) == 0\n"
             "assert 'typing' not in sys.modules")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("layer", ["exactmath", "matgroup", "absgroup",
                                   "polyauto", "elliptic", "numth", "verify",
                                   "cli"])
def test_layer_import_loads_no_dataclasses(layer):
    # the records are `exactmath._Record` classes, not dataclasses
    loaded = _loaded_after(f"import revsym.{layer}")
    assert f"revsym.{layer}" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_modroots_loads_only_its_layers():
    loaded = _loaded_after("from revsym.cli import main\n"
                           "assert main(['modroots', '120']) == 0")
    assert loaded == ["revsym", "revsym.cli", "revsym.exactmath",
                      "revsym.numth"]
