"""Every module-level function and class of `revsym`, and every name the
package exports, is referenced by other library code.  Code that only tests
call belongs in the tests, where it serves as an oracle or a helper.

References are found per module with `ast`.  A definition in module L is
used when another top-level statement of L loads its name, or when another
module loads it after `from .L import name` (under its alias, if any) or
reads `L.name` after `from . import L`.  An import alone is not a reference,
and neither is a recursive call from the definition's own body.  Only the
package's PEP 562 hooks `__getattr__` and `__dir__` are exempt: the
interpreter calls them.  The six layer modules, which the package also
exports, are not definitions and are not checked.
"""

import ast
from pathlib import Path

import pytest

import revsym

SRC = Path(revsym.__file__).parent
HOOKS = {"__getattr__", "__dir__"}


def _loads(node):
    """The names `node` loads, and the (name, attribute) pairs it reads."""
    names, attributes = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
              and isinstance(n.value, ast.Name)):
            attributes.add((n.value.id, n.attr))
    return names, attributes


def _defined(node, exported):
    """The names a top-level statement defines that the scan checks: a
    function or class, or an exported name that it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets
                if isinstance(t, ast.Name)} & exported
    return set()


def _references_from(tree, names, attributes):
    """The (module, name) pairs a module uses from its sibling modules."""
    used = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is None:  # from . import L
                used |= {(alias.name, attr) for value, attr in attributes
                         if value == local}
            elif local in names:  # from .L import name
                used.add((node.module, alias.name))
    return used


def unreferenced(sources):
    """`module:name` for each checked definition of `sources`, a dict of
    module name to source text, that no other library code references."""
    exported = set(revsym.__all__) - set(revsym._EXPORTS)
    definitions, used = [], set()
    for module, text in sources.items():
        tree = ast.parse(text)
        statements = [(_defined(node, exported), _loads(node)[0])
                      for node in tree.body]
        for i, (defined, _) in enumerate(statements):
            for name in defined - HOOKS:
                definitions.append((module, name))
                if any(name in loads
                       for j, (_, loads) in enumerate(statements) if j != i):
                    used.add((module, name))
        used |= _references_from(tree, *_loads(tree))
    return [f"{m}:{n}" for m, n in definitions if (m, n) not in used]


def test_every_definition_and_export_is_used_by_the_library():
    sources = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert set(revsym._EXPORTS) < set(sources)
    unused = unreferenced(sources)
    assert not unused, "unused by the library: " + ", ".join(unused)


TWO_LAYERS = {
    "elliptic": "def neg(p):\n    return p\n",
    "polyauto": "def f(x):\n    neg = -x\n    return neg\n\n\nf(1)\n",
}


def test_a_same_named_local_or_an_unloaded_import_is_no_reference():
    # `neg` defined in one module is not used by a local `neg` in another,
    # nor by an import that nothing loads
    cli = "from .elliptic import neg\nfrom . import elliptic\n"
    assert unreferenced({**TWO_LAYERS, "cli": cli}) == ["elliptic:neg"]


@pytest.mark.parametrize("cli", [
    "from .elliptic import neg as n\n\nn(1)\n",
    "from . import elliptic as e\n\ne.neg(1)\n",
])
def test_a_load_after_an_import_is_a_reference(cli):
    assert unreferenced({**TWO_LAYERS, "cli": cli}) == []
