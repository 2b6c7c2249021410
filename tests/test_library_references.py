"""Every module-level function and class of `revsym` is exported from the
package (named in `revsym.__all__`) or referenced by other library code.  Code that only tests call
belongs in the tests, where it serves as an oracle or a helper.

References are found by name with `ast`: a load of the name, or an attribute
of that name, in any top-level statement of `src/revsym/*.py` other than the
definition itself.  An import alone is not a reference, and neither is a
recursive call from the definition's own body.  The package's PEP 562
hooks `__getattr__` and `__dir__` are exempt: the interpreter calls them.
"""

import ast
from pathlib import Path

import revsym

SRC = Path(revsym.__file__).parent


def _loaded_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def test_every_definition_is_exported_or_used_by_the_library():
    exported = {*revsym.__all__, "__getattr__", "__dir__"}
    statements = []  # (module, definition name or None, names it loads)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = (node.name if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else None)
            statements.append((path.name, name, _loaded_names(node)))
    assert len([s for s in statements if s[1]]) > 100
    unused = []
    for i, (module, name, _) in enumerate(statements):
        if name is None or name in exported:
            continue
        if not any(name in loads for j, (_, _, loads) in enumerate(statements)
                   if j != i):
            unused.append(f"{module}:{name}")
    assert not unused, "not exported and unused by the library: " + \
        ", ".join(unused)
