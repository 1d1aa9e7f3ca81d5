"""The package exports nothing that only its tests use.

Every public top-level function and class of privreg must be named by
package code outside its own definition.  Re-exports in __init__ do not
count, so a helper that only tests call fails here.
"""

import ast
from collections import Counter
from pathlib import Path

import privreg

PACKAGE = Path(privreg.__file__).resolve().parent


def _name_counts(node: ast.AST) -> Counter:
    """How often each name is read, called or looked up as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_definition_is_used_by_the_package():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    total = sum((_name_counts(tree) for tree in modules.values()), Counter())
    unused = [f"{module}.{node.name}"
              for module, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and total[node.name] == _name_counts(node)[node.name]]
    assert unused == [], f"public definitions no package code uses: {unused}"
