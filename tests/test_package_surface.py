"""The package exports nothing that only its tests use, and its public
functions take each model input from one source.

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


def _annotation_names(arg: ast.arg) -> set[str]:
    """The names in a parameter's annotation, such as ParameterSet in
    `ParameterSet | None`."""
    if arg.annotation is None:
        return set()
    return {n.id for n in ast.walk(arg.annotation) if isinstance(n, ast.Name)}


def test_no_public_function_takes_both_a_spec_and_parameters():
    """A ParameterSet carries its ModelSpec, so a function given both could
    be handed two architectures that disagree.  train is the one exception:
    its optional init meets the spec there, and train checks them once."""
    both = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            functions += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        for fn in functions:
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            names = set().union(*(_annotation_names(a) for a in args))
            if (not fn.name.startswith("_") and fn.name != "train"
                    and {"ModelSpec", "ParameterSet"} <= names):
                both.append(f"{path.stem}.{fn.name}")
    assert both == [], f"public functions taking both a ModelSpec and a ParameterSet: {both}"
