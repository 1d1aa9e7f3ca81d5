"""The package exports nothing that only its tests use, its public
functions take each model input from one source, and no public parameter
has a default that only tests override.

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


# Defaulted parameters that no package call passes on purpose: train's init
# is the seam the fixed-start tests use, and main's argv is the entry point.
UNPASSED_DEFAULTS_ALLOWED = {"optimizers.train.init", "cli.main.argv"}


def _public_callables(tree: ast.Module):
    """(qualified name, call name, whether a call binds self, definition) for
    every public function and every public method or __init__ of a public
    class; a call of the class is a call of its __init__."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, False, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    yield f"{node.name}.__init__", node.name, True, fn
                elif isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{node.name}.{fn.name}", fn.name, True, fn


def _defaulted(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    params = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    return params + [(arg.arg, None) for arg, default in
                     zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]


def _passes(call: ast.Call, name: str, index: int | None, binds_self: bool) -> bool:
    """Whether `call` passes the parameter, by keyword or by position; a
    *args or **kwargs at the call may pass anything."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index - binds_self < len(call.args)


def test_every_default_is_passed_by_some_package_call():
    """A defaulted parameter that no package code passes is an option only
    tests set, or a second home for a default; calls are matched by the
    name called, whatever the module."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(callee, []).append(node)
    unpassed = {
        f"{module}.{qualified}.{name}"
        for module, tree in trees.items()
        for qualified, callee, binds_self, fn in _public_callables(tree)
        for name, index in _defaulted(fn)
        if not any(_passes(call, name, index, binds_self) for call in calls.get(callee, []))
    }
    assert unpassed == UNPASSED_DEFAULTS_ALLOWED, (
        f"defaulted parameters no package call passes: "
        f"{sorted(unpassed - UNPASSED_DEFAULTS_ALLOWED)}; "
        f"allowed but now passed or gone: {sorted(UNPASSED_DEFAULTS_ALLOWED - unpassed)}")
