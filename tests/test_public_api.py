"""Every public name is used by the package itself, or pinned by a caller
outside it.

A name in a module's ``__all__`` counts as used when some module of
``src/nessolve`` loads it (as a name or an attribute) outside its own
definition; the ``__all__`` entry and the package's re-export do not count.
A name used only from outside the package stays public only when it is on
``PINNED``, with the file that calls it.
"""

import ast
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "nessolve"
ROOT = PACKAGE.parents[1]

# public name -> the file outside the package that calls it
PINNED = {
    "evaluate": "tests/test_acceptance.py",
    "sample_wiener_increment": "tests/test_acceptance.py",
    "apply": "tests/test_acceptance.py",
    "build_path": "benchmarks/spans.py",
    "aggregate_increments": "benchmarks/spans.py",
}


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_names(trees):
    names = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                for entry in ast.literal_eval(node.value):
                    names[entry] = module
    return names


def _loads(node):
    """Names loaded under ``node``, and ``module.name`` for attributes
    loaded from a name (such as ``noise.increment_blocks``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and \
                isinstance(sub.ctx, ast.Load) and \
                isinstance(sub.value, ast.Name):
            yield f"{sub.value.id}.{sub.attr}"


def _used_in_package(trees):
    """Names loaded by the package's modules, a definition's own name
    not counted inside that definition."""
    used = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            loads = set(_loads(node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                loads.discard(node.name)
            used |= loads
    return used


def test_every_public_name_is_used_or_pinned():
    trees = _trees()
    names = _public_names(trees)
    used = _used_in_package(trees)
    unused = sorted(f"{m}.{n}" for n, m in names.items()
                    if not {n, f"{m}.{n}"} & used and n not in PINNED)
    assert not unused, f"public names nothing in the package uses: {unused}"


def test_pins_are_current():
    trees = _trees()
    names = _public_names(trees)
    used = _used_in_package(trees)
    for name, pin in PINNED.items():
        assert name in names, f"{name} is no longer public"
        assert not {name, f"{names[name]}.{name}"} & used, \
            f"{name} is used in the package; unpin it"
        text = (ROOT / pin).read_text()
        assert re.search(rf"\b{name}\b", text), f"{pin} does not call {name}"
