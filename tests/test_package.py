"""Every function and method the package defines is used by the package.

A definition whose name never appears in the package's own code as a
name, an attribute or a keyword is called only from outside: by tests,
demos or the benchmark.  Reference implementations that only tests call
belong in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import sixdma_isac

PACKAGE = Path(sixdma_isac.__file__).parent

# definition -> why the package keeps it although its own code never uses it
USED_FROM_OUTSIDE = {
    "harness.py:load_run": "perfbench loads a whole trained run through it",
    "nn.py:Mlp.param_count": "perfbench's cost model reads each network's size through it",
    "harness.py:_Parser.error": "argparse calls it on a usage error",
}


def _sources():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _definitions(tree):
    """Top-level functions and classes, and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg


def test_every_definition_has_a_caller_in_the_package():
    sources = _sources()
    used = {name for tree in sources.values() for name in _used_names(tree)}
    definitions = {f"{module}:{qualified}": node for module, tree in sources.items()
                   for qualified, node in _definitions(tree)}
    unused = [
        key for key, node in definitions.items()
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
        and key not in USED_FROM_OUTSIDE
    ]
    assert unused == [], f"defined in src/ but used only outside it: {unused}"
    assert set(USED_FROM_OUTSIDE) <= set(definitions), "an allowlisted definition is gone"
