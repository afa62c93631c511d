"""The public surface is what the product uses, and the README tour runs.

The product is the package under src/spherig (the CLI among it) and the
acceptance gate, tests/test_acceptance.py.  A name the package exports, or
a public method or property of an exported class, that none of them uses
is surface kept alive by its own tests alone: move it into the tests or
delete it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spherig"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


MODULES = [parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
PRODUCT = [*MODULES, parse(ROOT / "tests" / "test_acceptance.py")]
EXPORTS = {
    alias.asname or alias.name
    for node in parse(PACKAGE / "__init__.py").body
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
}


def referenced(node_type: type, field: str) -> set[str]:
    return {
        getattr(node, field)
        for tree in PRODUCT
        for node in ast.walk(tree)
        if isinstance(node, node_type)
    }


def test_every_export_is_referenced_by_the_product():
    used = referenced(ast.Name, "id") | referenced(ast.Attribute, "attr")
    assert sorted(EXPORTS - used) == []


def test_every_public_method_of_an_exported_class_is_referenced_by_the_product():
    # attribute accesses only: a method name may also be some local variable's
    used = referenced(ast.Attribute, "attr")
    unused = [
        f"{cls.name}.{item.name}"
        for tree in MODULES
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in EXPORTS
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not item.name.startswith("_")
        and item.name not in used
    ]
    assert unused == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
