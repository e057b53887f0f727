import ast
from pathlib import Path

import motionprim

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "motionprim"


def test_every_exported_name_resolves():
    for name in motionprim.__all__:
        assert getattr(motionprim, name, None) is not None, name
    assert len(set(motionprim.__all__)) == len(motionprim.__all__)


def public_definitions(tree: ast.Module):
    """(qualified name, name) of every public top-level function or class
    and every public method of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def names_used(path: Path) -> set[str]:
    """Every bare name and attribute name that the code of a file reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_public_name_is_reached_only_from_tests():
    """Test-only helpers belong in tests/oracles.py; the package re-exports
    in __init__.py do not count as a use. Names are matched bare, so a dead
    member still passes while any other object's member of the same name is
    read (a property `num_channels` on one class is hidden by another's)."""
    users = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    users += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    used = set().union(*(names_used(p) for p in users))
    unused = [
        f"{path.stem}.{qualified}"
        for path in sorted(SRC.glob("*.py"))
        for qualified, name in public_definitions(ast.parse(path.read_text()))
        if name not in used
    ]
    assert unused == []
