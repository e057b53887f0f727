import ast
import dataclasses
import importlib.util
import re
from collections import Counter
from pathlib import Path

import motionprim
from motionprim.cli import ProviderConfig, RunConfig
from motionprim.model import LossWeights, ModelConfig
from motionprim.training import OptimizerConfig

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
    """Test-only helpers belong in tests/oracles.py. The callers counted are
    src and perfbench/: neither tests nor the demos, which are examples of
    the API, count as a use, and nor do the package re-exports in
    __init__.py. Names are matched bare, so a dead member still passes
    while any other object's member of the same name is read (a property
    `num_channels` on one class is hidden by another's)."""
    users = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    users += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(names_used(p) for p in users))
    unused = [
        f"{path.stem}.{qualified}"
        for path in sorted(SRC.glob("*.py"))
        for qualified, name in public_definitions(ast.parse(path.read_text()))
        if name not in used
    ]
    assert unused == []


def name_reads(node: ast.AST) -> Counter:
    """How often the code under `node` reads each name, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_no_private_helper_is_dead():
    """Every module-level `_name` function or class in src is read somewhere
    in src outside its own definition."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    reads = sum((name_reads(tree) for tree in trees.values()), Counter())
    dead = [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and reads[node.name] == name_reads(node)[node.name]
    ]
    assert dead == []


def test_readme_run_config_reference_names_every_field():
    """The jsonc block under "Run config reference" names each field of the
    run config and of its sections, and no other key."""
    section = (ROOT / "README.md").read_text().split("### Run config reference", 1)[1]
    block = section.split("```jsonc", 1)[1].split("```", 1)[0]
    named = re.findall(r'"(\w+)"\s*:', block)
    sections = (RunConfig, ModelConfig, OptimizerConfig, LossWeights, ProviderConfig)
    fields = [f.name for cls in sections for f in dataclasses.fields(cls) if f.init]
    assert sorted(named) == sorted(fields)


def ufunc_at_calls(path: Path) -> list[str]:
    """`module.name.at(...)` calls in a file, such as np.add.at: a ufunc's
    unbuffered scatter."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "at"
        and isinstance(node.func.value, ast.Attribute)
        and isinstance(node.func.value.value, ast.Name)
    ]


def test_no_src_module_scatters_with_a_ufunc_at():
    """Every sum into table rows goes through `encoder._scatter_add`, one
    np.bincount with np.add.at's bits, at a fraction of the time of a ufunc's
    `.at`, so no module of src calls one."""
    assert [call for path in sorted(SRC.glob("*.py")) for call in ufunc_at_calls(path)] == []


SIZED_MODULE = '''"""A module docstring
on two lines."""

import os

# a comment on its own line


def joined(name):
    """A function docstring."""
    return os.sep + name  # a trailing comment
'''


def test_src_size_counts_lines_and_code_lines(tmp_path, capsys):
    # 11 lines, of which the import, the def and the return are code
    spec = importlib.util.spec_from_file_location("src_size", ROOT / "tools" / "src_size.py")
    src_size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_size)
    (tmp_path / "sized.py").write_text(SIZED_MODULE)
    assert src_size.sizes(tmp_path / "sized.py") == (11, 3)
    assert src_size.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["module", "lines", "code", "sized.py", "11", "3", "total", "11", "3"]
