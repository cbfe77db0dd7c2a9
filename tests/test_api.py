"""The package's exported names are the Python API the README lists, the
README's Python example runs, and the package ships no name only tests use."""

import ast
import re
from pathlib import Path

import paygsim
from paygsim import montecarlo

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_api_names() -> set[str]:
    """The backticked names of the README's "Python API" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `([A-Za-z_][A-Za-z0-9_]*)`", section, flags=re.M))


def test_every_export_resolves():
    for name in paygsim.__all__:
        assert getattr(paygsim, name) is not None, name


def test_readme_lists_exactly_the_exports():
    assert len(paygsim.__all__) == len(set(paygsim.__all__))
    assert readme_api_names() == set(paygsim.__all__)


def test_readme_states_the_chunk_size():
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"`DEFAULT_CHUNK` \((\d+)\)", text) == [str(montecarlo.DEFAULT_CHUNK)]


def test_readme_states_the_held_array_count():
    # the result holds the held ledger columns, the entrants of each of the
    # bundled scenario's two sexes, actives and retirees
    text = README.read_text(encoding="utf-8")
    held = len(montecarlo._HELD_COLUMNS) + 2 + 2
    assert re.findall(r"the result is (\d+) arrays", text) == [str(held)]
    assert re.findall(r"`n_reps × n_years × (\d+) × 8` bytes", text) == [str(held)]


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["fan"]["values"].shape == (3, len(scope["cfg"].years))
    assert capsys.readouterr().out.startswith("{'value_start': 206779398900,")


def _defined_names(tree) -> set[str]:
    """The public names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _referenced_names(tree) -> set[str]:
    """Names read, attributes, imported names and the strings of `__all__`."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            refs.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return refs


def test_every_public_name_has_a_user_outside_the_tests():
    # code only tests reach belongs in tests/; the package, the demos, the
    # scripts and the bench are its users
    package = sorted((ROOT / "src" / "paygsim").glob("*.py"))
    users = [p for d in ("src/paygsim", "demos", "scripts", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    defined = set().union(*(_defined_names(ast.parse(p.read_text(encoding="utf-8")))
                            for p in package))
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                               for p in users))
    assert sorted(defined - referenced) == []
