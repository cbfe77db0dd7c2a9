"""The package's exported names are the Python API the README lists, and
the README's Python example runs."""

import re
from pathlib import Path

import paygsim
from paygsim import montecarlo

README = Path(__file__).resolve().parent.parent / "README.md"


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
