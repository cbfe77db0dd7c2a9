"""The fixture script rebuilds the bundled scenario byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path("src", "paygsim", "data")


def test_build_fixtures_rewrites_the_bundled_data(tmp_path):
    # a copy of the scripts and the package without its data, so that every
    # data file is one the script wrote, and its own check() loads that copy
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("scripts", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.rmtree(tmp_path / DATA)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(tmp_path / "scripts" / "build_fixtures.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    committed = sorted(p.name for p in (ROOT / DATA).iterdir())
    assert sorted(p.name for p in (tmp_path / DATA).iterdir()) == committed
    for name in committed:
        assert (tmp_path / DATA / name).read_bytes() == (ROOT / DATA / name).read_bytes(), name
