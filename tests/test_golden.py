"""Golden output digests of the bundled scenario at seed 1.

A change that alters model output on purpose updates these digests, and
`perfbench/golden.json` with them, and says why in CHANGES.md. Any other
change must leave every byte of every output file as it is.
"""

import hashlib
import json
import os

import pytest

from paygsim.cli import main

GOLDEN = {
    "project": (["project"], {
        "entrants.csv": "d11df65d14f3729ddbd9e0672a3c43961f599b9a88bd9fda813a0d659c7ad7b0",
        "ledger.csv": "695760344ebb7e832e0de573b5381a7856e24a91aec41c293391437028d283fb",
        "ledger_raw.csv": "9bc5ca28284926f2a43ed2563e554b85fef8916a81d4e7d126ca4f9e812c59cb",
        "manifest.json": "e67655107f4d87dd4e171050afe64b2da9555e43e03a154a40d9e5760635982e",
        "summary.json": "941aadedf4c63cfe6f39129dbdb01a8600e6eedb7f47ae4ac43d15ce0f660320",
    }),
    "mc_serial": (["simulate", "--reps", "2000", "--seed", "1"], {
        "fanchart.csv": "ea1cafbf91d53ec9f97e63037b64b7ba3ebd9bed6217cc998c0e82cad331a9c6",
        "manifest.json": "0f495b4495440a5be49dbaa9acb2799df0992361604db24d874528397ffc8fae",
        "moments.csv": "b92bd2124da3c6f26b67ae8a2741fc43242dbb5307a6db0e2762161e6e77c2ea",
        "summary.json": "b4ed1c52652606856e3425dc85af53a0f701d1df5149017395327c143a9e6589",
    }),
    "entrants_mc": (["entrants", "--reps", "200", "--seed", "1"], {
        "entrants.csv": "d11df65d14f3729ddbd9e0672a3c43961f599b9a88bd9fda813a0d659c7ad7b0",
        "entrants_mc.csv": "ffdaa8512d8f3986f85cb3b0aad7350d5d23565bc848a172d212ae39ee05b875",
        "manifest.json": "47f680db2233279d177909e573c428f1c77529555d452d3a2a1d4e975729ee54",
    }),
}

BENCH_GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden.json")


def digests(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_output_bytes_are_golden(workload, tmp_path, capsys):
    argv, want = GOLDEN[workload]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == want


@pytest.mark.skipif(not os.path.exists(BENCH_GOLDEN), reason="no benchmark checkout")
def test_benchmark_holds_the_same_digests():
    with open(BENCH_GOLDEN, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["seed"] == 1
    for workload, (_, want) in GOLDEN.items():
        assert bench["digests"][workload] == want, workload
