"""Write golden.json: the sha256 of every file each workload writes at the
default seed.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are known to be right; a change that
alters model output on purpose re-records the digests and says why.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import digest_dir  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    digests = {}
    for wl in WORKLOADS.values():
        out = os.path.join(ROOT, ".perfbench", "golden", wl.name)
        shutil.rmtree(out, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        subprocess.run([sys.executable, "-m", "paygsim.cli", *wl.argv(DEFAULT_SEED, out)],
                       cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        digests[wl.name] = digest_dir(out)
        shutil.rmtree(out)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
