"""Record the expected DES figure series for every supported seed.

The DES workloads check each regenerated figure against these values,
so a change that alters what the simulator computes fails the
benchmark. Re-record only when a change to the simulated model is
intended, and say so in the change. Usage (from the repository root)::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DES_SEEDS, EXPECTED_PATH, WORKLOADS  # noqa: E402

FIGS = [fig for spec in WORKLOADS.values() for fig in spec.get("figs", [])]
#: figure processes run at once (one per core of a two-core host)
JOBS = 2


def record(seed_index: int, tmp: str) -> dict:
    out = os.path.join(tmp, f"seed-{seed_index}.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "des_child.py"),
         "--figs", ",".join(FIGS), "--seed-index", str(seed_index),
         "--out", out],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(out) as fp:
        return json.load(fp)["series"]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
        with ThreadPoolExecutor(JOBS) as pool:
            docs = list(pool.map(lambda i: record(i, tmp), range(DES_SEEDS)))
    expected = {str(i): doc for i, doc in enumerate(docs)}
    with open(EXPECTED_PATH, "w") as fp:
        json.dump(expected, fp, indent=1)
        fp.write("\n")
    print(f"wrote {EXPECTED_PATH} ({DES_SEEDS} seeds, figures {','.join(FIGS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
