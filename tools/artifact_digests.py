"""Print the sha256 of every artifact the benchmark workloads write.

    python3 tools/artifact_digests.py WORK_DIR [--seed 42] > digests.json

Runs prepare (where present), setup, run and check of each workload in
perfbench/workloads.py under WORK_DIR/<workload> (WORK_DIR must not exist)
with one BLAS/OpenMP thread, fails unless every report row passes, and
prints JSON mapping ``workload/relpath`` to sha256 for each file in the
output directory, except ``config.json``, which records that directory.
Run it in two checkouts and ``diff`` the outputs to check byte identity.
"""

import argparse
import hashlib
import json
import os
import sys

for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_key] = "1"          # before numpy is imported
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("work_dir")
    p.add_argument("--seed", type=int, default=42)
    args = p.parse_args(argv)
    os.makedirs(args.work_dir)
    digests = {}
    for name, wl in WORKLOADS.items():
        work = os.path.join(args.work_dir, name)
        os.makedirs(work)
        if "prepare" in wl:
            wl["prepare"](work, args.seed)
        state = wl["setup"](work, args.seed)
        rows, expected = wl["check"](state, wl["run"](state))
        failing = [r["name"] for r in rows if not r["pass"]]
        if failing or sorted(r["name"] for r in rows) != sorted(expected):
            raise SystemExit(f"{name}: report rows differ or fail: {failing}")
        for base, _, files in os.walk(state.out_dir):
            for path in (os.path.join(base, f) for f in files):
                rel = os.path.relpath(path, state.out_dir)
                if rel != "config.json":
                    with open(path, "rb") as fh:
                        digests[f"{name}/{rel}"] = hashlib.sha256(fh.read()).hexdigest()
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
