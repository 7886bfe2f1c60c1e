"""Print the sha256 of every artifact the workloads and default pipelines write.

    python3 tools/artifact_digests.py WORK_DIR [--seed 42] > digests.json

Runs prepare (where present), setup, run and check of each workload in
perfbench/workloads.py under WORK_DIR/<workload> (WORK_DIR must not exist),
then every default model through ``run_pipeline`` at the same seed under
WORK_DIR/pipeline_<kind>, since the workloads alone never run
``stage_compare`` on a Cartesian model. Everything runs with one
BLAS/OpenMP thread and fails unless every report row passes. Prints JSON
mapping ``<name>/relpath`` to sha256 for each file in each output
directory, except ``config.json``, which records that directory, and the
sha256 of that output (what ``sha256sum digests.json`` gives) on stderr.
Run it in two checkouts and ``diff`` the outputs, or compare the one hash,
to check byte identity.
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

from pharec import pipeline  # noqa: E402
from pharec.errors import InvalidConfig  # noqa: E402


def _digest_dir(digests: dict, name: str, out_dir: str):
    for base, _, files in os.walk(out_dir):
        for path in (os.path.join(base, f) for f in files):
            rel = os.path.relpath(path, out_dir)
            if rel != "config.json":
                with open(path, "rb") as fh:
                    digests[f"{name}/{rel}"] = hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("work_dir")
    p.add_argument("--seed", type=int, default=42)
    args = p.parse_args(argv)
    try:        # the configs check the seed before anything is written
        configs = {f"pipeline_{kind}": pipeline.default_config(
            kind, os.path.join(args.work_dir, f"pipeline_{kind}"), seed=args.seed)
            for kind in pipeline.KIND_SETTINGS}
    except InvalidConfig as exc:
        p.error(str(exc))
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
        _digest_dir(digests, name, state.out_dir)
    for name, config in configs.items():
        report = pipeline.run_pipeline(config)
        failing = [r["name"] for r in report["rows"] if not r["pass"]]
        if failing:
            raise SystemExit(f"{name}: report rows fail: {failing}")
        _digest_dir(digests, name, config.out_dir)
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    sys.stdout.write(text)
    print(f"sha256 {hashlib.sha256(text.encode()).hexdigest()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
