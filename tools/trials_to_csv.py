"""Export the trial set of a run as CSV text.

    python3 tools/trials_to_csv.py RUN_DIR OUT_DIR

Reads the trials manifest of RUN_DIR/trials and every trial file it lists,
then writes each trial to OUT_DIR as ``trial_NNNN.csv`` (columns
``t, theta_1, r_1, ...`` under a header line, each value as ``%.17g``, so
it reads back to the same bits) and a ``manifest.json`` with the same step
and metadata that lists those files. Copy OUT_DIR to a run's ``trials``
directory to feed ``pharec reconstruct-vf`` CSV trials. Exits 2 with one
stderr line when the trial set cannot be read or OUT_DIR already exists.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from pharec import serialize  # noqa: E402
from pharec.errors import IoError  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("run_dir")
    p.add_argument("out_dir")
    args = p.parse_args(argv)
    try:
        paths, step, metadata = serialize.read_trial_manifest(
            os.path.join(args.run_dir, "trials"))
        trials = [serialize.read_trial_csv(path) for path in paths]
        os.makedirs(args.out_dir)
        names = [f"trial_{k:04d}.csv" for k in range(len(trials))]
        for name, trial in zip(names, trials):
            serialize.write_trial_csv(os.path.join(args.out_dir, name), trial)
        serialize.write_json(os.path.join(args.out_dir, "manifest.json"),
                             {"files": names, "step": step, "metadata": metadata},
                             "trials")
    except (IoError, OSError) as exc:
        print(f"trials_to_csv: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
