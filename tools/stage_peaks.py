"""Print the peak RSS and wall time of each pipeline stage, each in a fresh process.

    python3 tools/stage_peaks.py KIND WORK_DIR [--seed 42] [--trials N] [--repeat R]

Writes the default config of model KIND (at the seed, with N trials when
given) to WORK_DIR/config.json, then runs ``python -m pharec.cli STAGE
--from WORK_DIR`` for each of the six stages in order, each with one
BLAS/OpenMP thread. Prints one line per stage with the process's peak
resident set (``ru_maxrss``, MB) and wall time, after one line for a process
that only imports the CLI. With ``--repeat R`` (default 1) each line runs R
times, each in a fresh process, and prints the median peak and wall time.
Artifacts, config and all, go to WORK_DIR and nowhere else (no bytecode is
cached). Exits 1 when a stage fails; the report rows of ``compare`` failing
their bounds (exit 1) only shows in its line.
"""

import argparse
import dataclasses
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from pharec import cli, pipeline  # noqa: E402
from pharec.errors import InvalidConfig  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[key] = "1"
    return env


def measure(args: list) -> tuple[int, float, float]:
    """Exit code, peak RSS in MB and wall seconds of ``python ARGS``."""
    t0 = time.monotonic()
    with subprocess.Popen([sys.executable, *args], env=child_env()) as proc:
        # wait4 gives this child's own rusage, not the maximum over all children.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, time.monotonic() - t0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("kind", choices=sorted(pipeline.KIND_SETTINGS))
    p.add_argument("work_dir")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, help="n_trials (default: the model's)")
    p.add_argument("--repeat", type=positive_int, default=1,
                   help="fresh processes per stage; prints the medians (default 1)")
    args = p.parse_args(argv)
    try:
        config = pipeline.default_config(args.kind, os.path.abspath(args.work_dir),
                                         seed=args.seed)
        if args.trials is not None:
            config = dataclasses.replace(config, n_trials=args.trials)
    except InvalidConfig as exc:
        p.error(str(exc))
    pipeline.write_config(config)
    print(f"{'stage':<16} {'peak_MB':>8} {'wall_s':>7}  exit")
    runs = [("(import)", ["-c", "import pharec.cli"])] + [
        (stage, ["-m", "pharec.cli", stage, "--from", config.out_dir])
        for stage in cli.STAGES]
    for name, cmd in runs:
        codes, peaks, walls = zip(*(measure(cmd) for _ in range(args.repeat)))
        failed = [code for code in codes if code != cli.EXIT_PASS and not (
            name == "compare" and code == cli.EXIT_TOLERANCE)]
        print(f"{name:<16} {statistics.median(peaks):8.1f} "
              f"{statistics.median(walls):7.2f}  {(failed or codes)[0]}", flush=True)
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
