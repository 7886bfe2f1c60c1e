"""Benchmark launcher for pharec.

Run from the repository root:

    python3 perfbench/run.py --workload ric_pipeline --seed 42 --seconds 20 --trace 0

Every repetition runs in a fresh process (perfbench/rep.py), one at a time.
With ``--trace 0`` it runs whole repetitions until the next one would end
after ``--seconds`` (always at least one) and reports the end-to-end metrics
of BENCHMARK.json as medians over the repetitions.  With ``--trace 1`` it
runs one untraced repetition, then traced ones under the same rule, and
reports the per-layer metrics and the tracing overhead.

Artifact digests and the exact counters of the first repetition at a seed
are kept in .perfbench_work; every later repetition at that seed, in this
run or a later one of the same code, must reproduce them exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed and 2 when the program or the
benchmark definition is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from sources import ROOT, SRC, HERE, code_digest

WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 2           # extra set-up-only processes per run
# BLAS/OpenMP threads per repetition (never above nproc).  With two threads
# on a shared 2-core box, canonical_csv_ingest used 13 s of CPU for 9 s of
# wall time and cpu_s spread twice as much across five seeds as with one.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170.0
PREPARE_TIMEOUT_S = 800.0  # the first run in a checkout also fills the cache


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    n = str(BLAS_THREADS)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[key] = n
    return env


class Launcher:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(WORK, workload)
        self.env = child_env()
        self.count = 0

    def spawn(self, mode: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
        """Run one rep.py process to completion and return its result."""
        shutil.rmtree(os.path.join(self.work, "out"), ignore_errors=True)
        self.count += 1
        result_path = os.path.join(self.work, f"result_{self.count}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rep.py"),
             "--workload", self.workload, "--seed", str(self.seed),
             "--work", self.work, "--result", result_path,
             "--spawned-at", repr(t0), "--mode", mode],
            env=self.env, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        elapsed = time.monotonic() - t0
        try:
            with open(result_path) as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError):
            why = (f"exceeded {timeout:.0f} s" if elapsed >= timeout
                   else f"exited {proc.returncode} without a result")
            result = {"ok": False, "failures": [f"{mode} process {why}"]}
        result["elapsed"] = elapsed
        print(f"perfbench: {mode} process {self.count} took {elapsed:.2f} s",
              file=sys.stderr)
        return result


class Reference:
    """The first value recorded at a seed, kept across runs of the same code
    in this checkout; every later value must equal it exactly."""

    def __init__(self, work: str, seed: int, kind: str):
        d = os.path.join(work, "reference")
        os.makedirs(d, exist_ok=True)
        self.path = os.path.join(d, f"{kind}_{code_digest()}_seed{seed}.json")
        self.ref = None
        if os.path.exists(self.path):
            with open(self.path) as fh:
                self.ref = json.load(fh)

    def differences(self, value: dict) -> list[str]:
        if self.ref is None:
            self.ref = value
            with open(self.path, "w") as fh:
                json.dump(value, fh, indent=1, sort_keys=True)
            return []
        return sorted(k for k in set(value) | set(self.ref)
                      if value.get(k) != self.ref.get(k))


def repeat(launcher: Launcher, mode: str, seconds: float, checks) -> list[dict]:
    """Whole repetitions until the next would end after ``seconds`` (at least
    one); stops at the first failure.  ``checks`` map a result to failures."""
    results = []
    t_start = time.monotonic()
    while True:
        r = launcher.spawn(mode)
        if r["ok"]:
            for check in checks:
                r["failures"] += check(r)
            r["ok"] = not r["failures"]
        results.append(r)
        if not r["ok"]:
            return results
        per_rep = statistics.median(x["elapsed"] for x in results)
        if time.monotonic() - t_start + per_rep > seconds:
            return results


def _median(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(results, setup_samples) -> dict[str, float]:
    return {
        "wall_s": _median(results, "wall_s"),
        "cpu_s": _median(results, "cpu_s"),
        "peak_rss_mb": _median(results, "peak_rss_mb"),
        "setup_s": statistics.median(setup_samples),
        "artifact_mb": _median(results, "artifact_bytes") / 1e6,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pharec benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "pipeline.py")) or not os.path.isfile(bench_path):
        print(f"perfbench: no pharec sources under {SRC} or no BENCHMARK.json; "
              "run from the repository root", file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    launcher = Launcher(args.workload, args.seed)
    os.makedirs(launcher.work, exist_ok=True)
    artifacts = Reference(launcher.work, args.seed, "digests")
    counts = Reference(launcher.work, args.seed, "counts")

    def same_artifacts(r):
        diff = artifacts.differences(r["digests"])
        return ["artifacts differ from the first repetition at this seed: "
                + ", ".join(diff[:10])] if diff else []

    def same_counts(r):
        diff = counts.differences({k: r["layers"][k] for k in r["exact_counts"]})
        return ["counters differ from the first traced repetition at this "
                "seed: " + ", ".join(diff)] if diff else []

    failures: list[str] = []
    results: list[dict] = []
    values: dict[str, float] = {}
    prepared = launcher.spawn("prepare", PREPARE_TIMEOUT_S)
    if not prepared["ok"]:
        failures += prepared["failures"]

    if not failures and not args.trace:
        setup_samples = []
        for _ in range(SETUP_PROBES):
            probe = launcher.spawn("setup")
            if not probe["ok"]:
                failures += probe["failures"]
                break
            setup_samples.append(probe["setup_s"])
        if not failures:
            results = repeat(launcher, "run", args.seconds, [same_artifacts])
        if results and all(r["ok"] for r in results):
            values = end_to_end(results, setup_samples + [r["setup_s"] for r in results])
    elif not failures:
        # One untraced repetition gives the overhead baseline; the traced
        # ones give the layers.
        results = repeat(launcher, "run", 0.0, [same_artifacts])
        if results[0]["ok"]:
            results += repeat(launcher, "traced", args.seconds,
                              [same_artifacts, same_counts])
        if all(r["ok"] for r in results):
            traced = results[1:]
            values = {k: statistics.median(r["layers"][k] for r in traced)
                      for k in traced[0]["layers"]}
            values["trace.wall_s"] = _median(traced, "wall_s")
            values["trace.untraced_wall_s"] = results[0]["wall_s"]
            values["trace.overhead_s"] = values["trace.wall_s"] - results[0]["wall_s"]
            values["report.worst_row_ratio"] = _median(traced, "worst_row_ratio")

    failed = sum(1 for r in results if not r["ok"])
    for r in results:
        failures += r.get("failures", [])
    attempted = max(len(results), 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    if values and len(metrics) != len(wanted):
        failures.append("metrics not measured: " + ", ".join(
            m["name"] for m in wanted if m["name"] not in metrics))
    correct = not failures and bool(metrics)
    if not correct and failed == 0:
        failed = attempted      # a run-level check failed

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(results)}  cores {usable_cores()}  "
          f"BLAS threads {BLAS_THREADS}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    if results and all(r["ok"] for r in results) and not args.trace:
        print(f"  {'worst_row_ratio':<40} {_median(results, 'worst_row_ratio'):>16.6g} ratio")
    print(f"  {'fail_frac':<40} {failed / attempted:>16.6g} ratio  "
          f"({failed} of {attempted} repetitions failed)")
    for f in failures:
        print(f"  FAILED: {f}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
