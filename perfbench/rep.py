"""One repetition of a workload in a fresh process.

Usage (normally started by run.py):

    python3 perfbench/rep.py --workload NAME --seed N --work DIR \
        --result FILE --spawned-at T [--mode run|traced|setup|prepare]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; setup_s runs from there to the first timed call.  The result
is written as JSON to ``--result``; a traced repetition also writes its span
records next to it, as ``<result>.spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _snapshot(root: str) -> dict[str, tuple[int, int]]:
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            st = os.stat(path)
            out[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return out


def _written(before: dict, after: dict) -> list[str]:
    """Files created or rewritten between two snapshots."""
    return sorted(p for p, v in after.items() if before.get(p) != v)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _worst_ratio(rows) -> float:
    """Largest share of its bound used by any row with an oracle; floor rows
    (``factorization_*``, passing when value >= bound) use bound/value."""
    worst = 0.0
    for r in rows:
        if r["value"] is None or r["bound"] is None:
            continue
        if r["name"].startswith("factorization_"):
            ratio = r["bound"] / r["value"] if r["value"] > 0 else float("inf")
        else:
            ratio = r["value"] / r["bound"]
        worst = max(worst, ratio)
    return worst


def repetition(workload: str, seed: int, work: str, mode: str,
               spawned_at: float, spans_path: str | None = None) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    if mode == "prepare":
        if "prepare" in wl:
            wl["prepare"](work, seed)
        return {"ok": True}
    state = wl["setup"](work, seed)
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"ok": False, "failures": []}
    t_first = time.monotonic()
    result["setup_s"] = t_first - spawned_at
    if mode == "setup":
        result["ok"] = True
        return result

    out_dir = state.out_dir
    before = _snapshot(out_dir)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        outcome = wl["run"](state)
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    after = _snapshot(out_dir)
    written = _written(before, after)
    result["wall_s"] = wall
    result["cpu_s"] = cpu
    result["artifact_bytes"] = sum(after[p][0] for p in written)

    rows, expected = wl["check"](state, outcome)
    failures = result["failures"]
    names = [r["name"] for r in rows]
    if sorted(names) != sorted(expected):
        failures.append("row names differ from the expected set: "
                        f"missing {sorted(set(expected) - set(names))}, "
                        f"extra {sorted(set(names) - set(expected))}")
    failures += [f"row {r['name']} fails: {r['value']} vs bound {r['bound']}"
                 for r in rows if not r["pass"]]
    result["worst_row_ratio"] = _worst_ratio(rows)
    result["rows"] = rows
    final = _snapshot(out_dir)
    result["digests"] = {p: _sha256(os.path.join(out_dir, p))
                         for p in _written(before, final)}
    if tracer is not None:
        from tracer import EXACT_COUNTS

        result["layers"] = tracer.metrics(wall)
        result["exact_counts"] = list(EXACT_COUNTS)
        if spans_path:
            tracer.write_spans(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ok"] = not failures
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--mode", default="run",
                   choices=("run", "traced", "setup", "prepare"))
    args = p.parse_args(argv)
    try:
        result = repetition(args.workload, args.seed, args.work, args.mode,
                            args.spawned_at,
                            os.path.splitext(args.result)[0] + ".spans.json")
    except Exception as exc:
        traceback.print_exc()
        result = {"ok": False, "failures": [f"{type(exc).__name__}: {exc}"]}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
