"""Print how every report row moved between two sets of pipeline runs.

    python3 tools/report_delta.py PARENT_ROOT CHANGE_ROOT

Finds each ``report.json`` under the two roots, pairs them by their path
relative to the root, labels each pair model/seed from the ``config.json``
beside it, and prints one Markdown table row per report row: parent value,
change value, |delta| and the change row's own ``headroom`` (value/bound,
or bound/value for a floor, so at most 1 while the row passes; ``n/a``
where the row records none).  Rows without an oracle are listed under the
table.

Exits 1 if the roots hold different reports or row names, or if any row
fails on either side; 0 otherwise.
"""

import argparse
import json
import os
import sys


def load_reports(root: str) -> dict:
    """Map the directory of each report.json (relative to root) to its
    (model/seed label, rows)."""
    out = {}
    for base, _, files in sorted(os.walk(root)):
        if "report.json" in files:
            with open(os.path.join(base, "report.json")) as fh:
                report = json.load(fh)
            with open(os.path.join(base, "config.json")) as fh:
                seed = json.load(fh)["seed"]
            out[os.path.relpath(base, root)] = (f"{report['model']}/{seed}",
                                                report["rows"])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_root")
    p.add_argument("change_root")
    args = p.parse_args(argv)
    parent, change = load_reports(args.parent_root), load_reports(args.change_root)
    problems = []
    if sorted(parent) != sorted(change):
        problems.append(f"reports differ: {sorted(set(parent) ^ set(change))}")
    print("| model/seed | row | parent | change | abs delta | headroom |")
    print("|---|---|---|---|---|---|")
    skipped = []
    for key in sorted(set(parent) & set(change)):
        label, old_rows = parent[key]
        _, new_rows = change[key]
        if [r["name"] for r in old_rows] != [r["name"] for r in new_rows]:
            problems.append(f"{label}: row names differ")
            continue
        for old, new in zip(old_rows, new_rows):
            problems += [f"{label}: {r['name']} fails ({side})"
                         for side, r in (("parent", old), ("change", new))
                         if not r["pass"]]
            if new["value"] is None or old["value"] is None:
                skipped.append(f"{label} `{new['name']}`")
                continue
            delta = abs(new["value"] - old["value"])
            room = "n/a" if new.get("headroom") is None else f"{new['headroom']:.3f}"
            print(f"| {label} | `{new['name']}` | {old['value']:.6g} | "
                  f"{new['value']:.6g} | {delta:.2g} | {room} |")
    if skipped:
        print(f"\nWithout an oracle ({len(skipped)}): {', '.join(skipped)}")
    for line in problems:
        print(f"report_delta: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
