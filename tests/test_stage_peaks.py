import os
import subprocess
import sys

import pytest

from pharec import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_stage_peaks(tmp_path, *extra):
    """Run the tool on the 2-trial clock and check its seven stage lines and
    that it wrote only under WORK_DIR."""
    work = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "stage_peaks.py"),
         "radial_isochron_clock", str(work), "--trials", "2", *extra],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["stage", "peak_MB", "wall_s", "exit"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["(import)", *cli.STAGES]
    for name, peak, wall, code in rows:
        assert float(peak) > 0 and float(wall) > 0
        assert int(code) in ((0, 1) if name == "compare" else (0,))
    assert os.listdir(tmp_path) == ["run"]
    assert {"config.json", "network_vf.json", "report.json"} <= set(os.listdir(work))


def test_each_stage_runs_in_a_fresh_process_and_writes_only_under_work_dir(tmp_path):
    run_stage_peaks(tmp_path)


def test_repeat_prints_one_median_line_per_stage(tmp_path):
    """--repeat 2 runs every stage twice and prints one line each, in the
    format of a single run."""
    run_stage_peaks(tmp_path, "--repeat", "2")


@pytest.mark.parametrize("args", [
    ["stage_peaks.py", "canonical", "run", "--seed", "-1"],
    ["stage_peaks.py", "canonical", "run", "--trials", "0"],
    ["artifact_digests.py", "run", "--seed", "-1"],
    ["stage_peaks.py", "canonical", "run", "--repeat", "0"],
])
def test_invalid_config_is_a_usage_error_that_writes_nothing(tmp_path, args):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", args[0]), *args[1:]],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage:") and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == []
