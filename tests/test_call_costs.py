import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_table_has_one_row_of_positive_costs_per_default_kind():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "call_costs.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["kind", "field_1", "field_316", "jacobian", "rk4_1",
                                "rk4_316", "network_40"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["radial_isochron_clock", "canonical",
                                        "van_der_pol", "wilson_cowan"]
    for row in rows:
        assert len(row) == 7 and all(float(us) > 0 for us in row[1:])


def test_options_are_refused():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "call_costs.py"),
                           "--seed", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
