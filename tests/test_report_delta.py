import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "report_delta", os.path.join(ROOT, "tools", "report_delta.py"))
report_delta = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_delta)

ROWS = [
    {"name": "composition_osc0", "value": 0.002, "bound": 0.01, "pass": True,
     "headroom": 0.2},
    {"name": "factorization_1<-0", "value": 0.95, "bound": 0.8, "pass": True,
     "headroom": 0.8 / 0.95},
    {"name": "composition_osc1", "value": 0.0, "bound": 0.0, "pass": True,
     "headroom": None},
    {"name": "lambda_slope_osc0", "value": None, "bound": None, "pass": True,
     "headroom": None, "note": "oracle unavailable"},
]


def _write(root, rows, kind="canonical", seed=42):
    run = root / f"{kind}_s{seed}"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps({"model": kind, "rows": rows}))
    (run / "config.json").write_text(json.dumps({"seed": seed}))
    return str(root)


def test_table_lists_delta_and_headroom(tmp_path, capsys):
    parent = _write(tmp_path / "parent", ROWS)
    change = _write(tmp_path / "change", [dict(ROWS[0], value=0.003, headroom=0.3)] + ROWS[1:])
    assert report_delta.main([parent, change]) == 0
    out = capsys.readouterr().out
    assert "| canonical/42 | `composition_osc0` | 0.002 | 0.003 | 0.001 | 0.300 |" in out
    # The change row's stored headroom is printed: 0.8 / 0.95 for the floor,
    # and n/a for a row with a value but none (a zero bound).
    assert "| canonical/42 | `factorization_1<-0` | 0.95 | 0.95 | 0 | 0.842 |" in out
    assert "| canonical/42 | `composition_osc1` | 0 | 0 | 0 | n/a |" in out
    assert "Without an oracle (1): canonical/42 `lambda_slope_osc0`" in out


def test_failing_or_renamed_rows_exit_1(tmp_path, capsys):
    parent = _write(tmp_path / "parent", ROWS)
    failing = _write(tmp_path / "failing",
                     [dict(ROWS[0], value=0.02, **{"pass": False})] + ROWS[1:])
    renamed = _write(tmp_path / "renamed", [dict(ROWS[0], name="other")] + ROWS[1:])
    other_seed = _write(tmp_path / "seed", ROWS, seed=7)
    for change in (failing, renamed, other_seed):
        assert report_delta.main([parent, change]) == 1
    assert "composition_osc0 fails (change)" in capsys.readouterr().err

