"""Tests of the benchmark's own machinery.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rep  # noqa: E402
import tracer  # noqa: E402
from pharec import basis, coupling, limit_cycle, models, ode, pipeline  # noqa: E402
from pharec import ridge, transforms, vf_reconstruction  # noqa: E402


def _bindings():
    """Every pharec module attribute and the class method, by identity."""
    import importlib

    out = {}
    for m in tracer.PHAREC_MODULES:
        mod = importlib.import_module(f"pharec.{m}")
        for attr, value in vars(mod).items():
            if callable(value):
                out[(m, attr)] = value
    out[("LimitCycle", "gamma_at")] = limit_cycle.LimitCycle.__dict__["gamma_at"]
    return out


def installed_bindings() -> list[str]:
    """Names of the bindings that currently hold a tracer wrapper."""
    return sorted(f"{owner}.{attr}" for (owner, attr), value in _bindings().items()
                  if getattr(value, "__module__", "") == tracer.__name__)


@pytest.fixture
def installed():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_state_steps_count_steps_times_batch_width(installed):
    vf = models.uncoupled_vf(models.default_spec("radial_isochron_clock"), 0)
    batch = np.stack([np.linspace(0.0, 1.0, 7), np.full(7, 1.1)], axis=1)
    ode.integrate(vf, batch, 0.25, 0.01)
    ode.integrate(vf, batch[0], 0.1, 0.01)
    m = installed.metrics(1.0)
    assert m["ode.integrate_calls"] == 2
    assert m["ode.state_steps"] == 25 * 7 + 10 * 1
    assert m["ode.rk4_step_calls"] == 35
    assert m["models.vf_calls"] == 4 * 35
    assert m["models.vf_points"] == 4 * (25 * 7 + 10)
    assert m["ode.integrate_s"] >= m["ode.rk4_step_s"] >= m["models.vf_s"] > 0


def test_every_binding_is_patched_and_restored():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        # Functions imported by name are patched in every importing module.
        for mod in (basis, limit_cycle, transforms, vf_reconstruction):
            assert mod.single_row is not before[("basis", "single_row")]
        for mod in (ridge, transforms, coupling):
            assert mod.ridge_fit is not before[("ridge", "ridge_fit")]
        for mod in (ode, pipeline):
            assert mod.integrate is not before[("ode", "integrate")]
        assert limit_cycle.LimitCycle.gamma_at is not before[("LimitCycle", "gamma_at")]
        assert "LimitCycle.gamma_at" in installed_bindings()
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    assert installed_bindings() == []


def test_self_time_excludes_children(installed):
    cycle = limit_cycle.LimitCycle(
        period=2 * np.pi, omega=1.0,
        gamma=basis.FittedSeries(basis.SingleBasisSpec(0, 2), np.array([1.0, 0, 0, 0, 0])),
        anchor=(0.0, 1.0))
    cycle.gamma_at(np.linspace(0.0, 1.0, 11))
    m = installed.metrics(1.0)
    assert m["limit_cycle.gamma_at_points"] == 11
    assert m["basis.single_row_bytes"] == 8 * 11 * 5
    assert m["limit_cycle.gamma_at_self_s"] == pytest.approx(
        m["limit_cycle.gamma_at_s"] - m["basis.single_row_s"])
    assert m["trace.accounted_s"] == pytest.approx(m["limit_cycle.gamma_at_s"])


def _tiny_workload(seen):
    """A workload whose timed part integrates a small batch and records which
    tracer wrappers are installed while it runs."""
    spec = models.default_spec("radial_isochron_clock")

    def setup(work_dir, seed):
        out = os.path.join(work_dir, "out")
        os.makedirs(out, exist_ok=True)
        return pipeline.default_config("radial_isochron_clock", out, seed)

    def run(config):
        seen.append(installed_bindings())
        vf = models.uncoupled_vf(spec, 0)
        return ode.integrate(vf, np.array([[0.0, 1.2], [1.0, 0.9]]), 0.05, 0.01)

    def check(config, traj):
        with open(os.path.join(config.out_dir, "final.txt"), "w") as fh:
            fh.write(repr(traj.final_state.tolist()))
        row = {"name": "finite", "value": 0.0, "bound": 1.0,
               "pass": bool(np.isfinite(traj.states).all())}
        return [row], ["finite"]

    return {"setup": setup, "run": run, "check": check}


@pytest.mark.parametrize("mode", ["run", "traced"])
def test_only_traced_mode_installs_wrappers(tmp_path, monkeypatch, mode):
    import workloads

    seen = []
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny_workload(seen))
    result = rep.repetition("tiny", 0, str(tmp_path), mode, 0.0)
    assert result["ok"], result["failures"]
    assert list(result["digests"]) == ["final.txt"]
    if mode == "run":
        assert seen == [[]]
        assert "layers" not in result
    else:
        assert "pipeline.integrate" in seen[0] and "ode.integrate" in seen[0]
        assert result["layers"]["ode.state_steps"] == 5 * 2
    assert installed_bindings() == []
