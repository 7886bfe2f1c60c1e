import numpy as np
import pytest

from pharec import signal_extract
from pharec.errors import NonUniformSampling, TooShort, ZeroVariance


def test_sinusoid_phase_and_amplitude():
    # 10 Hz tone sampled at 1 kHz for 2 s, with a DC offset the internal
    # demeaning must remove.
    t = np.arange(0, 2.0, 0.001)
    sig = signal_extract.RawSignal(times=t,
                                   values=2.5 * np.cos(2 * np.pi * 10 * t) + 0.7)
    theta, r, edge = signal_extract.extract_phase_amplitude(sig)
    good = ~edge
    np.testing.assert_allclose(r[good], 2.5, rtol=0.01)
    dth = np.diff(np.unwrap(theta))[good[:-1]]
    np.testing.assert_allclose(dth / 0.001, 2 * np.pi * 10, rtol=5e-3)


def test_amplitude_modulation_tracked():
    t = np.arange(0, 2.0, 0.001)
    envelope = 1.0 + 0.3 * np.sin(2 * np.pi * 1.0 * t)
    sig = signal_extract.RawSignal(times=t,
                                   values=envelope * np.cos(2 * np.pi * 10 * t))
    _, r, edge = signal_extract.extract_phase_amplitude(sig)
    good = ~edge
    assert np.abs(r[good] - envelope[good]).max() < 0.03


def test_edge_mask_fraction():
    t = np.arange(0, 50.0, 0.01)
    sig = signal_extract.RawSignal(times=t, values=np.sin(t))
    _, _, edge = signal_extract.extract_phase_amplitude(sig)
    frac = edge.mean()
    assert 0.09 < frac < 0.11  # 5% at each end


def test_constant_signal_rejected():
    t = np.arange(0, 10.0, 0.01)
    with pytest.raises(ZeroVariance):
        signal_extract.extract_phase_amplitude(
            signal_extract.RawSignal(times=t, values=np.full_like(t, 3.0)))


def test_short_signal_rejected():
    t = np.arange(0, 2.0, 0.01)
    with pytest.raises(TooShort):
        signal_extract.extract_phase_amplitude(
            signal_extract.RawSignal(times=t, values=np.sin(2 * np.pi * t / 4.0)))


def test_nonuniform_sampling_rejected():
    t = np.cumsum(np.linspace(0.01, 0.02, 100))
    with pytest.raises(NonUniformSampling):
        signal_extract.RawSignal(times=t, values=np.sin(t))


@pytest.mark.parametrize("times", [np.zeros(400), -np.arange(400) * 0.05,
                                   np.r_[0.0, 0.0, np.arange(1, 399) * 0.05]],
                         ids=["equal", "decreasing", "repeated"])
def test_times_that_do_not_increase_rejected(times):
    with pytest.raises(NonUniformSampling):
        signal_extract.RawSignal(times=times,
                                 values=np.sin(2 * np.pi * np.arange(400) / 20))
