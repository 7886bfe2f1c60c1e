"""Fixed-step RK4 integration for planar oscillators and variational systems.

Vector fields are callables ``vf(state) -> deriv`` where ``state`` has shape
``(..., d)``; batches of initial conditions integrate in lockstep, which keeps
the grid sweeps elsewhere in the toolkit vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStep, NonFiniteState

__all__ = [
    "Trajectory",
    "TangentTrajectory",
    "integrate",
    "integrate_with_tangent",
    "rk4_step",
]


@dataclass(frozen=True)
class Trajectory:
    """Densely sampled solution of an ODE.

    ``states`` has shape ``(n_times, ..., d)``, sampled at ``times``.
    """

    times: np.ndarray
    states: np.ndarray
    step_size: float

    def __post_init__(self):
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states length must equal times length")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class TangentTrajectory:
    """Flow plus the fundamental solution M(t) of the variational equation."""

    base: Trajectory
    tangent: np.ndarray  # (n_times, 2, 2)

    def __post_init__(self):
        if self.tangent.shape[0] != self.base.times.shape[0]:
            raise ValueError("tangent length must equal times length")


def rk4_step(vf, state: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of size h."""
    k1 = vf(state)
    k2 = vf(state + 0.5 * h * k1)
    k3 = vf(state + 0.5 * h * k2)
    k4 = vf(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _n_steps(duration: float, step: float) -> int:
    if step <= 0:
        raise InvalidStep(f"step must be positive, got {step}")
    if duration < step:
        raise InvalidStep(f"duration {duration} smaller than step {step}")
    # NaN passes both comparisons above, and an overflowing quotient is inf.
    n = duration / step
    if not np.isfinite(n):
        raise InvalidStep(f"duration {duration} over step {step} is not a finite step count")
    return int(round(n))


def integrate(vf, state0, duration: float, step: float) -> Trajectory:
    """Integrate ``vf`` from ``state0`` with fixed-step RK4.

    Samples at t = 0, step, ..., n*step with n = round(duration/step).
    ``state0`` may be a single state ``(d,)`` or a batch ``(..., d)``.
    """
    state0 = np.asarray(state0, dtype=float)
    n = _n_steps(duration, step)
    out = np.empty((n + 1,) + state0.shape)
    out[0] = state0
    state = state0
    for i in range(n):
        state = rk4_step(vf, state, step)
        out[i + 1] = state
        if np.count_nonzero(np.isfinite(state)) < state.size:
            raise NonFiniteState(f"non-finite state at t={(i + 1) * step}")
    times = np.arange(n + 1) * step
    return Trajectory(times=times, states=out, step_size=step)


def integrate_with_tangent(vf, jacobian, state0, duration: float,
                           step: float) -> TangentTrajectory:
    """Integrate the flow together with dM/dt = DF(x(t)) M, M(0) = I.

    The augmented state (x, M) runs through ``integrate``.
    """
    state0 = np.asarray(state0, dtype=float)
    if state0.shape != (2,):
        raise ValueError("tangent integration expects a single planar state")

    def aug_vf(aug):
        x = aug[:2]
        dm = jacobian(x) @ aug[2:].reshape(2, 2)
        return np.concatenate([vf(x), dm.ravel()])

    aug = integrate(aug_vf, np.concatenate([state0, np.eye(2).ravel()]),
                    duration, step)
    base = Trajectory(times=aug.times, states=aug.states[:, :2], step_size=step)
    return TangentTrajectory(base=base, tangent=aug.states[:, 2:].reshape(-1, 2, 2))
