"""Print the fixed cost of the vector-field calls and RK4 steps of each default model.

    python3 tools/call_costs.py

For each default model kind, times (best of 5 repeats, in µs per call):
oscillator 0's uncoupled field in observable polar coordinates at 1 point
and at 316 points, its complex-step Jacobian, one RK4 step of that field at
1 and at 316 points, and the coupled ``network_vf`` on a (40, 2, 2) state.
The points lie around the cycle (radius 0.8-1.25 on the polar kinds, a
band around the frame's center on the Cartesian ones) and are drawn at a
fixed seed. Runs with one BLAS/OpenMP thread. Takes no options.
"""

import os
import sys
import timeit

for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_key] = "1"          # before numpy is imported
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import numpy as np  # noqa: E402

from pharec import models, ode  # noqa: E402

COLUMNS = ("field_1", "field_316", "jacobian", "rk4_1", "rk4_316", "network_40")
REPEATS, CALLS = 5, 1000
# Observable radii around each default kind's cycle, in the order printed.
RADII = {"radial_isochron_clock": (0.8, 1.25), "canonical": (0.8, 1.25),
         "van_der_pol": (1.5, 2.5), "wilson_cowan": (0.1, 0.4)}


def best_us(fn) -> float:
    """Best of REPEATS timings of CALLS calls of ``fn``, in µs per call."""
    return min(timeit.repeat(fn, repeat=REPEATS, number=CALLS)) / CALLS * 1e6


def costs(kind: str, rng) -> list[float]:
    spec = models.default_spec(kind)
    frames = models.estimate_frame(spec)
    vf = models.polar_uncoupled_vf(spec, 0, frames[0])
    jac = models.polar_uncoupled_jacobian(spec, 0, frames[0])
    one, many = (np.stack([rng.uniform(0.0, 2.0 * np.pi, shape),
                           rng.uniform(*RADII[kind], shape)], axis=-1)
                 for shape in ((), (316,)))
    net = np.stack([rng.uniform(0.0, 2.0 * np.pi, (40, 2)),
                    rng.uniform(*RADII[kind], (40, 2))], axis=-1)
    if models.native_coords(kind) == "cartesian":
        net = models.polar_to_cart(net, frames[0])
    network = models.network_vf(spec)
    h = 2.0 * np.pi / 2000
    return [best_us(lambda: vf(one)), best_us(lambda: vf(many)), best_us(lambda: jac(one)),
            best_us(lambda: ode.rk4_step(vf, one, h)),
            best_us(lambda: ode.rk4_step(vf, many, h)), best_us(lambda: network(net))]


def main() -> int:
    if len(sys.argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rng = np.random.default_rng(0)
    print(" ".join(["kind", *COLUMNS]))
    for kind in RADII:
        print(" ".join([kind, *(f"{us:.2f}" for us in costs(kind, rng))]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
