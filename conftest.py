"""Pin BLAS/OpenMP to one thread before any test module imports numpy.

Artifact bits depend on the BLAS thread count, so the suite runs under the
one thread that tools/artifact_digests.py and the benchmark use.  A value
already set in the environment still wins.
"""

import os

for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_key, "1")
