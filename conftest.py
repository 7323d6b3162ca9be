"""Pin BLAS/OpenMP to one thread per process before numpy is imported.

The tests' matrices are small, so extra BLAS threads only contend with each
other and with the process-pool workers that several tests start. A value
already set in the environment wins.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
