"""rflab: a numerical laboratory for rectified flows.

Training of l1-constrained velocity networks on linear-interpolation couplings,
Euler-map sampling and reflow, closed-form velocity oracles, localized
generalization-bound evaluators, and two-sample transport metrics. Everything is
seed-addressed and reproducible; see the cli module for the command surface.

Single-threaded BLAS is pinned before numpy loads so that identical configs
produce byte-identical outputs regardless of host core count.
"""

import ctypes
import os

__version__ = "0.1.0"

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

# glibc's adaptive malloc thresholds made run time depend on the heap layout
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt(-3, 1 << 20)   # M_MMAP_THRESHOLD: 1 MiB
    _mallopt(-1, 2 << 20)   # M_TRIM_THRESHOLD: 2 MiB
except (AttributeError, OSError, TypeError):   # no mallopt in this libc
    pass
