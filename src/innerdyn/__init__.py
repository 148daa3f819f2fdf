"""Transfer-operator thermodynamics and orbit counting for expanding maps.

Subpackages by theme: blaschke (circle maps and measure primitives),
transfer (collocation operators and pressure),
coding (Markov partition of the circle), shift (symbolic thermodynamics),
counting (backward-orbit ledgers), stochastic (CLT diagnostics), parabolic
(first-return inducing on the real line), cli (experiment runner).
"""

import os

# BLAS runs on one thread. The benchmark's requests hand BLAS matrices of at
# most 512 rows, where a second OpenBLAS thread only adds the hand-off: a cold
# `spectrum --modes 2048` request took 0.32 s on two threads and 0.22 s on one.
# A dense LU of thousands of rows is slower on one (README, "Threads").
# OpenBLAS reads the count once, when numpy loads it, so this must run before
# the first submodule import; a process that imported numpy before innerdyn
# keeps its count, and a caller's own count is left alone.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import (blaschke, circle, coding, counting, errors, observables,
               parabolic, shift, spectral, stochastic, transfer)

__all__ = ["blaschke", "circle", "coding", "counting", "errors",
           "observables", "parabolic", "shift", "spectral", "stochastic",
           "transfer"]
__version__ = "0.1.0"
