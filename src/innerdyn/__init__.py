"""Transfer-operator thermodynamics and orbit counting for expanding maps.

Subpackages by theme: blaschke (circle maps and measure primitives),
transfer (collocation operators and pressure),
coding (Markov partition of the circle), shift (symbolic thermodynamics),
counting (backward-orbit ledgers), stochastic (CLT diagnostics), parabolic
(first-return inducing on the real line), cli (experiment runner).
"""

import os

# An idle OpenBLAS worker busy-waits for 2**_BLAS_THREAD_TIMEOUT cycles before
# it sleeps. The library default of 2**28 cycles (about 0.1 s), paid when numpy
# loads it and after every threaded call, made a cold `import numpy` spend
# 0.36 s of CPU in 0.23 s of wall on a 2-core box; at 2**18 cycles (about
# 0.1 ms) it spent 0.23 s, and the worker still stays warm between the
# back-to-back matvecs of one Arnoldi step. Both BLAS threads stay, so BLAS
# splits work as before and every result is unchanged. OpenBLAS reads the
# variable once, when numpy loads it, so this must run before the first
# submodule import; a process that imported numpy before innerdyn keeps the
# library default, and a caller's own OPENBLAS_THREAD_TIMEOUT or
# GOTO_THREAD_TIMEOUT is left alone.
_BLAS_THREAD_TIMEOUT = "18"
if "GOTO_THREAD_TIMEOUT" not in os.environ:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _BLAS_THREAD_TIMEOUT)

from . import (blaschke, circle, coding, counting, errors, observables,
               parabolic, shift, spectral, stochastic, transfer)

__all__ = ["blaschke", "circle", "coding", "counting", "errors",
           "observables", "parabolic", "shift", "spectral", "stochastic",
           "transfer"]
__version__ = "0.1.0"
