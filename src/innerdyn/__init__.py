"""Transfer-operator thermodynamics and orbit counting for expanding maps.

Subpackages by theme: blaschke (circle maps and measure primitives),
transfer (collocation operators and pressure),
coding (Markov partition of the circle), shift (symbolic thermodynamics),
counting (backward-orbit ledgers), stochastic (CLT diagnostics), parabolic
(first-return inducing on the real line), cli (experiment runner).
"""

from . import (blaschke, circle, coding, counting, errors, observables,
               parabolic, shift, spectral, stochastic, transfer)

__all__ = ["blaschke", "circle", "coding", "counting", "errors",
           "observables", "parabolic", "shift", "spectral", "stochastic",
           "transfer"]
__version__ = "0.1.0"
