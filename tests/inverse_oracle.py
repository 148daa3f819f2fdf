"""Reference branch inverse: `_inverse` as it was before the pole seed.

Every entry starts Newton at the bracket midpoint; the safeguard, the
closed-form ends of an infinite bracket and the stopping rule are those of
`innerdyn.parabolic._inverse`, which is checked against this copy.
"""

import numpy as np

from innerdyn.errors import BisectionFail

ROOT_TOL = 1e-14


def midpoint_inverse(P, lo, hi, y):
    """Solve F(x) = y on the branch (lo, hi) by safeguarded Newton from the midpoint."""
    lo, hi, y = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, y)))
    shape = y.shape
    a = P.mass
    bs = P.pole_locations
    xa = np.where(np.isfinite(lo), lo, np.minimum(y, bs[0]) - a - 1.0).ravel()
    xb = np.where(np.isfinite(hi), hi, np.maximum(y, bs[-1]) + a + 1.0).ravel()
    y = y.ravel()
    x = 0.5 * (xa + xb)
    out = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(200):
        r = P(x) - y
        step = r / P.deriv(x)
        done = np.abs(step) < np.minimum(ROOT_TOL * np.maximum(1.0, np.abs(x)),
                                         0.5 * np.minimum(x - xa, xb - x))
        xa = np.where(r < 0, x, xa)
        xb = np.where(r > 0, x, xb)
        xn = x - step
        xn = np.where(done | ((xa < xn) & (xn < xb)), xn, 0.5 * (xa + xb))
        out[todo[done]] = xn[done]
        left = ~done
        todo, x, xa, xb, y = todo[left], xn[left], xa[left], xb[left], y[left]
        if todo.size == 0:
            return out.reshape(shape)
    raise BisectionFail(f"branch inverse unconverged at {todo.size} targets")
