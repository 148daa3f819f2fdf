"""Periodic points of a Blaschke product on the circle, by inverse branches.

The cycle expansion in `test_cycle_expansion.py` builds the leading
eigenvalue of the transfer operator from these points and their
multipliers alone, as an oracle for the collocation eigenvalue of
`innerdyn.transfer`; nothing here touches the collocation matrix. The
points are found through `innerdyn.blaschke.lift_inverse`.
"""

import numpy as np

from innerdyn.blaschke import BlaschkeMap, circle_abs_deriv, lift_inverse
from innerdyn.circle import TWO_PI, wrap_angle
from innerdyn.errors import BudgetExceeded, NoConvergence

SWEEPS = 60   # Newton sweeps before NoConvergence


def periodic_points(F: BlaschkeMap, n: int) -> list[tuple[float, float]]:
    """All fixed points of F^n on the circle with their multipliers |(F^n)'|.

    lift_n(t) - t gains 2*pi*(d^n - 1) per revolution, so the fixed points
    are the roots t_k of t = G_k(t) = L^{-n}(t + 2*pi*k), k = 0 .. d^n - 2,
    one point each. As L^{-1}(tau + 2*pi*d*q) = L^{-1}(tau) + 2*pi*q, the
    turns of k enter one base-d digit per inverse step, which keeps every
    link of the chain within a few turns and so at full precision. The
    chain gives the slope G_k' = 1/|(F^n)'(G_k(t))|, which is also the
    multiplier. All equations run as one vectorised Newton iteration on
    h = G_k(t) - t. G_k is a contraction with constant
    rho = (sum (1-|a|)/(1+|a|))^{-n}, so the root lies between G_k(t) and
    t + h/(1 - rho); these brackets are intersected over the sweeps, and a
    Newton step that leaves the bracket is replaced by its midpoint. Points
    come as angles in [0, 2*pi), sorted.
    """
    if not 1 <= n <= 12:
        raise ValueError("period must satisfy 1 <= n <= 12")
    d = F.degree
    count = d**n - 1
    if count > 10**7:
        raise BudgetExceeded(f"d^n - 1 = {count} exceeds the 1e7 budget")
    rho = F.min_boundary_deriv() ** (-n)
    k = np.arange(count)
    t = TWO_PI * k / count
    lo, hi = np.full(count, -np.inf), np.full(count, np.inf)
    points, mults = np.empty(count), np.empty(count)
    active = np.arange(count)
    for _ in range(SWEEPS):
        y, mult = t, np.ones_like(t)
        for j in range(n):
            y = lift_inverse(F, y + TWO_PI * (k // d**j % d))
            mult *= circle_abs_deriv(F, y)
        h = y - t
        nxt = t + h / (1.0 - 1.0 / mult)
        done = np.abs(h) <= 4e-15 * np.maximum(1.0, np.abs(t))
        points[active[done]], mults[active[done]] = nxt[done], mult[done]
        if done.all():
            return sorted(zip(wrap_angle(points).tolist(), mults.tolist()))
        keep = ~done
        active, k, t, h, y, nxt = active[keep], k[keep], t[keep], h[keep], y[keep], nxt[keep]
        far = t + h / (1.0 - rho)
        lo = np.maximum(lo[keep], np.minimum(y, far))
        hi = np.minimum(hi[keep], np.maximum(y, far))
        t = np.where((nxt < lo) | (nxt > hi), 0.5 * (lo + hi), nxt)
    raise NoConvergence(
        f"{len(active)} period-{n} points unconverged after {SWEEPS} sweeps")
