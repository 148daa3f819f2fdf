"""Finite Blaschke products with an attracting fixed point at the origin.

A degree-d map is F(z) = e^{i*rot} * prod_i (z - a_i)/(1 - conj(a_i) z) with
all |a_i| < 1 and a_0 = 0, so F(0) = 0 and normalized Lebesgue measure on the
unit circle is F-invariant. On the circle the argument of F lifts to a
strictly increasing function L gaining 2*pi*d per revolution, sampled once
per map on a cached grid. A boundary preimage is the root of g(t) = arg
F(e^{it}) - tau inside one grid cell of that lift; it is found by a
vectorised Newton iteration (g' = |F'| in closed form) started from linear
interpolation of the lift, with a bisection step whenever a Newton step
leaves the cell's bracket. `lift_inverse` extends this inverse to every
real tau by whole turns, and every other circle equation goes through it:
the periodic points of F^n are the fixed points of n-fold compositions of
inverse branches, found by a safeguarded Newton iteration on those
compositions, and the coding layer pulls cylinders back with it.

The angular derivative |F'| is finite everywhere on the circle for these
maps (the infinite-derivative convention needed for maps with boundary
singularities never triggers here), and equals the Poisson-type sum
sum_i (1 - |a_i|^2)/|z - a_i|^2, which is the formula used throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from .circle import TWO_PI, CirclePoint, as_angle, circle_grid, wrap_angle
from .errors import (
    BudgetExceeded,
    LiftNonMonotone,
    LogSingularity,
    NoConvergence,
    PoleProximity,
    RootEscape,
    ZeroMultiplier,
)

_BOUNDARY_MARGIN = 1e-12
_POLE_TOL = 1e-12
_LIFT_MAX_POINTS = 1 << 22   # argument-lift grid cap (a few hundred MB of temporaries)
_NEWTON_SWEEPS = 60


@dataclass(frozen=True)
class BlaschkeMap:
    """Finite Blaschke product determined by its zeros and a rotation.

    zeros[0] must be 0. The map is hashable so per-map lookup tables
    (argument-lift grids) can be cached.
    """

    zeros: tuple
    rotation: float = 0.0

    def __post_init__(self):
        zeros = tuple(complex(a) for a in self.zeros)
        if len(zeros) < 1:
            raise ValueError("need at least one zero")
        if zeros[0] != 0:
            raise ValueError("zeros[0] must be 0 so that F(0) = 0")
        for a in zeros:
            if abs(a) >= 1.0 - _BOUNDARY_MARGIN:
                raise ValueError(f"zero {a} too close to the unit circle")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "rotation", float(wrap_angle(self.rotation)))

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @staticmethod
    def monomial(d: int, rotation: float = 0.0) -> "BlaschkeMap":
        """z -> e^{i*rotation} z^d."""
        if d < 1:
            raise ValueError("degree must be >= 1")
        return BlaschkeMap((0j,) * d, rotation)

    @property
    def is_monomial(self) -> bool:
        return all(a == 0 for a in self.zeros)

    @property
    def is_rotation(self) -> bool:
        return self.degree == 1 and self.zeros[0] == 0

    def max_boundary_deriv(self) -> float:
        """Upper bound sum_i (1+|a_i|)/(1-|a_i|) for |F'| on the circle."""
        return float(sum((1 + abs(a)) / (1 - abs(a)) for a in self.zeros))

    def label(self) -> str:
        if self.is_monomial and self.rotation == 0.0:
            return f"z^{self.degree}"
        zs = ",".join(f"{a.real:.6g}{a.imag:+.6g}i" for a in self.zeros)
        return f"blaschke[{zs};rot={self.rotation:.6g}]"


def eval_and_deriv(F: BlaschkeMap, z: complex) -> tuple[complex, complex]:
    """Evaluate F and F' at a point of the closed disk.

    F'/F = sum over factors is used when no factor vanishes; otherwise the
    product rule. On |z| = 1 the modulus of the returned derivative is the
    angular derivative.
    """
    z = complex(z)
    if abs(z) > 1.0 + 1e-9:
        raise ValueError("point outside the closed unit disk")
    for a in F.zeros:
        # a tiny zero puts its pole 1/conj(a) out of reach of the closed disk
        if abs(a) > 1e-300 and abs(z - 1.0 / np.conj(a)) < _POLE_TOL:
            raise PoleProximity(f"z = {z} is within 1e-12 of a pole")
    rot = np.exp(1j * F.rotation)
    num = np.array([z - a for a in F.zeros])
    den = np.array([1.0 - np.conj(a) * z for a in F.zeros])
    factors = num / den
    value = rot * np.prod(factors)
    dfact = np.array([(1.0 - abs(a) ** 2) for a in F.zeros]) / den**2
    if np.min(np.abs(factors)) > 1e-8:
        deriv = value * np.sum(dfact / factors)
    else:
        # some factor vanishes; product rule over factors
        deriv = 0j
        for j in range(F.degree):
            others = np.prod(np.delete(factors, j)) if F.degree > 1 else 1.0
            deriv += dfact[j] * others
        deriv *= rot
    return complex(value), complex(deriv)


# ---------------------------------------------------------------------------
# vectorized circle-only helpers
# ---------------------------------------------------------------------------

def circle_values(F: BlaschkeMap, theta) -> np.ndarray:
    """F(e^{i*theta}) for an array of angles."""
    z = np.exp(1j * np.asarray(theta, dtype=float))
    out = np.full(z.shape, np.exp(1j * F.rotation), dtype=complex)
    for a in F.zeros:
        out *= (z - a) / (1.0 - np.conj(a) * z)
    return out


def circle_abs_deriv(F: BlaschkeMap, theta) -> np.ndarray:
    """|F'(e^{i*theta})| as the sum of Poisson-type terms (exact on the circle)."""
    z = np.exp(1j * np.asarray(theta, dtype=float))
    out = np.zeros(z.shape, dtype=float)
    for a in F.zeros:
        out += (1.0 - abs(a) ** 2) / np.abs(z - a) ** 2
    return out


def angle_map(F: BlaschkeMap, theta):
    """The circle map in angle coordinates, theta -> arg F(e^{i*theta})."""
    return wrap_angle(np.angle(circle_values(F, theta)))


# ---------------------------------------------------------------------------
# argument lift and boundary preimages
# ---------------------------------------------------------------------------

def _grid_size(F: BlaschkeMap) -> int:
    """Nodes 2^max(12, ceil(log2(16 max|F'|))) of the lift grid and the Lyapunov
    rule; a map needing more than _LIFT_MAX_POINTS is refused at once."""
    n = 1 << max(12, int(np.ceil(np.log2(16 * F.max_boundary_deriv()))))
    if n > _LIFT_MAX_POINTS:
        raise BudgetExceeded(
            f"{n} circle nodes needed (max |F'| = {F.max_boundary_deriv():.3g}); "
            f"the limit is {_LIFT_MAX_POINTS}")
    return n


@functools.lru_cache(maxsize=64)
def _lift_grid(F: BlaschkeMap) -> tuple[np.ndarray, np.ndarray]:
    """Sampled continuous lift of theta -> arg F(e^{i*theta}) on [0, 2*pi].

    The `_grid_size` grid is fine enough that the lift increases by < pi/4
    per cell, which makes principal-argument comparisons inside a cell
    unambiguous.
    """
    n = _grid_size(F)
    t = TWO_PI * np.arange(n + 1) / n
    ph = np.unwrap(np.angle(circle_values(F, t)))
    if np.any(np.diff(ph) < -1e-9):
        raise LiftNonMonotone("argument lift of the boundary map decreased")
    tot = ph[-1] - ph[0]
    if abs(tot - TWO_PI * F.degree) > 1e-6:
        raise LiftNonMonotone(
            f"lift gained {tot} over one revolution, expected {TWO_PI * F.degree}"
        )
    return t, ph


def _preimage_newton(F: BlaschkeMap, tau: np.ndarray) -> np.ndarray:
    """The angles t with lift(t) = tau, by safeguarded Newton in lift cells.

    Each tau is bracketed by the grid cell of the cached lift that contains
    it. There the lift differs from tau by less than pi, so
    g(t) = arg(F(e^{it}) e^{-i*tau}) is the lift minus tau, increasing with
    g' = |F'(e^{it})|. Newton starts from linear interpolation of the lift in
    the cell; every sweep moves the bracket end on the side given by the
    sign of g to the current point, and replaces a step that leaves the
    bracket by its midpoint. An entry is done once its Newton step is below
    4e-15 * max(1, |t|); that test comes first, because a root on a cell
    node collapses the bracket to one point and no step can then land inside.
    """
    grid, ph = _lift_grid(F)
    idx = np.clip(np.searchsorted(ph, tau), 1, len(ph) - 1)
    tlo, thi = grid[idx - 1], grid[idx]
    t = tlo + np.clip((tau - ph[idx - 1]) / (ph[idx] - ph[idx - 1]), 0.0, 1.0) * (thi - tlo)
    root = np.empty_like(t)
    active = np.arange(len(t))
    for _ in range(_NEWTON_SWEEPS):
        g = np.angle(circle_values(F, t) * np.exp(-1j * tau))
        step = -g / circle_abs_deriv(F, t)
        nxt = t + step
        done = np.abs(step) <= 4e-15 * np.maximum(1.0, np.abs(t))
        root[active[done]] = nxt[done]
        if done.all():
            return root
        keep = ~done
        active, tau, t, g, nxt = active[keep], tau[keep], t[keep], g[keep], nxt[keep]
        below = g < 0
        tlo = np.where(below, t, tlo[keep])
        thi = np.where(below, thi[keep], t)
        t = np.where((nxt < tlo) | (nxt > thi), 0.5 * (tlo + thi), nxt)
    raise NoConvergence(
        f"{len(active)} boundary preimages unconverged after {_NEWTON_SWEEPS} sweeps")


def lift_inverse(F: BlaschkeMap, tau) -> np.ndarray:
    """The angles t with L(t) = tau, for any real tau.

    L is the continuous lift of arg F(e^{it}) fixed by the cached grid,
    L(0) = arg F(1) in (-pi, pi]. Since L(t + 2*pi) = L(t) + 2*pi*d, tau is
    reduced by whole turns into the grid's range [L(0), L(0) + 2*pi*d),
    solved by _preimage_newton, and the turns are added back to the root.
    The inverse is increasing with slope 1/|F'| at the root.
    """
    _, ph = _lift_grid(F)
    tau = np.asarray(tau, dtype=float)
    turns = np.floor((tau - ph[0]) / (TWO_PI * F.degree))
    base = _preimage_newton(F, np.ravel(tau - TWO_PI * F.degree * turns))
    return base.reshape(tau.shape) + TWO_PI * turns


def boundary_preimages_batch(F: BlaschkeMap, targets: np.ndarray) -> np.ndarray:
    """All d boundary preimage angles for each target angle.

    Returns an array of shape (len(targets), d) with angles in [0, 2*pi),
    sorted ascending along the second axis. The d lift representatives
    tau + 2*pi*j, j = 0..d-1, are solved by `lift_inverse`.
    """
    targets = np.asarray(targets, dtype=float)
    roots = wrap_angle(lift_inverse(F, targets[:, None] + TWO_PI * np.arange(F.degree)))
    roots.sort(axis=1)
    return roots


def boundary_preimages(F: BlaschkeMap, target) -> np.ndarray:
    """The d solutions y of F(e^{iy}) = e^{i*target}, sorted ascending."""
    tau = as_angle(target)
    return boundary_preimages_batch(F, np.array([tau]))[0]


# ---------------------------------------------------------------------------
# Clark measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClarkMeasure:
    """Atomic measure on the fiber F^{-1}(alpha), masses 1/|F'| at each atom."""

    alpha: float
    locations: np.ndarray
    masses: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def fourier(self, k: int) -> complex:
        """Integral of e^{i*k*theta} against the measure."""
        return complex(np.sum(self.masses * np.exp(1j * k * self.locations)))


def clark_measure(F: BlaschkeMap, alpha) -> ClarkMeasure:
    """Atoms at the boundary preimages of alpha with masses 1/|F'|."""
    a = as_angle(alpha)
    locs = boundary_preimages(F, a)
    masses = 1.0 / circle_abs_deriv(F, locs)
    return ClarkMeasure(a, locs, masses)


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------

def lyapunov_exponent(F: BlaschkeMap) -> float:
    """Trapezoid rule for the entropy integral of log|F'| on the `_grid_size`
    nodes: log|F'| is analytic in a strip that narrows as zeros approach the
    circle, and the rule refines with it (4096 nodes while max|F'| <= 256)."""
    theta = circle_grid(_grid_size(F))
    return float(np.mean(np.log(circle_abs_deriv(F, theta))))


# ---------------------------------------------------------------------------
# disk preimages
# ---------------------------------------------------------------------------

def disk_preimages(F: BlaschkeMap, w: complex) -> np.ndarray:
    """The d solutions of F(z) = w inside the unit disk.

    Solves P(z) - w*Q(z) = 0 where P/Q is the rational form of F; the
    numerator has exact degree d because Q has degree < d (a_0 = 0). Its
    roots must leave a residual below 1e-9 relative to the largest
    coefficient; one Newton step on F(z) = w in product form then removes
    the error of the polynomial form (up to 1e-7 for clustered zeros).
    """
    w = complex(w)
    if not 0.0 < abs(w) < 1.0:
        raise ValueError("w must satisfy 0 < |w| < 1")
    P = npp.polyfromroots(F.zeros) * np.exp(1j * F.rotation)
    Q = functools.reduce(npp.polymul, ([1.0, -np.conj(a)] for a in F.zeros[1:]), np.ones(1))
    num = P.copy()
    num[: len(Q)] -= w * Q
    roots = npp.polyroots(num)
    if np.max(np.abs(npp.polyval(roots, num))) > 1e-9 * np.max(np.abs(num)):
        raise NoConvergence(f"preimage roots of w = {w} leave a residual above 1e-9")
    if np.any(np.abs(roots) >= 1.0 + 1e-9):
        raise RootEscape(f"preimage root escaped the disk for w = {w}")
    vals = [eval_and_deriv(F, z) for z in roots]
    roots = roots - np.array([(v - w) / dv for v, dv in vals])
    return roots[np.argsort(roots.real + 1e-9 * roots.imag)]


def nevanlinna(F: BlaschkeMap, w: complex) -> float:
    """Sum of log(1/|z|) over the disk preimages of w.

    For an inner function this equals log(1/|w|) off an exceptional set of
    capacity zero, which is the identity the tests check.
    """
    roots = disk_preimages(F, w)
    mods = np.abs(roots)
    if np.any(mods < 1e-14):
        raise LogSingularity("a preimage sits at the origin")
    return float(np.sum(np.log(1.0 / mods)))


# ---------------------------------------------------------------------------
# Koenigs linearizer
# ---------------------------------------------------------------------------

def koenigs(F: BlaschkeMap, z: complex, depth: int) -> complex:
    """Finite-depth linearizing coordinate F'(0)^{-depth} F^{depth}(z).

    Successive depths converge geometrically at rate |F'(0)|; the limit fixes
    0 with unit derivative and conjugates F to multiplication by F'(0).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if abs(z) >= 1.0:
        raise ValueError("linearizing coordinate needs |z| < 1")
    _, m = eval_and_deriv(F, 0j)
    if abs(m) < 1e-12:
        raise ZeroMultiplier("F'(0) = 0; no linearizing coordinate")
    cur = complex(z)
    for _ in range(depth):
        cur, _ = eval_and_deriv(F, cur)
    return cur / m**depth


def multiplier_at_zero(F: BlaschkeMap) -> complex:
    return eval_and_deriv(F, 0j)[1]


# ---------------------------------------------------------------------------
# periodic points on the circle
# ---------------------------------------------------------------------------

def periodic_points(F: BlaschkeMap, n: int) -> list[tuple[CirclePoint, float]]:
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
    come sorted by angle.
    """
    if not 1 <= n <= 12:
        raise ValueError("period must satisfy 1 <= n <= 12")
    d = F.degree
    count = d**n - 1
    if count > 10**7:
        raise BudgetExceeded(f"d^n - 1 = {count} exceeds the 1e7 budget")
    rho = sum((1 - abs(a)) / (1 + abs(a)) for a in F.zeros) ** (-n)
    k = np.arange(count)
    t = TWO_PI * k / count
    lo, hi = np.full(count, -np.inf), np.full(count, np.inf)
    points, mults = np.empty(count), np.empty(count)
    active = np.arange(count)
    for _ in range(_NEWTON_SWEEPS):
        y, mult = t, np.ones_like(t)
        for j in range(n):
            y = lift_inverse(F, y + TWO_PI * (k // d**j % d))
            mult *= circle_abs_deriv(F, y)
        h = y - t
        nxt = t + h / (1.0 - 1.0 / mult)
        done = np.abs(h) <= 4e-15 * np.maximum(1.0, np.abs(t))
        points[active[done]], mults[active[done]] = nxt[done], mult[done]
        if done.all():
            order = np.argsort(wrap_angle(points))
            return [(CirclePoint(p), float(m)) for p, m in zip(points[order], mults[order])]
        keep = ~done
        active, k, t, h, y, nxt = active[keep], k[keep], t[keep], h[keep], y[keep], nxt[keep]
        far = t + h / (1.0 - rho)
        lo = np.maximum(lo[keep], np.minimum(y, far))
        hi = np.minimum(hi[keep], np.maximum(y, far))
        t = np.where((nxt < lo) | (nxt > hi), 0.5 * (lo + hi), nxt)
    raise NoConvergence(
        f"{len(active)} period-{n} points unconverged after {_NEWTON_SWEEPS} sweeps")
