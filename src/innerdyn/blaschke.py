"""Finite Blaschke products with an attracting fixed point at the origin.

A degree-d map is F(z) = e^{i*rot} * prod_i (z - a_i)/(1 - conj(a_i) z) with
all |a_i| < 1 and a_0 = 0, so F(0) = 0 and normalized Lebesgue measure on the
unit circle is F-invariant. On the circle the argument of F lifts to a
strictly increasing function L gaining 2*pi*d per revolution, sampled once
per map on a cached grid together with its slope |F'| at the nodes and a
table of uniform buckets in tau that finds the grid cell of any tau in O(1).
A boundary preimage is the root of g(t) = arg F(e^{it}) - tau inside one
cell of that lift. Newton starts from cubic Hermite interpolation of the
inverse lift in the cell (end slopes 1/|F'|), and a root is accepted after
one step when the Newton error bound M s^2 / (2m), with m <= |F'| and
M >= |d/dt |F'|| over the circle, is below rounding; the rest continue a
safeguarded Newton iteration with a bisection step whenever a step leaves
the cell's bracket. `lift_inverse` extends this inverse to every real tau
by whole turns; the batched boundary preimages and the coding layer's
partition cuts go through it.

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

from .circle import TWO_PI, as_angle, circle_grid, wrap_angle
from .errors import (
    BudgetExceeded,
    LiftNonMonotone,
    LogSingularity,
    NoConvergence,
    PoleProximity,
    RootEscape,
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

    def min_boundary_deriv(self) -> float:
        """Lower bound sum_i (1-|a_i|)/(1+|a_i|) for |F'| on the circle; at
        least 1, because a_0 = 0."""
        return float(sum((1 - abs(a)) / (1 + abs(a)) for a in self.zeros))


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
        # a zero at the origin contributes z / 1, which is z to the bit
        out *= (z - a) / (1.0 - np.conj(a) * z) if a else z
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
    unambiguous. A cell that falls, or rises by more than pi, fails the
    monotonicity or the total-gain check.
    """
    n = _grid_size(F)
    t = TWO_PI * np.arange(n + 1) / n
    ph = np.angle(circle_values(F, t))
    # the lift rises by less than pi/4 per cell, so each fall below -pi is
    # one turn of the principal argument
    ph += TWO_PI * np.concatenate(([0], np.cumsum(np.diff(ph) < -np.pi)))
    if np.any(np.diff(ph) < -1e-9):
        raise LiftNonMonotone("argument lift of the boundary map decreased")
    tot = ph[-1] - ph[0]
    if abs(tot - TWO_PI * F.degree) > 1e-6:
        raise LiftNonMonotone(
            f"lift gained {tot} over one revolution, expected {TWO_PI * F.degree}"
        )
    return t, ph


@functools.lru_cache(maxsize=64)
def _lift_cells(F: BlaschkeMap) -> tuple[np.ndarray, np.ndarray, float]:
    """|F'| at the `_lift_grid` nodes, and a bucket table for cell lookup.

    Bucket b covers tau in [ph[0] + b*width, ph[0] + (b+1)*width); width is
    the narrowest cell shrunk by 1e-6, so that rounding in the division
    cannot put two nodes in one bucket, and every bucket holds at most one
    node. tab[b] is the index of the first node in bucket b or later. Every
    cell spans at least 2*pi*m/n of lift, m = `min_boundary_deriv()` >= 1,
    so the lift's 2*pi*d needs about d*n/m buckets: at most 34 MB of int32
    on the largest grid. The table is a cumulative sum over one mark per
    node, so building it takes linear time.
    """
    t, ph = _lift_grid(F)
    # |F'| = sum (1 - r^2) / ((1 - r)^2 + 4r sin^2((t - arg a)/2)), r = |a|:
    # no cancellation next to a zero near the circle, and no complex exp
    slope = np.full(len(t), float(F.zeros.count(0j)))
    for a in F.zeros:
        if a:
            r, h = abs(a), np.sin(0.5 * (t - np.angle(a)))
            slope += (1.0 - r * r) / ((1.0 - r) ** 2 + 4.0 * r * h * h)
    width = float(np.min(np.diff(ph))) * (1.0 - 1e-6)
    node = ((ph - ph[0]) / width).astype(np.int64)
    tab = np.zeros(node[-1] + 1, dtype=np.int32)
    tab[node[:-1] + 1] = 1
    np.cumsum(tab, out=tab)
    return slope, tab, width


def _lift_cell(F: BlaschkeMap, tau: np.ndarray) -> np.ndarray:
    """Index i in [1, n] of the lift cell [ph[i-1], ph[i]] holding each tau;
    equal to clip(searchsorted(ph, tau), 1, n). The bucket of tau holds at
    most one node, ph[tab[b]] when there is one; every node of an earlier
    bucket is below tau and every node of a later bucket above it, because
    the bucket index is a monotone function of the value."""
    _, ph = _lift_grid(F)
    _, tab, width = _lift_cells(F)
    b = np.clip((tau - ph[0]) / width, 0, len(tab) - 1).astype(np.intp)
    first = tab[b]
    return np.clip(first + (tau > ph[first]), 1, len(ph) - 1)


def _newton_terms(F: BlaschkeMap, t: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = arg(F(e^{it}) * w) and |F'(e^{it})|, from one exponential per
    point; w = e^{-i*tau} for the Newton residual g = L(t) - tau."""
    z = np.exp(1j * t)
    val = w * np.exp(1j * F.rotation)
    slope = np.zeros(t.shape)
    for a in F.zeros:
        if a:
            q = z - a
            val *= q / (1.0 - np.conj(a) * z)
            slope += (1.0 - abs(a) ** 2) / (q.real * q.real + q.imag * q.imag)
        else:
            val *= z
            slope += 1.0
    return np.angle(val), slope


def _preimage_newton(F: BlaschkeMap, tau: np.ndarray) -> np.ndarray:
    """The angles t with lift(t) = tau, by safeguarded Newton in lift cells.

    Each tau is bracketed by the grid cell [t0, t1] of the cached lift that
    contains it, found in O(1) by `_lift_cell`. There the lift differs from
    tau by less than pi, so g(t) = arg(F(e^{it}) e^{-i*tau}) is the lift
    minus tau, increasing with g' = |F'(e^{it})|. Newton starts from the
    cubic Hermite interpolant of the inverse lift in the cell, whose end
    slopes are 1/|F'| at the nodes: on z(z - 0.5)/(1 - 0.5z) its error is at
    most 3e-14, against 2.5e-7 for linear interpolation.

    A Newton step s taken at t lands within M s^2 / (2m) of the root: by
    Taylor's theorem |g(t + s)| <= M s^2 / 2, where M = sum_i 2|a_i|(1+|a_i|)
    / (1-|a_i|)^3 bounds |d/dt |F'||, and g' >= m = `F.min_boundary_deriv()`.
    An entry is done once that bound is at most 2.2e-16 * max(1, |t|) with
    t + s inside its bracket, or once its step is below 4e-15 * max(1, |t|)
    wherever it lands: a root on a cell node collapses the bracket to one
    point, inside which no step can land. The others go on sweeping: every
    sweep moves the bracket end on the side given by the sign of g to the
    current point, and replaces a step that leaves the bracket by its
    midpoint.
    """
    grid, ph = _lift_grid(F)
    node_slope = _lift_cells(F)[0]
    idx = _lift_cell(F, tau)
    tlo, thi = grid[idx - 1], grid[idx]
    dp = ph[idx] - ph[idx - 1]
    u = np.clip((tau - ph[idx - 1]) / dp, 0.0, 1.0)
    # Hermite basis: t = t0 + h01 (t1 - t0) + dp (h10 / |F'(t0)| + h11 / |F'(t1)|)
    t = tlo + u * u * (3.0 - 2.0 * u) * (thi - tlo) + u * (1.0 - u) * dp * (
        (1.0 - u) / node_slope[idx - 1] - u / node_slope[idx])
    curv = sum(2 * abs(a) * (1 + abs(a)) / (1 - abs(a)) ** 3 for a in F.zeros) / (
        2 * F.min_boundary_deriv())
    w = np.exp(-1j * tau)
    root = np.empty_like(t)
    active = np.arange(len(t))
    for _ in range(_NEWTON_SWEEPS):
        g, slope = _newton_terms(F, t, w)
        step = -g / slope
        nxt = t + step
        scale = np.maximum(1.0, np.abs(t))
        done = (np.abs(step) <= 4e-15 * scale) | (
            (curv * step * step <= 2.2e-16 * scale) & (tlo <= nxt) & (nxt <= thi))
        root[active[done]] = nxt[done]
        if done.all():
            return root
        keep = ~done
        active, w, t, g, nxt = active[keep], w[keep], t[keep], g[keep], nxt[keep]
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
    The inverse is increasing with slope 1/|F'| at the root. A NaN or
    infinite tau is refused with ValueError.
    """
    _, ph = _lift_grid(F)
    tau = np.asarray(tau, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError("lift_inverse needs finite targets")
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
    locs = boundary_preimages(F, alpha)
    return ClarkMeasure(locs, 1.0 / circle_abs_deriv(F, locs))


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def lyapunov_exponent(F: BlaschkeMap) -> float:
    """Trapezoid rule for the entropy integral of log|F'| on the `_grid_size`
    nodes: log|F'| is analytic in a strip that narrows as zeros approach the
    circle, and the rule refines with it (4096 nodes while max|F'| <= 256).
    Cached per map, like the lift grid: the CLI and `counting` both ask."""
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
