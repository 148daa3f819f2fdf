"""Finite Blaschke products with an attracting fixed point at the origin.

A degree-d map is F(z) = e^{i*rot} * prod_i (z - a_i)/(1 - conj(a_i) z) with
all |a_i| < 1 and a_0 = 0, so F(0) = 0 and normalized Lebesgue measure on the
unit circle is F-invariant. On the circle the argument of F lifts to a
strictly increasing function gaining 2*pi*d per revolution, sampled once per
map on a cached grid. A boundary preimage is the root of g(t) = arg F(e^{it})
- tau inside one grid cell of that lift; it is found by a vectorised Newton
iteration (g' = |F'| in closed form) started from linear interpolation of the
lift, with a bisection step whenever a Newton step leaves the cell's bracket.

The angular derivative |F'| is finite everywhere on the circle for these
maps (the infinite-derivative convention needed for maps with boundary
singularities never triggers here), and equals the Poisson-type sum
sum_i (1 - |a_i|^2)/|z - a_i|^2, which is the formula used throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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

@functools.lru_cache(maxsize=64)
def _lift_grid(F: BlaschkeMap) -> tuple[np.ndarray, np.ndarray]:
    """Sampled continuous lift of theta -> arg F(e^{i*theta}) on [0, 2*pi].

    The grid is fine enough that the lift increases by < pi/4 per cell, which
    makes principal-argument comparisons inside a cell unambiguous. Zeros
    very close to the circle would need more than _LIFT_MAX_POINTS cells;
    such maps are refused before anything is allocated.
    """
    n = 1 << max(12, int(np.ceil(np.log2(16 * F.max_boundary_deriv()))))
    if n > _LIFT_MAX_POINTS:
        raise BudgetExceeded(
            f"argument lift needs {n} grid points (max |F'| = "
            f"{F.max_boundary_deriv():.3g}); the limit is {_LIFT_MAX_POINTS}")
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


def boundary_preimages_batch(F: BlaschkeMap, targets: np.ndarray) -> np.ndarray:
    """All d boundary preimage angles for each target angle.

    Returns an array of shape (len(targets), d) with angles in [0, 2*pi),
    sorted ascending along the second axis.
    """
    _, ph = _lift_grid(F)
    d = F.degree
    targets = np.asarray(targets, dtype=float)
    k0 = np.ceil((ph[0] - targets) / TWO_PI - 1e-15)
    # lift representatives tau + 2*pi*(k0 + j), j = 0..d-1
    taus = targets[:, None] + TWO_PI * (k0[:, None] + np.arange(d)[None, :])
    roots = wrap_angle(_preimage_newton(F, taus.ravel())).reshape(len(targets), d)
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

def lyapunov_exponent(F: BlaschkeMap, quad_points: int = 4096) -> float:
    """Trapezoid rule for the entropy integral of log|F'| over the circle."""
    if quad_points < 64 or quad_points & (quad_points - 1):
        raise ValueError("quad_points must be a power of two >= 64")
    theta = circle_grid(quad_points)
    return float(np.mean(np.log(circle_abs_deriv(F, theta))))


# ---------------------------------------------------------------------------
# disk preimages via simultaneous (Aberth) root iteration
# ---------------------------------------------------------------------------

def _poly_from_roots(roots) -> np.ndarray:
    """Monic polynomial coefficients, ascending order."""
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0 + 0j]))
    return c


def _polyval_and_deriv(coeffs: np.ndarray, z: np.ndarray):
    p = np.zeros(z.shape, dtype=complex)
    dp = np.zeros(z.shape, dtype=complex)
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def aberth_roots(coeffs: np.ndarray, tol: float = 1e-13, max_iter: int = 400) -> np.ndarray:
    """All roots of a polynomial by the Aberth-Ehrlich simultaneous iteration.

    coeffs are ascending; the leading coefficient must be nonzero. Initial
    guesses sit on a circle of the Cauchy root bound with incommensurate
    angular offsets to break symmetry.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs) - 1
    if n < 1:
        return np.array([], dtype=complex)
    lead = coeffs[-1]
    if abs(lead) == 0:
        raise ValueError("leading coefficient vanishes")
    monic = coeffs / lead
    radius = 1.0 + np.max(np.abs(monic[:-1]))
    ang = TWO_PI * (np.arange(n) + 0.3573) / n + 0.4
    z = 0.5 * radius * np.exp(1j * ang)
    scale = np.max(np.abs(monic))
    for _ in range(max_iter):
        p, dp = _polyval_and_deriv(monic, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = p / dp
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = np.sum(1.0 / diff, axis=1)
            corr = w / (1.0 - w * s)
        bad = ~np.isfinite(corr)
        if np.any(bad):
            corr = np.where(bad, w, corr)
        z = z - corr
        if np.max(np.abs(corr)) < tol:
            break
    else:
        raise NoConvergence("Aberth iteration did not converge")
    p, _ = _polyval_and_deriv(monic, z)
    if np.max(np.abs(p)) > 1e-9 * max(1.0, scale):
        raise NoConvergence("Aberth residual too large")
    return z


def disk_preimages(F: BlaschkeMap, w: complex) -> np.ndarray:
    """The d solutions of F(z) = w inside the unit disk.

    Solves P(z) - w*Q(z) = 0 where P/Q is the rational form of F; the
    numerator has exact degree d because Q has degree < d (a_0 = 0).
    """
    w = complex(w)
    if not 0.0 < abs(w) < 1.0:
        raise ValueError("w must satisfy 0 < |w| < 1")
    P = _poly_from_roots(F.zeros) * np.exp(1j * F.rotation)
    Q = _poly_from_roots([1.0 / np.conj(a) for a in F.zeros if a != 0])
    Q = Q * np.prod([-np.conj(a) for a in F.zeros if a != 0])
    num = P.copy()
    num[: len(Q)] -= w * Q
    roots = aberth_roots(num)
    if np.any(np.abs(roots) >= 1.0 + 1e-9):
        raise RootEscape(f"preimage root escaped the disk for w = {w}")
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

def _lift_eval(F: BlaschkeMap, theta: np.ndarray) -> np.ndarray:
    """Pointwise continuous lift via the cached grid.

    Inside a grid cell the lift moves by < pi/4, so aligning the principal
    argument with the stored cell value recovers the correct branch.
    """
    t, ph = _lift_grid(F)
    theta = np.asarray(theta, dtype=float)
    base = wrap_angle(theta)
    idx = np.clip(np.searchsorted(t, base) - 1, 0, len(t) - 2)
    raw = np.angle(circle_values(F, base))
    lifted = ph[idx] + np.angle(np.exp(1j * (raw - ph[idx])))
    # restore the winding of the input angle itself
    return lifted + F.degree * (theta - base)


def periodic_points(F: BlaschkeMap, n: int) -> list[tuple[CirclePoint, float]]:
    """All fixed points of F^n on the circle with their multipliers |(F^n)'|.

    Found as the zeros of u(theta) = lift_n(theta) - theta, which increases by
    2*pi*(d^n - 1) per revolution; intervals are subdivided until each
    contains at most one zero, then bisected.
    """
    if not 1 <= n <= 12:
        raise ValueError("period must satisfy 1 <= n <= 12")
    d = F.degree
    count = d**n - 1
    if count > 10**7:
        raise BudgetExceeded(f"d^n - 1 = {count} exceeds the 1e7 budget")
    if count == 0:
        return []

    def lift_n(theta):
        cur = np.asarray(theta, dtype=float)
        for _ in range(n):
            cur = _lift_eval(F, cur)
        return cur

    # adaptive refinement: split cells until u varies by < pi/2 on each
    grid = np.linspace(0.0, TWO_PI, max(1024, 8 * count) + 1)
    u = lift_n(grid) - grid
    while True:
        du = np.diff(u)
        bad = np.nonzero(du > 0.5 * np.pi)[0]
        if len(bad) == 0:
            break
        mids = 0.5 * (grid[bad] + grid[bad + 1])
        grid = np.sort(np.concatenate([grid, mids]))
        u = lift_n(grid) - grid

    # zeros of u - 2*pi*k in each cell
    lo_k = np.ceil(u[:-1] / TWO_PI - 1e-12)
    hi_k = np.floor(u[1:] / TWO_PI + 1e-12)
    points = []
    for i in np.nonzero(hi_k >= lo_k)[0]:
        for k in range(int(lo_k[i]), int(hi_k[i]) + 1):
            tlo, thi = grid[i], grid[i + 1]
            target = TWO_PI * k
            for _ in range(70):
                tm = 0.5 * (tlo + thi)
                if lift_n(np.array([tm]))[0] - tm < target:
                    tlo = tm
                else:
                    thi = tm
            points.append(0.5 * (tlo + thi))
    points = np.array(sorted(wrap_angle(p) for p in points))
    # dedupe the wrap-around duplicate at 0 / 2*pi
    if len(points) > count:
        keep = np.ones(len(points), dtype=bool)
        for i in range(1, len(points)):
            if points[i] - points[i - 1] < 1e-10:
                keep[i] = False
        if points[-1] > TWO_PI - 1e-10 and points[0] < 1e-10:
            keep[-1] = False
        points = points[keep]
    result = []
    for p in points:
        orbit = np.empty(n)
        cur = p
        for j in range(n):
            orbit[j] = cur
            cur = float(angle_map(F, cur))
        mult = float(np.prod(circle_abs_deriv(F, orbit)))
        result.append((CirclePoint(float(p)), mult))
    return result
