"""Finite Blaschke products with an attracting fixed point at the origin.

A degree-d map is F(z) = e^{i*rot} * prod_i (z - a_i)/(1 - conj(a_i) z) with
all |a_i| < 1 and a_0 = 0, so F(0) = 0 and normalized Lebesgue measure on the
unit circle is F-invariant. On the circle the argument of F lifts to a
strictly increasing function L gaining 2*pi*d per revolution, in closed form
(each factor is a Mobius map of the circle). A cached table per map holds
K + 1 nodes uniform in L, so division finds the cell of any tau, where a
boundary preimage solves arg F(e^{it}) = tau by Newton from cubic Hermite
interpolation of the inverse lift, safeguarded by bisection. `lift_inverse`
extends the inverse to every real tau by whole turns; the batched boundary
preimages and the coding layer's partition cuts go through it. |F'| on the
circle is the Poisson-type sum sum_i (1 - |a_i|^2)/|z - a_i|^2, and its
mean log, the Lyapunov exponent, is Jensen's formula.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from .circle import TWO_PI, as_angle, wrap_angle
from .errors import LogSingularity, NoConvergence, PoleProximity, RootEscape

_BOUNDARY_MARGIN = 1e-12
_POLE_TOL = 1e-12
_LIFT_CELLS = 4096   # cells of the lift table, each gaining 2*pi*d/4096 of lift
_SEED_NODES = 64     # seed-table nodes per zero of F, see `_lift_table`
_NEWTON_SWEEPS = 60
_SMALL_ZERO = 1e-4   # zeros below this get their own seed matrix, see `lyapunov_exponent`
_TINY_ZERO = 1e-100  # a zero below this moves lambda by O(|a|): it counts as one at 0


@dataclass(frozen=True)
class BlaschkeMap:
    """Finite Blaschke product determined by its zeros and a rotation.

    zeros[0] must be 0, and the degree below K/2 so that a lift-table cell
    gains less than pi. The map is hashable so its lift table is cached.
    """

    zeros: tuple
    rotation: float = 0.0

    def __post_init__(self):
        zeros = tuple(complex(a) for a in self.zeros)
        if not 1 <= len(zeros) < _LIFT_CELLS // 2:
            raise ValueError(f"need at least one zero and fewer than {_LIFT_CELLS // 2}")
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
    dfact = _zero_gaps(F) / den**2
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
    for a, s in zip(F.zeros, _zero_gaps(F)):
        out += s / np.abs(z - a) ** 2
    return out


def angle_map(F: BlaschkeMap, theta):
    """The circle map in angle coordinates, theta -> arg F(e^{i*theta})."""
    return wrap_angle(np.angle(circle_values(F, theta)))


# ---------------------------------------------------------------------------
# argument lift and boundary preimages
# ---------------------------------------------------------------------------

def _lift(F: BlaschkeMap, t: np.ndarray) -> np.ndarray:
    """The lift L(t) of arg F(e^{it}), L(0) = arg F(1), in closed form: t for
    a zero at 0, and for a = r e^{i*phi}, phi + 2*pi*n + 2 atan2((1+r) sin h,
    (1-r) cos h), n = floor((t - phi + pi) / (2*pi)), h = (t - phi)/2 - pi*n."""
    t = np.concatenate(([0.0], t))
    L = F.zeros.count(0j) * t
    for a in F.zeros:
        if a:
            r, phi = abs(a), np.angle(a)
            n = np.floor((t - phi + np.pi) / TWO_PI)
            h = 0.5 * (t - phi - TWO_PI * n)
            L += TWO_PI * n + 2.0 * np.arctan2((1.0 + r) * np.sin(h), (1.0 - r) * np.cos(h))
    return np.angle(circle_values(F, 0.0)) + (L[1:] - L[0])


@functools.lru_cache(maxsize=64)
def _lift_table(F: BlaschkeMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The K + 1 nodes t_k where the lift is L(0) + 2*pi*d*k/K, with ph =
    `_lift`(t_k) and |F'(t_k)|: 100 KB whatever the zeros, and the inverse
    lift is 1-Lipschitz (|F'| >= 1). They are solved in a seed table of
    _SEED_NODES*d nodes uniform in t and _SEED_NODES per factor uniform in
    its own lift, whose cells are halved until each gains at most 1 radian."""
    tan = np.tan(np.pi * np.arange(_SEED_NODES) / _SEED_NODES - 0.5 * np.pi)
    seeds = [np.mod(np.angle(a) + 2.0 * np.arctan((1 - abs(a)) / (1 + abs(a)) * tan), TWO_PI)
             for a in F.zeros if a]
    # a repeated node makes an empty cell, which no tau is searched into
    ts = np.sort(np.concatenate([np.linspace(0.0, TWO_PI, _SEED_NODES * F.degree + 1), *seeds]))
    while (wide := np.diff(Ls := _lift(F, ts)) > 1.0).any():
        ts = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])[wide]]))
    tau = Ls[0] + TWO_PI * F.degree * np.arange(1, _LIFT_CELLS) / _LIFT_CELLS
    idx = np.clip(np.searchsorted(Ls, tau), 1, len(Ls) - 1)
    t = np.concatenate(([0.0], _preimage_newton(F, tau, idx, ts, Ls, circle_abs_deriv(F, ts)),
                        [TWO_PI]))
    return t, _lift(F, t), circle_abs_deriv(F, t)


def _newton_terms(F: BlaschkeMap, t: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = arg(F(e^{it}) * w) and |F'(e^{it})|, from one exponential per
    point; w = e^{-i*tau} for the Newton residual g = L(t) - tau."""
    z = np.exp(1j * t)
    val = w * np.exp(1j * F.rotation)
    slope = np.zeros(t.shape)
    for a, s in zip(F.zeros, _zero_gaps(F)):
        if a:
            q = z - a
            val *= q / (1.0 - np.conj(a) * z)
            slope += s / (q.real * q.real + q.imag * q.imag)
        else:
            val *= z
            slope += 1.0
    return np.angle(val), slope


def _lift_cell(F: BlaschkeMap, tau: np.ndarray) -> np.ndarray:
    """The `_lift_table` cell k = clip(searchsorted(ph, tau), 1, K) of each
    tau, by division: the nodes are uniform in the lift up to rounding, so
    one comparison with each end corrects a tau within rounding of a node."""
    _, ph, _ = _lift_table(F)
    k = np.clip(((tau - ph[0]) * (_LIFT_CELLS / (TWO_PI * F.degree))).astype(np.intp) + 1,
                1, _LIFT_CELLS)
    k += tau > ph[k]
    k -= tau <= ph[k - 1]
    return np.clip(k, 1, _LIFT_CELLS, out=k)


def _preimage_newton(F: BlaschkeMap, tau: np.ndarray, idx: np.ndarray, grid: np.ndarray,
                     ph: np.ndarray, node_slope: np.ndarray) -> np.ndarray:
    """The angles t with lift(t) = tau, by safeguarded Newton in lift cells.

    Each tau is bracketed by the cell idx of a table (grid, ph = lift,
    node_slope = |F'|) whose cells gain less than pi, so g(t) = arg(F(e^{it})
    e^{-i*tau}) is the lift minus tau there, with g' = |F'(e^{it})|. Newton
    starts from the inverse lift's cubic Hermite interpolant, in the cell.

    A Newton step s taken at t lands within M s^2 / (2m) of the root: by
    Taylor's theorem |g(t + s)| <= M s^2 / 2, where M = sum_i 2|a_i|(1+|a_i|)
    / (1-|a_i|)^3 bounds |d/dt |F'||, and g' >= m = `F.min_boundary_deriv()`.
    An entry is done once that bound is at most 2.2e-16 * max(1, |t|) with
    t + s inside its bracket, or once its step is below 4e-15 * max(1, |t|)
    (a root on a node collapses the bracket). Every sweep moves the bracket
    end on the side of g's sign to t, and bisects where a step leaves it.
    """
    tlo, thi = grid[idx - 1], grid[idx]
    dp = ph[idx] - ph[idx - 1]
    u = np.clip((tau - ph[idx - 1]) / dp, 0.0, 1.0)
    # Hermite basis: t = t0 + h01 (t1 - t0) + dp (h10 / |F'(t0)| + h11 / |F'(t1)|)
    t = tlo + u * u * (3.0 - 2.0 * u) * (thi - tlo) + u * (1.0 - u) * dp * (
        (1.0 - u) / node_slope[idx - 1] - u / node_slope[idx])
    np.clip(t, tlo, thi, out=t)
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

    L is the lift `_lift` of arg F(e^{it}), L(0) = arg F(1) in (-pi, pi].
    Since L(t + 2*pi) = L(t) + 2*pi*d, tau is reduced by whole turns into
    [L(0), L(0) + 2*pi*d), solved in its `_lift_table` cell, and the turns
    are added back. The inverse is increasing with slope 1/|F'| <= 1. A NaN
    or infinite tau is refused with ValueError.
    """
    grid, ph, node_slope = _lift_table(F)
    tau = np.asarray(tau, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError("lift_inverse needs finite targets")
    turns = np.floor((tau - ph[0]) / (TWO_PI * F.degree))
    base = np.ravel(tau - TWO_PI * F.degree * turns)
    root = _preimage_newton(F, base, _lift_cell(F, base), grid, ph, node_slope)
    return root.reshape(tau.shape) + TWO_PI * turns


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

def _gap_and_log(z) -> tuple[np.ndarray, np.ndarray]:
    """1 - |z|^2 and log|z| of each z. The first is rounded once from integer
    arithmetic (in double it keeps only 7 digits at |z| = 1 - 1e-9), and
    the second is log1p(-(1 - |z|^2)) / 2 next to the circle."""
    gaps = []
    for w in z:
        (x, p), (y, q) = w.real.as_integer_ratio(), w.imag.as_integer_ratio()
        x, y, n = x * q, y * p, p * q   # w = (x + iy) / n
        gaps.append((n * n - x * x - y * y) / (n * n))
    s = np.array(gaps)
    return s, np.where(s < 0.5, 0.5 * np.log1p(-np.minimum(s, 0.5)), np.log(np.abs(z)))


@functools.lru_cache(maxsize=64)
def _zero_gaps(F: BlaschkeMap) -> np.ndarray:
    """1 - |a|^2 of each zero a of F by `_gap_and_log`, cached per map: the
    factor of every Poisson term of |F'|."""
    with np.errstate(divide="ignore"):     # log|a| of a zero at 0, unused
        s = _gap_and_log(np.array(F.zeros))[0]
    s.flags.writeable = False
    return s


@functools.lru_cache(maxsize=64)
def lyapunov_exponent(F: BlaschkeMap) -> float:
    """The mean of log|F'| on the circle by Jensen's formula, cached per map.

    With m zeros at 0, |F'| = |m B + z B'| on the circle for F = z^m B: m
    prod|a| at 0, with zeros at each k-fold zero a of F, (k - 1)-fold, and
    at the zeros c of h = z F'/F = m + sum k (a/(z - a) + 1/(1 - conj(a) z))
    over distinct a. So lambda = log m + sum log|a| - sum log|c|. The c,
    half of the 2p zeros of h (the rest are 1/conj(c)), are eigenvalues of
    its poles minus a rank-one term, polished by Newton on h. Zeros below
    _SMALL_ZERO are seeded apart and seen by the others as zeros at 0.
    """
    mult = Counter(z for z in F.zeros if abs(z) > _TINY_ZERO)
    m = F.degree - sum(mult.values())
    if not mult:
        return float(np.log(m))
    a, k = np.array(list(mult)), np.array(list(mult.values()))
    s, log_a = _gap_and_log(a)
    if len(a) == 1:   # h's numerator is a quadratic with |c c'| = 1: lambda in closed form
        disc = np.sqrt(s * (4 * m * k + (k - m) ** 2 * s))
        return float(np.log(m) + np.log1p(((k - m) * s + disc)[0] / (2 * m)))
    small = np.abs(a) < _SMALL_ZERO
    g0 = m + k[small].sum()
    b, j = a[~small], k[~small]
    big = np.linalg.eigvals(np.diag(np.concatenate([b, 1.0 / np.conj(b)]))
                            - np.concatenate([j * b, -j / np.conj(b)])[:, None] / g0)
    c = np.concatenate([big[np.argsort(np.abs(big))[:len(b)]], np.linalg.eigvals(
        np.diag(a[small]) - (k * a)[small][:, None] / g0)])[:, None]
    for _ in range(_NEWTON_SWEEPS):
        # (z - a)(1 - conj(a) z) = e (s - conj(a) e) with e = z - a
        e = c - a
        q = e * (s - np.conj(a) * e)
        step = (m + np.sum(k * s * c / q, axis=1, keepdims=True)) / np.sum(
            k * s * (np.conj(a) * c * c - a) / (q * q), axis=1, keepdims=True)
        if np.all(np.abs(step) <= 4e-16 * np.abs(c)):
            break
        c = c - step
    if not np.all(np.abs(c) < 1.0):
        raise NoConvergence("a critical point of F left the disk in its Newton polish")
    # the last step, below the rounding of c, still moves log|c| by -Re(step / c)
    return float(np.log(m) + np.sum(log_a) + np.sum((step / c).real)
                 - np.sum(_gap_and_log(c.ravel())[1]))


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
