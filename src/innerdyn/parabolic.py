"""Doubly-parabolic self-maps of the upper half-plane and first-return data.

Maps F(x) = x - sum_i t_i / (x - b_i) with all t_i > 0 fix infinity with
F(z) = z - a/z + O(1/z^2), a = sum t_i, and satisfy F'(x) > 1 on the real
line. The poles cut the line into branches mapped monotonically onto the
line; inverse orbits of the extreme poles build the partition whose core
interval X carries the first return map, an expanding system with countably
many branches.

Everything here reduces to the monotone equation F(x) = y on one branch, and
two routines are the only root-finders: `_inverse` solves it on any bracket
for any array of targets, and `_ladder` solves a whole backward orbit on an
outer branch (boundary orbits, excursion descents) as one bidiagonal system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from .counting import CountingLedger
from .errors import (BisectionFail, BudgetExceeded, NoConvergence,
                     NoReturnWithinCap, NotDoublyParabolic,
                     TailBoundExceeded)

_POLE_TOL = 1e-14
_ROOT_TOL = 1e-14


@dataclass(frozen=True)
class ParabolicMap:
    """F(x) = x - sum t_i/(x - b_i); poles sorted by location."""

    poles: tuple

    def __post_init__(self):
        poles = tuple(sorted((float(b), float(t)) for b, t in self.poles))
        if len(poles) == 0:
            raise ValueError("need at least one pole")
        if any(t <= 0 for _, t in poles):
            raise ValueError("pole masses must be positive")
        bs = [b for b, _ in poles]
        if len(set(bs)) != len(bs):
            raise ValueError("pole locations must be distinct")
        object.__setattr__(self, "poles", poles)

    @property
    def mass(self) -> float:
        """The coefficient a in F(z) = z - a/z + ... at infinity."""
        return float(sum(t for _, t in self.poles))

    @property
    def pole_locations(self) -> np.ndarray:
        return np.array([b for b, _ in self.poles])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        for b, t in self.poles:
            out = out - t / (x - b)
        return out if out.ndim else float(out)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for b, t in self.poles:
            out = out + t / (x - b) ** 2
        return out if out.ndim else float(out)

    def log_deriv(self, x):
        return np.log(self.deriv(x))

    def label(self) -> str:
        ps = ";".join(f"{b:g},{t:g}" for b, t in self.poles)
        return f"parabolic[{ps}]"


def build_parabolic(poles, translation: float = 0.0) -> ParabolicMap:
    """Validated doubly-parabolic map; a nonzero translation is rejected.

    A translation term would make the fixed point at infinity singly
    parabolic (F(z) = z + T - a/z), which has no invariant Lebesgue class on
    the line in this normalization.
    """
    if translation != 0.0:
        raise NotDoublyParabolic(f"translation term {translation} given; "
                                 "the doubly-parabolic form has none")
    return ParabolicMap(tuple((float(b), float(t)) for b, t in poles))


# ---------------------------------------------------------------------------
# the two root-finders: branch inverse and outer-branch ladder
# ---------------------------------------------------------------------------

def _inverse(P: ParabolicMap, lo, hi, y):
    """Solve F(x) = y on the branch (lo, hi) where F increases onto its image.

    Broadcasts over lo, hi and y. Safeguarded Newton: a step that leaves the
    bracket is replaced by bisection, and the bracket shrinks on the sign of
    F(x) - y. An infinite end gets a finite one in closed form: outside the
    poles |F(x) - x| <= a / dist(x, poles), so the root lies above
    min(y, b_first) - a - 1 and below max(y, b_last) + a + 1. An entry is done
    once its Newton step is below _ROOT_TOL * max(1, |x|) and below half the
    way to either bracket end, and it returns that step; BisectionFail is
    raised if any entry is not done within 200 steps.
    """
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
        # next to a pole F' is huge and Newton crawls: a step as long as the
        # way to the bracket end proves nothing
        done = np.abs(step) < np.minimum(_ROOT_TOL * np.maximum(1.0, np.abs(x)),
                                         0.5 * np.minimum(x - xa, xb - x))
        xa = np.where(r < 0, x, xa)
        xb = np.where(r > 0, x, xb)
        xn = x - step
        xn = np.where(done | ((xa < xn) & (xn < xb)), xn, 0.5 * (xa + xb))
        out[todo[done]] = xn[done]
        left = ~done
        todo, x, xa, xb, y = todo[left], xn[left], xa[left], xb[left], y[left]
        if todo.size == 0:
            out = out.reshape(shape)
            return out if out.ndim else float(out)
    raise BisectionFail(f"branch inverse unconverged at {todo.size} targets")


def _ladder(P: ParabolicMap, side: str, x0, count: int) -> np.ndarray:
    """x_1 .. x_count with F(x_k) = x_{k-1} on the outer branch of a side.

    The outer branch lies right of the last pole (side '+') or left of the
    first (side '-'), and every start point must lie on its closure. Each
    column of x0 runs at once; the result has shape (count,) + x0.shape.
    The seed is the parabolic law x_k = b +- sqrt((x0 - b)^2 + 2ak). Newton on
    the whole bidiagonal system solves d_k = (d_{k-1} - r_k) / F'(x_k) for the
    residuals r_k = F(x_k) - x_{k-1} as a cumulative sum scaled by prod F',
    which grows like k^(1/2). Each sweep is a scalar Newton step toward the
    updated x_{k-1}, which stays outside the pole, and F is concave (convex
    on side '-') there, so no iterate leaves the branch. Once every residual
    is below _ROOT_TOL * max(1, |x_k|) one last sweep takes Newton to
    rounding level; BisectionFail is raised if that does not happen within
    60 sweeps.
    """
    x0 = np.asarray(x0, dtype=float)
    b = float(P.pole_locations[-1] if side == "+" else P.pole_locations[0])
    sign = 1.0 if side == "+" else -1.0
    k = np.arange(1, count + 1, dtype=float).reshape((count,) + (1,) * x0.ndim)
    x = b + sign * np.sqrt((x0 - b) ** 2 + 2.0 * P.mass * k)
    for _ in range(60):
        r = P(x) - np.concatenate([x0[None], x[:-1]])
        converged = np.all(np.abs(r) <= _ROOT_TOL * np.maximum(1.0, np.abs(x)))
        g = P.deriv(x)
        G = np.cumprod(g, axis=0)
        x = x - np.cumsum(r * (G / g), axis=0) / G
        if converged:
            return x
    raise BisectionFail("outer-branch ladder did not converge")


_ORBITS: dict = {}
_ORBIT_BLOCK = 1 << 12


def boundary_orbit(P: ParabolicMap, side: str, count: int) -> np.ndarray:
    """p_0 .. p_{count-1} on the given side ('+' grows to +inf, '-' to -inf).

    p_0 is the extreme pole and F(p_n) = p_{n-1}. The cached orbit grows in
    fixed blocks, one ladder solve from the last point each, so every point
    is the same whatever sequence of requests built the cache.
    """
    if count > 2 * 10**6:
        raise BudgetExceeded("boundary orbit request too long")
    key = (P.poles, side)
    orbit = _ORBITS.get(key)
    if orbit is None:
        orbit = P.pole_locations[-1:] if side == "+" else P.pole_locations[:1]
    if len(orbit) < count:
        blocks = [orbit]
        for _ in range(-(-(count - len(orbit)) // _ORBIT_BLOCK)):
            blocks.append(_ladder(P, side, blocks[-1][-1], _ORBIT_BLOCK))
        orbit = np.concatenate(blocks)
    _ORBITS[key] = orbit
    return orbit[:count]


@dataclass
class RealPartition:
    """Boundary orbit points and the core interval X = [p_{N+1}^-, p_{N+1}^+]."""

    map: ParabolicMap
    level: int
    p_plus: np.ndarray     # p_1^+ .. p_{N+1}^+
    p_minus: np.ndarray

    @property
    def core(self) -> tuple[float, float]:
        return float(self.p_minus[-1]), float(self.p_plus[-1])

    def interval_plus(self, n: int) -> tuple[float, float]:
        """J_n^+ = [p_n^+, p_{n+1}^+] (1-based n <= level)."""
        return float(self.p_plus[n - 1]), float(self.p_plus[n])

    def interval_minus(self, n: int) -> tuple[float, float]:
        return float(self.p_minus[n]), float(self.p_minus[n - 1])


def real_markov_partition(P: ParabolicMap, N: int) -> RealPartition:
    """Inverse orbits to depth N+1 and the interval structure they cut.

    For N >= 64 the last decade of gaps is checked against the parabolic
    n^{-1/2} law (gap ratio at doubled index near 1/sqrt(2)).
    """
    if not 1 <= N <= 10**4:
        raise ValueError("level must satisfy 1 <= N <= 1e4")
    pp = boundary_orbit(P, "+", N + 1)
    pm = boundary_orbit(P, "-", N + 1)
    if N >= 64:
        gaps = np.diff(pp)
        n0 = len(gaps) // 2
        ratio = gaps[-1] / gaps[n0 - 1]
        expected = math.sqrt(n0 / len(gaps))
        if not 0.5 * expected < ratio < 2.0 * expected:
            raise BisectionFail("boundary-orbit gaps violate the n^(-1/2) law")
    return RealPartition(map=P, level=N, p_plus=pp, p_minus=pm)


# ---------------------------------------------------------------------------
# first return map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnEvent:
    start: float
    return_point: float
    return_time: int
    log_deriv: float


def first_return(P: ParabolicMap, X: tuple[float, float], x: float,
                 cap: int = 10**6) -> ReturnEvent:
    """Iterate F until the orbit re-enters X, accumulating log|F'|."""
    lo, hi = X
    if not lo <= x <= hi:
        raise ValueError("start point must lie in the core interval")
    bs = P.pole_locations
    acc = 0.0
    y = float(x)
    for n in range(1, cap + 1):
        if np.min(np.abs(y - bs)) < _POLE_TOL * max(1.0, abs(y)):
            raise NoReturnWithinCap("orbit hit a pole preimage")
        acc += float(P.log_deriv(y))
        y = float(P(y))
        if lo <= y <= hi:
            return ReturnEvent(start=float(x), return_point=y, return_time=n,
                               log_deriv=acc)
    raise NoReturnWithinCap(f"no return within {cap} iterations")


# ---------------------------------------------------------------------------
# Kac identity check
# ---------------------------------------------------------------------------

def _derivative_zeros(P: ParabolicMap) -> np.ndarray:
    """The n zeros of F'(z) = 1 + sum t_i/(z - b_i)^2 in the upper half-plane.

    F' = Q / prod (z - b_i)^2, where Q = prod (z - b_i)^2 +
    sum_i t_i prod_{j != i} (z - b_j)^2 is monic of degree 2n and positive
    on the line, so its zeros are n conjugate pairs, repeated by
    multiplicity. They are seeded by the companion-matrix roots of Q,
    expanded about the centre of the poles and scaled to unit size, and then
    polished by Newton steps on F' itself: the expanded coefficients lose
    the zeros next to a light pole (7e-11 relative at masses of 1e-6), F'
    does not. Two polished zeros that coincide (closer than 1e-6 of their
    distance to the poles) are polished again as one zero of F'', which is
    simple where F' has a double zero (two equal masses t set sqrt(t) apart
    give one) and which Newton on F' finds only to sqrt(eps); two seeds that
    fell on one simple zero are moved off it by that polish, fail the
    residual check and raise NoConvergence. Every returned zero lies in the
    upper half-plane with |F'(r)| <= 1e-12 * (1 + sum t_i/|r - b_i|^2).
    """
    bs = P.pole_locations
    ts = np.array([t for _, t in P.poles])
    n = len(bs)
    c = 0.5 * (bs[0] + bs[-1])
    b = bs - c

    def g(z, k):
        return np.sum(ts / (z[:, None] - b) ** k, axis=1)

    def newton(z, step):
        for _ in range(50):
            dz = step(z)
            z = z - dz
            if np.all(np.abs(dz) <= 1e-15 * np.abs(z)):
                break
        return z

    s = max(float(np.max(np.abs(b))), math.sqrt(P.mass))
    poly = npp.polyfromroots(np.repeat(b / s, 2))
    for i in range(n):
        poly = npp.polyadd(poly, ts[i] / s**2 * npp.polyfromroots(np.repeat(np.delete(b, i) / s, 2)))
    seed = npp.polyroots(poly)
    w = newton(s * seed[np.argsort(seed.imag)[n:]], lambda z: (1.0 + g(z, 2)) / (-2.0 * g(z, 3)))
    gaps = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(gaps, np.inf)
    close = np.min(gaps, axis=1) <= 1e-6 * np.min(np.abs(w[:, None] - b), axis=1)
    if np.any(close):
        w[close] = newton(w[close], lambda z: -g(z, 3) / (3.0 * g(z, 4)))
    d = w[:, None] - b
    res = np.abs(1.0 + np.sum(ts / d**2, axis=1))
    if not np.all((res <= 1e-12 * (1.0 + np.sum(ts / np.abs(d) ** 2, axis=1))) & (w.imag > 0)):
        raise NoConvergence(f"zeros of F' unresolved for {P.label()}")
    return w + c


def lyapunov_integral(P: ParabolicMap) -> float:
    """int_R log F'(x) dx in closed form: 2 pi sum Im r_k.

    F'(x) = Q(x) / prod (x - b_i)^2 with Q monic of degree 2n and positive on
    the line, and the x^(2n-1) coefficients of Q and of prod (x - b_i)^2 are
    equal, so the integral is sum_k int log|x - r_k|^2 / |x - Re r_k|^2 dx =
    2 pi sum_k Im r_k over the zeros r_k of F' in the upper half-plane
    (Boole: Q = x^2 + 1, giving 2 pi). The zeros come from
    `_derivative_zeros`, polished on F' so that light poles keep full
    relative accuracy.
    """
    return float(2.0 * math.pi * np.sum(_derivative_zeros(P).imag))


def _gauss_nodes(q: int):
    x, w = np.polynomial.legendre.leggauss(q)
    return x, w


@dataclass
class KacReport:
    lhs: float
    rhs: float
    cap: int
    computed_mass: float       # total stratum length integrated directly
    tail_estimate: float       # extrapolated contribution beyond the cap
    tail_fraction: float       # tail_estimate / rhs

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


def _full_branches(P: ParabolicMap, part: RealPartition):
    """Branches of F inside X that map onto a half-line or the whole line.

    Each is (lo, hi, covers_left, covers_right): J_1^+ covers the left tail,
    J_1^- the right tail, and every bounded basic interval covers both.
    """
    bs = list(P.pole_locations)
    out = []
    out.append((bs[-1], float(part.p_plus[1]), True, False))    # J_1^+
    out.append((float(part.p_minus[1]), bs[0], False, True))    # J_1^-
    for i in range(len(bs) - 1):
        out.append((bs[i], bs[i + 1], True, True))
    return out


def _excursion_chain(P: ParabolicMap, part, side: str, n_fine: int, cap: int, q: int):
    """Descent chains for excursions exiting to J_n^(side), N < n <= cap.

    Returns (nodes, sums, mid_sums). nodes[n-N-1] holds q points of J_n, the
    pullbacks of Gauss points of J_N under the descent diffeomorphism, for
    n <= n_fine, and sums[n-N-1] the exact accumulated log F' of the descent
    from those points into X. mid_sums[n-N-1] is the same sum along the
    pullbacks of the midpoint of J_N, for every n <= cap: beyond the finely
    resolved region the excursion weight varies across a stratum by at most
    sum_m var(log F' | J_m) = O(1/n), so one point per level suffices there.
    """
    N = part.level
    p = part.p_minus if side == "-" else part.p_plus
    mid, half = 0.5 * (p[N - 1] + p[N]), 0.5 * abs(p[N] - p[N - 1])
    gl_x, _ = _gauss_nodes(q)
    nodes = _ladder(P, side, mid + half * gl_x, n_fine - N)
    sums = np.cumsum(np.log(P.deriv(nodes)), axis=0)
    mid_sums = np.cumsum(np.log(P.deriv(_ladder(P, side, mid, cap - N))))
    return nodes, sums, mid_sums


def _barycentric_weights(xs: np.ndarray) -> np.ndarray:
    """Barycentric weights per row of node matrix xs (m, q)."""
    w = np.ones_like(xs)
    for j in range(xs.shape[1]):
        diff = xs - xs[:, j][:, None]
        diff[:, j] = 1.0
        w[:, j] = 1.0 / np.prod(diff, axis=1)
    return w


def _interp_barycentric(xs: np.ndarray, ys: np.ndarray, x: np.ndarray,
                        w: np.ndarray | None = None) -> np.ndarray:
    """Barycentric interpolation row-wise: xs, ys (m, q); x (m,) -> (m,)."""
    if w is None:
        w = _barycentric_weights(xs)
    d = x[:, None] - xs
    exact = np.abs(d) < 1e-300
    d = np.where(exact, 1.0, d)
    num = np.sum(w / d * ys, axis=1)
    den = np.sum(w / d, axis=1)
    out = num / den
    hit = np.any(exact, axis=1)
    if np.any(hit):
        idx = np.argmax(exact[hit], axis=1)
        out[hit] = ys[hit, idx]
    return out


def kac_check(P: ParabolicMap, N: int, quad_points: int = 12,
              tail_frac: float = 0.01, cap0: int = 10**4,
              cap_max: int = 2**20) -> KacReport:
    """Compare int_X log|Fhat'| dl against int_R log|F'| dl.

    The return-time strata of X are integrated by Gauss quadrature; the
    infinite families exiting through the tails are truncated at an adaptive
    cap, grown until the extrapolated tail contribution drops below
    tail_frac of the right-hand side, and the estimate is then added to the
    left-hand side. TailBoundExceeded is raised if no admissible cap exists.
    """
    rhs = lyapunov_integral(P)
    cap = cap0
    while True:
        lhs, tail, mass = _kac_lhs(P, N, quad_points, cap)
        if tail <= tail_frac * rhs:
            return KacReport(lhs=lhs, rhs=rhs, cap=cap, computed_mass=mass,
                             tail_estimate=tail, tail_fraction=tail / rhs)
        if cap >= cap_max:
            raise TailBoundExceeded(
                f"estimated stratum tail {tail:.3e} above {tail_frac:.0%} of "
                f"rhs even at cap {cap}")
        # tail ~ cap^{-1/2} log cap: jump close to the admissible cap at once
        factor = (tail / (tail_frac * rhs)) ** 2
        cap = min(cap_max, int(cap * min(max(2.0, 1.5 * factor), 64.0)))


def _kac_lhs(P: ParabolicMap, N: int, q: int, cap: int):
    part = real_markov_partition(P, N)
    gl_x, gl_w = _gauss_nodes(q)
    core_lo, core_hi = part.core

    def gauss_log_deriv(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts = mid + half * gl_x
        return float(np.sum(gl_w * np.log(P.deriv(pts))) * half)

    total = 0.0
    mass_total = 0.0
    # single-stratum intervals J_m^{+-}, 2 <= m <= N (one F-step back into X)
    for m in range(2, N + 1):
        for lo, hi in (part.interval_plus(m), part.interval_minus(m)):
            total += gauss_log_deriv(lo, hi)
            mass_total += hi - lo
    # time-1 strata of the full branches (image clipped to X on covered sides)
    for blo, bhi, cl, cr in _full_branches(P, part):
        x_left = _inverse(P, blo, bhi, core_lo) if cl else blo
        x_right = _inverse(P, blo, bhi, core_hi) if cr else bhi
        total += gauss_log_deriv(x_left, x_right)
        mass_total += x_right - x_left

    tail_total = 0.0
    n_fine = min(cap, 1 << 14)
    for side in ("-", "+"):
        p = boundary_orbit(P, side, cap + 2)
        nodes, sums, mid_sums = _excursion_chain(P, part, side, n_fine, cap, q)
        bw = _barycentric_weights(nodes)
        branches = [b for b in _full_branches(P, part)
                    if (b[2] if side == "-" else b[3])]
        for (blo, bhi, _cl, _cr) in branches:
            # stratum boundaries: preimages of p_{N+1}, p_{N+2}, ... cut the
            # branch into the intervals exiting to J_{N+1}, J_{N+2}, ...
            xb = _inverse(P, blo, bhi, p[N: cap + 1])
            lo_arr = np.minimum(xb[1:], xb[:-1])
            hi_arr = np.maximum(xb[1:], xb[:-1])
            lengths = hi_arr - lo_arr
            mids = 0.5 * (lo_arr + hi_arr)[:, None] + \
                0.5 * lengths[:, None] * gl_x[None, :]
            base = np.sum(gl_w[None, :] * np.log(P.deriv(mids)), axis=1) * 0.5 * lengths
            nf = n_fine - N
            exc_fine = np.empty((nf, q))
            for j in range(q):
                exc_fine[:, j] = _interp_barycentric(nodes, sums,
                                                     P(mids[:nf, j]), bw)
            contrib = base.copy()
            contrib[:nf] += np.sum(gl_w[None, :] * exc_fine, axis=1) * 0.5 * lengths[:nf]
            contrib[nf:] += mid_sums[nf:] * lengths[nf:]
            total += float(np.sum(contrib))
            mass_total += float(np.sum(lengths))
            # tail beyond the cap: exact remaining mass times a fitted weight
            pole_end = blo if side == "-" else bhi
            rem = abs(xb[-1] - pole_end)
            mass_total += rem
            w_n = contrib / lengths
            ns = np.arange(N + 1, cap + 1, dtype=float)
            sel = ns > cap / 8
            A = np.vstack([np.ones(int(np.sum(sel))), np.log(ns[sel])]).T
            coef, *_ = np.linalg.lstsq(A, w_n[sel], rcond=None)
            mean_ln = math.log(cap) + 2.0   # mean of ln n under the n^{-3/2} tail law
            tail_total += rem * float(coef[0] + coef[1] * mean_ln)
    return total + tail_total, tail_total, mass_total


# ---------------------------------------------------------------------------
# orbit counting for the induced system
# ---------------------------------------------------------------------------

def _auto_level(P: ParabolicMap, points, N_min: int = 1, N_max: int = 64) -> int:
    """Smallest level N with X_N containing all the given points."""
    lo = min(points)
    hi = max(points)
    for N in range(N_min, N_max + 1):
        pp = boundary_orbit(P, "+", N + 1)
        pm = boundary_orbit(P, "-", N + 1)
        if pm[-1] <= lo and hi <= pp[-1]:
            return N
    raise ValueError("points do not fit any core interval up to N_max")


def parabolic_count(P: ParabolicMap, x: float, T: float, B,
                    N: int | None = None,
                    node_budget: int = 10**7) -> CountingLedger:
    """Ledger of backward orbits of the first-return map with Birkhoff sums <= T.

    Events are pairs (S_k log|Fhat'|(z), z) over k-step Fhat-preimages z of
    x; B is a union of half-open intervals [lo, hi) inside the core X. The
    tree is pruned at T, which is valid because every return adds at least
    log(inf_X F') > 0; excursion branches are pruned once their minimal
    increment exceeds the remaining budget.
    """
    B = [(float(lo), float(hi)) for lo, hi in B]
    pts = [x] + [e for ab in B for e in ab]
    if N is None:
        N = _auto_level(P, pts)
    part = real_markov_partition(P, N)
    core_lo, core_hi = part.core
    if not core_lo <= x <= core_hi:
        raise ValueError("seed must lie in the core interval")
    est = 4.0 * math.exp(T) * (core_hi - core_lo) / lyapunov_integral(P)
    if est > node_budget:
        raise BudgetExceeded("predicted event count exceeds the node budget")
    branches = _full_branches(P, part)
    pp, pm = part.p_plus, part.p_minus
    b_lo, b_hi = float(P.pole_locations[0]), float(P.pole_locations[-1])

    def children(y, acc):
        """Children (z, acc + increment) of the nodes y. Only the excursion
        ladders are cut at T here; the caller prunes the other children."""
        # every (node, bracket) pair of a one-step child goes to one solve
        pairs = []
        # one-step moves down the ladders: z in J_{m+1} needs y in J_m, m < N
        if N >= 2:
            i = np.flatnonzero((pp[0] <= y) & (y < pp[N - 1]))
            m = np.searchsorted(pp, y[i], side="right")          # y in J_m^+
            pairs.append((i, pp[m], pp[m + 1]))
            i = np.flatnonzero((pm[N - 1] < y) & (y <= pm[0]))
            m = np.searchsorted(-pm, -y[i], side="right")        # y in J_m^-
            pairs.append((i, pm[m + 1], pm[m]))
        # time-1 strata of the full branches: y must lie in the branch image,
        # which misses the right tail above the top pole for J_1^+ and the
        # left tail below the bottom pole for J_1^-
        for blo, bhi, cl, cr in branches:
            i = np.flatnonzero((cl | (y > b_lo)) & (cr | (y < b_hi)))
            pairs.append((i, np.full(len(i), blo), np.full(len(i), bhi)))
        i, lo, hi = (np.concatenate(c) for c in zip(*pairs))
        zs = [_inverse(P, lo, hi, y[i])]
        vs = [acc[i] + np.log(P.deriv(zs[0]))]
        # excursion families land exactly in J_N^{+-}; their ladders grow in
        # chunks, and a column stops at the first level where the increment
        # of every covering branch exceeds the remaining budget: increments
        # grow monotonically with the level, so all deeper ones do too
        for side in ("-", "+"):
            jlo, jhi = part.interval_minus(N) if side == "-" else part.interval_plus(N)
            i = np.flatnonzero((jlo <= y) & (y < jhi))
            fam = [b for b in branches if (b[2] if side == "-" else b[3])]
            w, base, descent = y[i], acc[i], np.zeros(len(i))
            while len(w):
                W = _ladder(P, side, w, 16)
                L = descent + np.cumsum(np.log(P.deriv(W)), axis=0)
                Z = [_inverse(P, blo, bhi, W) for blo, bhi, _cl, _cr in fam]
                inc = [L + np.log(P.deriv(z)) for z in Z]
                over = np.minimum.reduce(inc) > T - base
                live = np.cumsum(over, axis=0) == 0
                for z, c in zip(Z, inc):
                    keep = live & (c <= T - base)
                    zs.append(z[keep])
                    vs.append(np.broadcast_to(base, c.shape)[keep] + c[keep])
                go = ~over.any(axis=0)
                w, base, descent = W[-1, go], base[go], L[-1, go]
        return np.concatenate(zs), np.concatenate(vs)

    start = np.array([float(x)] if T >= 0 else [])
    locations, values = [start], [np.zeros(len(start))]
    nodes = len(start)
    while len(locations[-1]):
        z, v = children(locations[-1], values[-1])
        keep = v <= T
        locations.append(z[keep])
        values.append(v[keep])
        nodes += int(np.sum(keep))
        if nodes > node_budget:
            raise BudgetExceeded("node budget exhausted during enumeration")
    values = np.concatenate(values)
    locations = np.concatenate(locations)
    member = np.zeros(len(values), dtype=bool)
    for lo, hi in B:
        member |= (locations >= lo) & (locations < hi)
    if not B:
        member[:] = True
    return CountingLedger.from_events(values, locations=locations,
                                      member_mask=member, T_max=float(T),
                                      space="line",
                                      meta={"map": P.label(), "seed": float(x),
                                            "level": N, "B": B})


def induced_cycle_multipliers(P: ParabolicMap, n_values) -> np.ndarray:
    """log-multipliers L_n of the periodic orbits with itinerary
    J_n^+ -> J_{n-1}^+ -> ... -> J_1^+ -> J_1^- -> J_n^+ (period n + 1).

    The orbit point is the fixed point of the contracting inverse-branch
    cycle; L_{n+1} - L_n -> 0 while L_n -> infinity, which is the signature
    that the induced potential is not lattice.
    """
    out = []
    for n in n_values:
        n = int(n)
        if n < 2:
            raise ValueError("need n >= 2")
        pp = boundary_orbit(P, "+", n + 2)
        pm = boundary_orbit(P, "-", n + 2)
        bs = P.pole_locations
        # inverse-branch cycle, innermost first: J_1^-, J_1^+, then the
        # outer-branch ladder J_2^+, ..., J_n^+
        z = 0.5 * (pp[n - 1] + pp[n])
        for _ in range(200):
            w1 = _inverse(P, pm[1], bs[0], z)
            w2 = _inverse(P, bs[-1], pp[1], w1)
            rungs = _ladder(P, "+", w2, n - 1)
            w = float(rungs[-1])
            if abs(w - z) < 1e-14 * max(1.0, abs(z)):
                break
            z = w
        orbit = np.concatenate([[w1, w2], rungs])
        out.append(float(np.sum(np.log(P.deriv(orbit)))))
    return np.array(out)
