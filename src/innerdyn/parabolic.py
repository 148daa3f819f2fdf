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
`_inverse` is a safeguarded Newton iteration. Where a bracket ends at a pole
b of mass t it starts from the pole expansion x0 = b - t / (y - R_b), with R_b
the regular part of F at b, so the preimages of points far out in a tail,
such as the Kac stratum boundaries, take about three evaluations each;
elsewhere it starts from the bracket midpoint.

The Kac check builds its table of return-time strata once (`_KacStrata`) and
grows it in place as the cap grows: a larger cap costs only its new levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from .counting import _NODE_BUDGET, CountingLedger, _walk, refuse_oversize
from .errors import (BisectionFail, BudgetExceeded, NoConvergence,
                     NoReturnWithinCap, NotDoublyParabolic,
                     TailBoundExceeded)

_POLE_TOL = 1e-14
_RETURN_CAP = 10**6     # iterations first_return waits for a return
_MAX_AUTO_LEVEL = 64    # deepest core level _auto_level tries
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
    min(y, b_first) - a - 1 and below max(y, b_last) + a + 1. Next to a pole
    b of mass t, F(x) = R_b - t / (x - b) + O(x - b) with
    R_b = b - sum_{i != b} t_i / (b - b_i), so Newton starts from
    x0 = b - t / (y - R_b) when an end of the bracket is a pole and x0 lies
    inside the bracket, and from the bracket midpoint otherwise; a target far
    out in a tail then takes about three evaluations instead of a bisection
    down to the pole. An entry is done once its Newton step is below
    _ROOT_TOL * max(1, |x|) and below half the way to either bracket end, and
    it returns that step; BisectionFail is raised if any entry is not done
    within 200 steps.
    """
    lo, hi, y = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, y)))
    shape = y.shape
    a = P.mass
    bs = P.pole_locations
    ts = np.array([t for _, t in P.poles])
    xa = np.where(np.isfinite(lo), lo, np.minimum(y, bs[0]) - a - 1.0).ravel()
    xb = np.where(np.isfinite(hi), hi, np.maximum(y, bs[-1]) + a + 1.0).ravel()
    y = y.ravel()
    x = 0.5 * (xa + xb)
    gaps = bs[:, None] - bs[None, :]
    np.fill_diagonal(gaps, np.inf)
    R = bs - np.sum(ts / gaps, axis=1)
    with np.errstate(divide="ignore"):
        for end in (lo.ravel(), hi.ravel()):
            i = np.minimum(np.searchsorted(bs, end), len(bs) - 1)
            x0 = bs[i] - ts[i] / (y - R[i])
            x = np.where((bs[i] == end) & (xa < x0) & (x0 < xb), x0, x)
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


def first_return(P: ParabolicMap, X: tuple[float, float], x: float) -> ReturnEvent:
    """Iterate F, at most 1e6 times, until the orbit re-enters X, accumulating log|F'|."""
    lo, hi = X
    if not lo <= x <= hi:
        raise ValueError("start point must lie in the core interval")
    bs = P.pole_locations
    acc = 0.0
    y = float(x)
    for n in range(1, _RETURN_CAP + 1):
        if np.min(np.abs(y - bs)) < _POLE_TOL * max(1.0, abs(y)):
            raise NoReturnWithinCap("orbit hit a pole preimage")
        acc += float(P.log_deriv(y))
        y = float(P(y))
        if lo <= y <= hi:
            return ReturnEvent(start=float(x), return_point=y, return_time=n,
                               log_deriv=acc)
    raise NoReturnWithinCap(f"no return within {_RETURN_CAP} iterations")


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


_N_FINE = 1 << 14   # strata of deeper levels get the two-point rule


@dataclass
class KacReport:
    lhs: float
    rhs: float
    cap: int
    computed_mass: float       # total stratum length integrated directly
    tail_estimate: float       # extrapolated contribution beyond the cap
    tail_fraction: float       # tail_estimate / rhs
    caps: list                 # every cap tried, ending with cap

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


def _excursion_chain(P: ParabolicMap, side: str, chain: list, count: int):
    """The next `count` levels of a descent chain, grown in place.

    chain is [x, s, used]: x holds the last `_ladder` block of the chain,
    c points on each of its levels, pullbacks of fixed points of J_N under
    the descent diffeomorphism J_n -> J_N, s the accumulated log F' of the
    descent from them into X, and the first `used` levels of the block have
    been returned. The chain starts as one level, J_N itself, with s = 0.
    Returns (nodes, sums), each (c, count): the next levels, reading the
    rest of the block first and then solving whole blocks of _ORBIT_BLOCK
    levels, each from the last level of the one before. Blocks so end at
    fixed levels N + k _ORBIT_BLOCK, as in `boundary_orbit`, and every node
    and sum is the same whatever sequence of counts grew the chain. The
    excursion weight S varies across J_n by sum_m var(log F' | J_m) = O(1/n),
    so it is interpolated on each level from these few nodes.
    """
    x, s, used = chain
    take = min(count, len(x) - used)
    nodes, sums = [x[used: used + take]], [s[used: used + take]]
    used += take
    got = take
    while got < count:
        x = _ladder(P, side, x[-1], _ORBIT_BLOCK)
        s = np.cumsum(np.vstack([s[-1:], np.log(P.deriv(x))]), axis=0)[1:]
        used = min(_ORBIT_BLOCK, count - got)
        nodes.append(x[:used])
        sums.append(s[:used])
        got += used
    chain[:] = x, s, used
    return np.concatenate(nodes).T.copy(), np.concatenate(sums).T.copy()


def _interp_barycentric(xs: np.ndarray, ys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomial interpolation per column: nodes xs, values ys (c, m); x (g, m) -> (g, m).

    Barycentric form, laid out so that every sum runs over whole rows; a
    target on a node, where the form overflows, takes that node's value.
    """
    w = np.empty_like(xs)
    for j in range(len(xs)):
        w[j] = 1.0 / np.prod(xs[j] - np.delete(xs, j, axis=0), axis=0)
    out = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(len(x)):
            wd = w / (x[i] - xs)
            out[i] = np.sum(wd * ys, axis=0) / np.sum(wd, axis=0)
    i, k = np.nonzero(~np.isfinite(out))
    out[i, k] = ys[np.argmin(np.abs(x[i, k] - xs[:, k]), axis=0), k]
    return out


def _stratum_integrals(P: ParabolicMap, lo, hi, nodes, sums, rule) -> np.ndarray:
    """Gauss rule per stratum [lo_k, hi_k] for int log F' + S o F.

    F maps stratum k onto the level of column k of nodes, and S there is
    interpolated from nodes[:, k] and sums[:, k].
    """
    gl_x, gl_w = rule
    half = 0.5 * (hi - lo)
    pts = 0.5 * (lo + hi) + half * gl_x[:, None]
    f = np.log(P.deriv(pts)) + _interp_barycentric(nodes, sums, P(pts))
    return np.sum(gl_w[:, None] * f, axis=0) * half


@dataclass
class _BranchStrata:
    """Strata of one full branch exiting through one tail, levels N+1 .. cap.

    xb holds the preimages of p_N .. p_cap on the branch, so stratum k lies
    between xb[k] and xb[k+1], and F maps it onto J_{N+k+1}; contrib[k] is
    the integral of log Fhat' over it and lengths[k] its length.
    """

    lo: float
    hi: float
    pole_end: float
    xb: np.ndarray
    contrib: np.ndarray
    lengths: np.ndarray


class _KacStrata:
    """The return-time strata of X, built once and grown in place by cap.

    The strata that return after at most N steps are integrated at
    construction. Those exiting through a tail form one `_BranchStrata` per
    covering branch and side; `grow` adds only the levels in (old cap, new
    cap], continuing the descent chains from their last level. Levels up to
    _N_FINE get the q-point Gauss rule and a q-column chain; deeper levels,
    where a stratum's weight varies by O(1/n), get the two-point rule and a
    two-column chain.
    """

    def __init__(self, P: ParabolicMap, N: int, q: int):
        part = real_markov_partition(P, N)
        self.P, self.N, self.cap = P, N, N
        self.fine_rule, self.tail_rule = _gauss_nodes(q), _gauss_nodes(2)
        gl_x, gl_w = self.fine_rule
        core_lo, core_hi = part.core

        def gauss_log_deriv(lo, hi):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            pts = mid + half * gl_x
            return float(np.sum(gl_w * np.log(P.deriv(pts))) * half)

        self.fixed = 0.0
        self.fixed_mass = 0.0
        # single-stratum intervals J_m^{+-}, 2 <= m <= N (one F-step back into X)
        for m in range(2, N + 1):
            for lo, hi in (part.interval_plus(m), part.interval_minus(m)):
                self.fixed += gauss_log_deriv(lo, hi)
                self.fixed_mass += hi - lo
        # time-1 strata of the full branches (image clipped to X on covered sides)
        for blo, bhi, cl, cr in _full_branches(P, part):
            x_left = _inverse(P, blo, bhi, core_lo) if cl else blo
            x_right = _inverse(P, blo, bhi, core_hi) if cr else bhi
            self.fixed += gauss_log_deriv(x_left, x_right)
            self.fixed_mass += x_right - x_left

        self.sides = []
        for side in ("-", "+"):
            p = part.p_minus if side == "-" else part.p_plus
            mid, half = 0.5 * (p[N - 1] + p[N]), 0.5 * abs(p[N] - p[N - 1])
            chains = [[(mid + half * x)[None, :], np.zeros((1, len(x))), 1]
                      for x, _w in (self.fine_rule, self.tail_rule)]
            branches = [_BranchStrata(blo, bhi, blo if side == "-" else bhi,
                                      np.array([_inverse(P, blo, bhi, p[N])]),
                                      np.empty(0), np.empty(0))
                        for blo, bhi, cl, cr in _full_branches(P, part)
                        if (cl if side == "-" else cr)]
            self.sides.append((side, chains, branches))

    def grow(self, cap: int) -> None:
        """Extend every branch's strata to the levels N+1 .. cap."""
        P, old = self.P, self.cap
        if cap <= old:
            return
        nf = max(0, min(cap, _N_FINE) - old)     # new levels under the q-point rule
        for side, (fine, tail), branches in self.sides:
            p = boundary_orbit(P, side, cap + 1)
            nodes, sums = _excursion_chain(P, side, fine, nf)
            # the two-column chain keeps pace with the cap; only its levels
            # above _N_FINE are read
            t_nodes, t_sums = _excursion_chain(P, side, tail, cap - old)
            for br in branches:
                # preimages of p_{old+1} .. p_cap cut the new strata, solved a
                # block of levels at a time to keep the temporaries small
                for a in range(0, cap - old, _N_FINE):
                    b = min(cap - old, a + _N_FINE)
                    xb = _inverse(P, br.lo, br.hi, p[old + 1 + a: old + 1 + b])
                    ends = np.concatenate([br.xb[-1:], xb])
                    lo = np.minimum(ends[1:], ends[:-1])
                    hi = np.maximum(ends[1:], ends[:-1])
                    f = max(0, min(nf, b) - a)          # levels under the q-point rule
                    contrib = np.concatenate([
                        _stratum_integrals(P, lo[:f], hi[:f], nodes[:, a:a + f],
                                           sums[:, a:a + f], self.fine_rule),
                        _stratum_integrals(P, lo[f:], hi[f:], t_nodes[:, a + f:b],
                                           t_sums[:, a + f:b], self.tail_rule)])
                    br.xb = np.concatenate([br.xb, xb])
                    br.contrib = np.concatenate([br.contrib, contrib])
                    br.lengths = np.concatenate([br.lengths, hi - lo])
        self.cap = cap


def kac_check(P: ParabolicMap, N: int, quad_points: int = 12,
              tail_frac: float = 0.01, cap0: int = 10**4,
              cap_max: int = 2**20) -> KacReport:
    """Compare int_X log|Fhat'| dl against int_R log|F'| dl.

    The return-time strata of X are integrated by Gauss quadrature: q =
    quad_points points per stratum up to level 2^14 and two beyond, where
    the excursion weight is read from a two-column descent chain. The
    infinite families exiting through the tails are truncated at an
    adaptive cap, grown until the extrapolated tail contribution drops below
    tail_frac of the right-hand side, and the estimate is then added to the
    left-hand side. One `_KacStrata` table serves every cap: a larger cap
    computes only the levels beyond the last one. TailBoundExceeded is
    raised if no admissible cap exists.
    """
    rhs = lyapunov_integral(P)
    strata = _KacStrata(P, N, quad_points)
    cap = cap0
    caps = []
    while True:
        caps.append(cap)
        lhs, tail, mass = _kac_lhs(strata, cap)
        if tail <= tail_frac * rhs:
            return KacReport(lhs=lhs, rhs=rhs, cap=cap, computed_mass=mass,
                             tail_estimate=tail, tail_fraction=tail / rhs, caps=caps)
        if cap >= cap_max:
            raise TailBoundExceeded(
                f"estimated stratum tail {tail:.3e} above {tail_frac:.0%} of "
                f"rhs even at cap {cap}")
        # tail ~ cap^{-1/2} log cap: jump close to the admissible cap at once
        factor = (tail / (tail_frac * rhs)) ** 2
        cap = min(cap_max, int(cap * min(max(2.0, 1.5 * factor), 64.0)))


def _kac_lhs(strata: _KacStrata, cap: int):
    """(lhs, tail estimate, integrated mass) with the strata grown to cap.

    Beyond the cap each branch keeps the exact remaining mass, between its
    last stratum boundary and the pole, times a weight fitted as
    c0 + c1 log n to the strata of levels above cap / 8.
    """
    strata.grow(cap)
    total, mass_total, tail_total = strata.fixed, strata.fixed_mass, 0.0
    ns = np.arange(strata.N + 1, cap + 1, dtype=float)
    sel = ns > cap / 8
    A = np.vstack([np.ones(int(np.sum(sel))), np.log(ns[sel])]).T
    mean_ln = math.log(cap) + 2.0   # mean of ln n under the n^{-3/2} tail law
    for _side, _chains, branches in strata.sides:
        for br in branches:
            total += float(np.sum(br.contrib))
            mass_total += float(np.sum(br.lengths))
            rem = abs(br.xb[-1] - br.pole_end)
            mass_total += rem
            coef, *_ = np.linalg.lstsq(A, (br.contrib / br.lengths)[sel], rcond=None)
            tail_total += rem * float(coef[0] + coef[1] * mean_ln)
    return total + tail_total, tail_total, mass_total


# ---------------------------------------------------------------------------
# orbit counting for the induced system
# ---------------------------------------------------------------------------

def _auto_level(P: ParabolicMap, points) -> int:
    """Smallest level N <= 64 with X_N = [p_N^-, p_N^+] containing all the given points."""
    pp, pm = (boundary_orbit(P, side, _MAX_AUTO_LEVEL + 1) for side in "+-")
    fits = np.flatnonzero((pm[1:] <= min(points)) & (max(points) <= pp[1:]))
    if not len(fits):
        raise ValueError(f"points do not fit any core interval up to level {_MAX_AUTO_LEVEL}")
    return int(fits[0]) + 1


def parabolic_count(P: ParabolicMap, x: float, T: float, B,
                    N: int | None = None) -> CountingLedger:
    """Ledger of backward orbits of the first-return map with Birkhoff sums <= T.

    Events are pairs (S_k log|Fhat'|(z), z) over k-step Fhat-preimages z of
    x; B is a union of half-open intervals [lo, hi) inside the core X of
    level N (by default the first level whose core holds x and B), and an
    empty interval or one outside X raises ValueError. `counting._walk`
    prunes the tree at T, valid because every return adds at least
    log(inf_X F') > 0; excursion branches are pruned once their minimal
    increment exceeds the remaining budget. BudgetExceeded is raised before
    the walk if its predicted size exceeds the node budget of 1e7 events,
    and during it exactly when there are more events than that.
    """
    B = [(float(lo), float(hi)) for lo, hi in B]
    pts = [x] + [e for ab in B for e in ab]
    if N is None:
        N = _auto_level(P, pts)
    part = real_markov_partition(P, N)
    core_lo, core_hi = part.core
    if not core_lo <= x <= core_hi:
        raise ValueError("seed must lie in the core interval")
    for lo, hi in B:
        if not core_lo <= lo < hi <= core_hi:
            raise ValueError(f"interval [{lo}, {hi}) is empty or not inside the core "
                             f"X = [{core_lo}, {core_hi}] of level {N}")
    refuse_oversize(T, core_hi - core_lo, lyapunov_integral(P), _NODE_BUDGET)
    branches = _full_branches(P, part)
    pp, pm = part.p_plus, part.p_minus
    b_lo, b_hi = float(P.pole_locations[0]), float(P.pole_locations[-1])

    def children(y, acc):
        """(owner, z, acc + increment) for the children z of the nodes y.
        Only the excursion ladders are cut at T here; the walker prunes the
        other children."""
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
        owners, zs = [i], [_inverse(P, lo, hi, y[i])]
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
                    owners.append(np.broadcast_to(i, c.shape)[keep])
                    zs.append(z[keep])
                    vs.append(np.broadcast_to(base, c.shape)[keep] + c[keep])
                go = ~over.any(axis=0)
                i, w, base, descent = i[go], W[-1, go], base[go], L[-1, go]
        return np.concatenate(owners), np.concatenate(zs), np.concatenate(vs)

    locations, values = _walk(float(x), children, T, _NODE_BUDGET,
                              len(branches) + 2).events()
    member = np.full(len(values), not B)
    for lo, hi in B:
        member |= (locations >= lo) & (locations < hi)
    return CountingLedger.from_events(values, locations=locations,
                                      member_mask=member,
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
