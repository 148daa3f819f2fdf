"""Monte-Carlo central-limit diagnostics and the Green-Kubo variance.

Orbit statistics of Birkhoff sums S_n h / sqrt(n) over Lebesgue-random seeds,
a Kolmogorov-Smirnov comparison with the Gaussian, and the asymptotic
variance from the resolvent of the transfer operator. The resolvent is one
linear solve, `spectral.deflated_resolvent`, which the shift's Green-Kubo
variance and Poincare series share. For monomial maps the angle doubling is
iterated in 128-bit fixed point, so the sampled orbits are exact and no
floating-point shadowing caveat applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeMap, circle_grid
from .circle import TWO_PI
from .errors import DegenerateVariance
from .rng import splitmix64, uniform_stream
from .spectral import deflated_resolvent


@dataclass
class BirkhoffSample:
    """Values of S_n h / sqrt(n) over random seeds, with full provenance."""

    n: int
    values: np.ndarray
    seed: int
    observable: str
    map_label: str
    exact_angles: bool

    @property
    def samples(self) -> int:
        return len(self.values)


def _exact_monomial_angles(d: int, n: int, samples: int, seed: int):
    """Generator of exact orbit angles for theta -> d*theta (mod 2*pi).

    The orbit of a base-d fraction is the sequence of suffix windows of its
    digit string, so a pool of n + O(1) random digits per sample IS the exact
    fixed-point orbit; step k reads the window starting at digit k. For
    powers of two the windows are extracted directly from packed 64-bit
    words, otherwise a short Horner sum over base-d digits is used.
    """
    if d & (d - 1) == 0:
        m = d.bit_length() - 1  # d = 2^m
        total_bits = n * m + 64
        nwords = total_bits // 64 + 2
        idx = np.arange(samples, dtype=np.uint64)
        pool = np.empty((nwords, samples), dtype=np.uint64)
        for w in range(nwords):
            pool[w] = splitmix64(seed, idx * np.uint64(nwords) + np.uint64(w))
        for k in range(n):
            off = k * m
            q, r = divmod(off, 64)
            if r == 0:
                win = pool[q]
            else:
                win = (pool[q] << np.uint64(r)) | (pool[q + 1] >> np.uint64(64 - r))
            yield TWO_PI * (win >> np.uint64(11)).astype(np.float64) * 2.0**-53
    else:
        horizon = int(np.ceil(54 / np.log2(d))) + 1
        ndig = n + horizon
        idx = np.arange(samples, dtype=np.uint64)
        digits = np.empty((ndig, samples), dtype=np.float64)
        for j in range(ndig):
            w = splitmix64(seed, idx * np.uint64(ndig) + np.uint64(j))
            digits[j] = (w % np.uint64(d)).astype(np.float64)
        for k in range(n):
            frac = np.zeros(samples)
            for j in range(k + horizon - 1, k - 1, -1):
                frac = (frac + digits[j]) / d
            yield TWO_PI * frac


def birkhoff_samples(F: BlaschkeMap, h, n: int, samples: int, seed: int,
                     center: bool = True) -> BirkhoffSample:
    """S_n h / sqrt(n) over `samples` Lebesgue-random starting angles.

    h is mean-adjusted by subtracting its 4096-point quadrature mean. Sample
    i draws its randomness from stream position i, so results do not depend
    on batching. Monomial maps without rotation run on the exact digit-window
    iterator; other maps iterate on the circle in double precision, which
    loses pointwise shadowing but not distributional statistics.
    """
    if n * samples > 10**9:
        raise ValueError("n * samples exceeds the 1e9 step budget")
    mean = float(np.mean(np.asarray(h(circle_grid(4096)), dtype=float))) if center else 0.0
    acc = np.zeros(samples)
    if F.is_monomial and F.rotation == 0.0:
        for theta in _exact_monomial_angles(F.degree, n, samples, seed):
            acc += np.asarray(h(theta), dtype=float)
        exact = True
    else:
        theta0 = TWO_PI * uniform_stream(seed, samples)
        z = np.exp(1j * theta0)
        rot = np.exp(1j * F.rotation)
        hz = getattr(h, "on_circle", None)
        for _ in range(n):
            acc += np.asarray(hz(z) if hz is not None else h(np.angle(z)), dtype=float)
            w = np.full(samples, rot, dtype=complex)
            for a in F.zeros:
                w *= (z - a) / (1.0 - np.conj(a) * z)
            # the circle is radially repelling, so renormalize every step
            z = w / np.abs(w)
        exact = False
    values = (acc - n * mean) / np.sqrt(n)
    return BirkhoffSample(n=n, values=values, seed=seed,
                          observable=getattr(h, "name", "h"),
                          map_label=F.label(), exact_angles=exact)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF 0.5 * erfc(-x / sqrt(2)), elementwise.

    erfc keeps full relative accuracy in the lower tail, where 1 + erf
    would cancel to zero.
    """
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


def clt_diagnostics(sample: BirkhoffSample, sigma2: float) -> tuple[float, float]:
    """(KS distance to N(0, sigma2), sample variance / sigma2)."""
    if sigma2 < 1e-12:
        raise DegenerateVariance("variance is numerically zero (coboundary case)")
    x = np.sort(sample.values / np.sqrt(sigma2))
    m = len(x)
    cdf = normal_cdf(x)
    i = np.arange(1, m + 1)
    ks = float(max(np.max(i / m - cdf), np.max(cdf - (i - 1) / m)))
    var_ratio = float(np.var(sample.values, ddof=1) / sigma2)
    return ks, var_ratio


def correlation_sequence(F: BlaschkeMap, h, k_last: int, N: int = 512) -> np.ndarray:
    """c_k = int h (h o F^k) dm for k = 0..k_last, h mean-adjusted.

    Computed through the adjoint identity c_k = int (L^k h) h dm with the
    weightless collocation operator; L smooths, so no frequency blow-up
    occurs. The duality tests validate the identity independently.
    """
    from .transfer import assemble_operator  # local import, avoids a cycle
    grid = circle_grid(N)
    hv = np.asarray(h(grid), dtype=float)
    hv = hv - np.mean(hv)
    M = assemble_operator(F, 1.0, None, N)
    out = np.empty(k_last + 1)
    u = hv.astype(complex)
    out[0] = float(np.mean(hv * hv))
    for k in range(1, k_last + 1):
        u = M.apply(u)
        out[k] = float(np.mean((u * hv).real))
    return out


def green_kubo_variance(F: BlaschkeMap, h, N: int = 512) -> float:
    """Asymptotic variance c_0 + 2 sum_{k>=1} c_k by one resolvent solve.

    With L the weightless collocation operator and h mean-adjusted, the
    series sum_{k>=0} L^k h is the solution u of (I - L + 1 (x) m) u = h,
    where m is the Lebesgue mean; the rank-one term removes the eigenvalue 1
    of the constants, so the system is regular whenever L has a spectral
    gap. Then sigma^2 = <h, h> + 2 <h, L u>. NonDecaying is raised when the
    solve leaves a residual above 1e-10 * ||h||.
    """
    from .transfer import assemble_operator  # local import, avoids a cycle
    grid = circle_grid(N)
    hv = np.asarray(h(grid), dtype=float)
    hv = hv - np.mean(hv)
    L = assemble_operator(F, 1.0, None, N).matrix
    u = deflated_resolvent(L, 1, np.ones(N), np.full(N, 1.0 / N), hv)
    return float(np.mean(hv * hv) + 2.0 * np.mean(hv * (L @ u)).real)
