"""Monte-Carlo central-limit diagnostics and the Green-Kubo variance.

Orbit statistics of Birkhoff sums S_n h / sqrt(n) over Lebesgue-random seeds,
a Kolmogorov-Smirnov comparison with the Gaussian, and the asymptotic
variance from the resolvent of the transfer operator. The resolvent is one
linear solve, `spectral.deflated_resolvent`, which the shift's Green-Kubo
variance and Poincare series share.

For monomial maps theta -> d*theta the orbit is read from 64-bit windows of
a random base-d digit string, so the orbit angles are exact. The angle is
taken from a window only every m = 1 + floor(7 / log2 d) steps (an anchor);
in between, z <- z**d is taken by multiplication, which leaves an error of
at most about d**(m-1) * eps <= 128 * eps before the next exact anchor. No
floating-point shadowing caveat applies. Sample i reads only stream
position i, so large runs are split over two processes with a result that
is byte-identical to the serial one.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import signal
import sys
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeMap, circle_grid
from .circle import TWO_PI
from .errors import DegenerateVariance, InnerdynError
from .rng import splitmix64, uniform_stream
from .spectral import deflated_resolvent


@dataclass
class BirkhoffSample:
    """Values of S_n h / sqrt(n) over random seeds, with full provenance.

    exact_angles is True for the digit-window iterator (monomial maps
    without rotation): the orbit angles are exact at every anchor step, and
    between anchors the orbit point is a power of the last anchor, within
    about d**(m-1) * eps of the exact one (see `birkhoff_samples`).
    """

    n: int
    values: np.ndarray
    seed: int
    observable: str
    map_label: str
    exact_angles: bool

    @property
    def samples(self) -> int:
        return len(self.values)


# smaller runs stay in one process: a fork costs milliseconds
_SPLIT_MIN_STEPS = 10**6
_GREEN_KUBO_NODES = 512


def _anchor_spacing(d: int) -> int:
    """Steps per exact anchor, m = 1 + floor(7 / log2 d), so d**(m-1) <= 128."""
    m = 1
    while d > 1 and d**m <= 128:
        m += 1
    return m


def _orbit_angles(d: int, n: int, seed: int, lo: int, hi: int):
    """angle(k): exact orbit angles at step k of theta -> d*theta (mod 2*pi).

    For samples lo..hi-1. The orbit of a base-d fraction is the sequence of
    suffix windows of its digit string, so a pool of n + O(1) random digits
    per sample IS the exact orbit; step k reads the 64-bit window starting
    at digit k and rounds it to a double. For powers of two the windows are
    cut from packed 64-bit words, otherwise a Horner sum over the base-d
    digits (uint8 for d <= 256) builds them.
    """
    idx = np.arange(lo, hi, dtype=np.uint64)
    if d & (d - 1) == 0:
        b = d.bit_length() - 1  # d = 2^b
        nwords = (n * b + 64) // 64 + 2
        pool = np.empty((nwords, hi - lo), dtype=np.uint64)
        for w in range(nwords):
            pool[w] = splitmix64(seed, idx * np.uint64(nwords) + np.uint64(w))

        def angle(k):
            q, r = divmod(k * b, 64)
            if r == 0:
                win = pool[q]
            else:
                win = (pool[q] << np.uint64(r)) | (pool[q + 1] >> np.uint64(64 - r))
            return TWO_PI * (win >> np.uint64(11)).astype(np.float64) * 2.0**-53
    else:
        horizon = int(np.ceil(54 / np.log2(d))) + 1
        ndig = n + horizon
        digits = np.empty((ndig, hi - lo), dtype=np.min_scalar_type(d - 1))
        for j in range(ndig):
            w = splitmix64(seed, idx * np.uint64(ndig) + np.uint64(j))
            digits[j] = w % np.uint64(d)

        def angle(k):
            frac = np.zeros(hi - lo)
            for j in range(k + horizon - 1, k - 1, -1):
                frac = (frac + digits[j]) / d
            return TWO_PI * frac
    return angle


def _power(z: np.ndarray, d: int, base: np.ndarray) -> None:
    """z <- z**d in place by square-and-multiply; base is scratch space."""
    bits = bin(d)[3:]
    if "1" in bits:
        np.copyto(base, z)
    for bit in bits:
        np.multiply(z, z, out=z)
        if bit == "1":
            np.multiply(z, base, out=z)


def _monomial_block(d: int, h, n: int, seed: int, lo: int, hi: int, acc: np.ndarray) -> None:
    """acc += S_n h over samples lo..hi-1 of theta -> d*theta, digit-window orbits."""
    angle = _orbit_angles(d, n, seed, lo, hi)
    fz = getattr(h, "fn_z", None)
    if fz is None:
        for k in range(n):
            acc += np.asarray(h(angle(k)), dtype=float)
        return
    m = _anchor_spacing(d)
    z = np.empty(hi - lo, dtype=complex)
    base = np.empty_like(z)
    for k in range(n):
        if k % m == 0:
            theta = angle(k)
            z.real = np.cos(theta)
            z.imag = np.sin(theta)
        else:
            _power(z, d, base)
        acc += np.asarray(fz(z), dtype=float)


def _float_block(F: BlaschkeMap, h, n: int, seed: int, lo: int, hi: int,
                 acc: np.ndarray) -> None:
    """acc += S_n h over samples lo..hi-1, orbits iterated in double precision."""
    theta0 = TWO_PI * uniform_stream(seed, hi - lo, offset=lo)
    z = np.exp(1j * theta0)
    rot = np.exp(1j * F.rotation)
    hz = getattr(h, "on_circle", None)
    w = np.empty_like(z)
    factor = np.empty_like(z)
    den = np.empty_like(z)
    modulus = np.empty(hi - lo)
    for _ in range(n):
        acc += np.asarray(hz(z) if hz is not None else h(np.angle(z)), dtype=float)
        w.fill(rot)
        for a in F.zeros:
            # w *= (z - a) / (1 - conj(a) z), in this order: the orbit is
            # chaotic, so any reordering changes the samples. For a = 0 the
            # factor is z to the last bit, so it is used as it stands.
            if a == 0:
                w *= z
                continue
            np.subtract(z, a, out=factor)
            np.multiply(np.conj(a), z, out=den)
            np.subtract(1.0, den, out=den)
            np.divide(factor, den, out=factor)
            w *= factor
        # the circle is radially repelling, so renormalize every step
        np.abs(w, out=modulus)
        np.divide(w, modulus, out=z)


def _usable_cpus() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else (os.cpu_count() or 1)


def _accumulate(block, n: int, samples: int) -> np.ndarray:
    """Birkhoff sums of samples 0..samples-1, computed by block(lo, hi, acc).

    Sample i reads only stream position i, so the halves are independent:
    with fork available, two usable CPUs, n * samples >= 1e6 and no other
    Python thread alive (a forked child could block on a lock one holds), a
    child process computes the upper half into shared memory while this
    process computes the lower half. The result equals the serial one byte
    for byte.
    """
    acc = np.zeros(samples)
    if not (hasattr(os, "fork") and _usable_cpus() >= 2 and threading.active_count() == 1
            and n * samples >= _SPLIT_MIN_STEPS):
        block(0, samples, acc)
        return acc
    half = samples // 2
    with mmap.mmap(-1, (samples - half) * acc.itemsize) as shared:
        pid = os.fork()
        if pid == 0:  # the child: never return into the caller's code
            status = 1
            try:
                block(half, samples, np.frombuffer(shared, dtype=np.float64))
                status = 0
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(status)
        try:
            block(0, half, acc[:half])
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise InnerdynError(f"Birkhoff worker for samples {half}..{samples - 1} "
                                f"failed (wait status {status})")
        acc[half:] = np.frombuffer(shared, dtype=np.float64)
    return acc


def check_sample_size(n: int, samples: int) -> None:
    """ValueError unless n >= 1, samples >= 2 and n * samples <= 1e9.

    A zero-length orbit or a single sample has no variance; the step budget
    bounds the run time.
    """
    if n < 1 or samples < 2:
        raise ValueError("need n >= 1 and samples >= 2")
    if n * samples > 10**9:
        raise ValueError("n * samples exceeds the 1e9 step budget")


def birkhoff_samples(F: BlaschkeMap, h, n: int, samples: int, seed: int) -> BirkhoffSample:
    """S_n h / sqrt(n) over `samples` Lebesgue-random starting angles.

    h is mean-adjusted by subtracting its 4096-point quadrature mean. Sample
    i draws its randomness from stream position i, so results do not depend
    on batching, nor on whether the samples are split over two processes.

    Monomial maps without rotation run on the exact digit-window iterator.
    When h has an evaluator on z (`fn_z`), the angle is taken exactly from
    the window only at anchor steps k = 0, m, 2m, ... with
    m = 1 + floor(7 / log2 d) (m = 8 for d = 2, 5 for d = 3, 1 for d = 1),
    and z <- z**d by multiplication in between; a point m - 1 steps past an
    anchor carries an error of at most about d**(m-1) * eps <= 128 * eps.
    Other observables are evaluated on the exact angle at every step. Other
    maps iterate on the circle in double precision, which loses pointwise
    shadowing but not distributional statistics.
    """
    check_sample_size(n, samples)
    mean = float(np.mean(np.asarray(h(circle_grid(4096)), dtype=float)))
    exact = F.is_monomial and F.rotation == 0.0
    if exact:
        block = functools.partial(_monomial_block, F.degree, h, n, seed)
    else:
        block = functools.partial(_float_block, F, h, n, seed)
    acc = _accumulate(block, n, samples)
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
    u = hv
    out[0] = float(np.mean(hv * hv))
    for k in range(1, k_last + 1):
        u = M.apply(u)
        out[k] = float(np.mean(u * hv))
    return out


def green_kubo_variance(F: BlaschkeMap, h) -> float:
    """Asymptotic variance c_0 + 2 sum_{k>=1} c_k by one resolvent solve.

    With L the weightless collocation operator on N = 512 nodes and h
    mean-adjusted, the series sum_{k>=0} L^k h is the solution u of
    (I - L + 1 (x) m) u = h, where m is the Lebesgue mean; the rank-one term
    removes the eigenvalue 1 of the constants, so the system is regular
    whenever L has a spectral gap. Then sigma^2 = <h, h> + 2 <h, L u>.
    NonDecaying is raised when the solve leaves a residual above
    1e-10 * ||h||.
    """
    from .transfer import assemble_operator  # local import, avoids a cycle
    N = _GREEN_KUBO_NODES
    grid = circle_grid(N)
    hv = np.asarray(h(grid), dtype=float)
    hv = hv - np.mean(hv)
    L = assemble_operator(F, 1.0, None, N).matrix
    u = deflated_resolvent(L, 1, np.ones(N), np.full(N, 1.0 / N), hv)
    return float(np.mean(hv * hv) + 2.0 * np.mean(hv * (L @ u)))
