"""Monte-Carlo central-limit diagnostics and the Green-Kubo variance.

Orbit statistics of Birkhoff sums S_n h / sqrt(n) over Lebesgue-random seeds,
a Kolmogorov-Smirnov comparison with the Gaussian, and the asymptotic
variance in closed form from the composition operator f -> f o F
(`green_kubo_variance`).

For monomial maps theta -> d*theta the orbit point x = theta / (2*pi) at
step k is the window from digit k of a random base-d digit string, cut
into one uint64 word in exact arithmetic; for every degree `BlaschkeMap`
accepts (d < 2048) its double is within 1.75 eps of the exact x (the
digits past the window, the bits below a 53-bit shift, a rounded scale and
a product; see `_orbit_fractions`). The point is read only every
m = 1 + floor(7 / log2 d) steps (an anchor; m = 1 for d = 1 and d >= 129):
there z = exp(2*pi*i*x) comes from two 4096-entry tables within a few eps,
and in between z <- z**d is taken by multiplication, which leaves an error
of at most about d**(m-1) * eps <= 128 * eps before the next anchor. No
floating-point shadowing caveat applies. The digit string is drawn as the
window reaches it, two uint64 words per sample held at a time, so the
sampler's memory does not grow with n. Sample i reads only stream
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

from .blaschke import BlaschkeMap, _gap_and_log
from .circle import TWO_PI, circle_grid
from .errors import DegenerateVariance, InnerdynError, NonDecaying
from .rng import splitmix64, uniform_stream
from .transfer import _MAX_MODES


@dataclass
class BirkhoffSample:
    """S_n h / sqrt(n) over random seeds; exact_angles marks digit-window orbits."""

    n: int
    values: np.ndarray
    exact_angles: bool

    @property
    def samples(self) -> int:
        return len(self.values)


# smaller runs stay in one process: a fork costs milliseconds
_SPLIT_MIN_STEPS = 10**6


def _anchor_spacing(d: int) -> int:
    """Steps per exact anchor, m = 1 + floor(7 / log2 d), so d**(m-1) <= 128."""
    m = 1
    while d > 1 and d**m <= 128:
        m += 1
    return m


def _remainder(words: np.ndarray, d: np.uint64, out: np.ndarray) -> np.ndarray:
    """words mod d into the uint64 buffer out, as words - (words // d) * d.

    Exact, and several times faster than numpy's uint64 `%` by a scalar.
    """
    np.floor_divide(words, d, out=out)
    np.multiply(out, d, out=out)
    return np.subtract(words, out, out=out)


def _orbit_fractions(d: int, n: int, seed: int, lo: int, hi: int):
    """fraction(k): orbit points x in [0, 1] at step k of x -> d*x (mod 1).

    For samples lo..hi-1, as windows of each sample's digit string, held in
    uint64 words W_q of m base-e digits: the raw SplitMix64 words
    splitmix64(seed, i*nwords + q), nwords = (n*b + 64) // 64 + 2, for
    d = 2**b (e = 2, m = 64, step k at bit k*b), else the digits j < ndig =
    n + ceil(54 / log2 d) + 1, splitmix64(seed, i*ndig + j) mod d, packed
    with d**m < 2**64 and zero-filled (step k at digit k). The window at
    q*m + r is w = W_q or (W_q mod e**(m-r)) * e**r + W_{q+1} // e**(m-r),
    and x = (w >> s) * (2**s / e**m), s = bitlen(e**m - 1) - 53. This needs
    d < 2048, which `BlaschkeMap` enforces (fewer zeros than half its 4096
    lift cells): then e**m > 2**53 and s >= 1 (s = 1 at d = 1626). Error
    budget: the digits past the window and the bits below the shift lose
    < 2**s / e**m < 2**-52, the rounded scale 2**-53 and the product 2**-54
    (neither for d = 2**b, where w >> s has 53 bits and the scale is a power
    of two); so |x - exact| < 1.75 eps, 0.5 eps for d = 2**b.

    The words are streamed: W_q is drawn when a window first reaches it,
    into one of two rows (slot q mod 2), since a step reads W_q and
    W_{q+1}, so memory does not grow with n. Any k may be asked for; steps
    in increasing order draw each word once. Each call overwrites and
    returns one buffer.
    """
    e = 2 if d & (d - 1) == 0 else d
    m = max(j for j in range(1, 65) if e**j <= 2**64)
    s = (e**m - 1).bit_length() - 53
    power = [np.uint64(e**j) for j in range(m)]
    held = np.empty((2, hi - lo), dtype=np.uint64)
    tags = [-1] * 2
    if e == 2:
        b = d.bit_length() - 1
        first = np.arange(lo, hi, dtype=np.uint64) * np.uint64((n * b + 64) // 64 + 2)

        def draw(q, out):
            out[:] = splitmix64(seed, first + np.uint64(q))
    else:
        b, ndig = 1, n + int(np.ceil(54 / np.log2(d))) + 1
        first = np.arange(lo, hi, dtype=np.uint64) * np.uint64(ndig)
        digit = np.empty(hi - lo, dtype=np.uint64)

        def draw(q, out):
            out.fill(0)
            for j in range(q * m, min(q * m + m, ndig)):
                w = splitmix64(seed, first + np.uint64(j))
                np.multiply(_remainder(w, np.uint64(d), digit), power[m - 1 - j % m], out=digit)
                np.add(out, digit, out=out)

    def word(q):
        if tags[q % 2] != q:
            draw(q, held[q % 2])
            tags[q % 2] = q
        return held[q % 2]

    win, tail = np.empty((2, hi - lo), dtype=np.uint64)
    frac = np.empty(hi - lo)

    def window(p):
        q, r = divmod(p, m)
        if r == 0:
            return word(q)
        _remainder(word(q), power[m - r], win)
        np.multiply(win, power[r], out=win)
        np.floor_divide(word(q + 1), power[m - r], out=tail)
        return np.add(win, tail, out=win)

    def fraction(k):
        np.right_shift(window(k * b), s, out=win)
        return np.multiply(win.view(np.int64), 2**s / e**m, out=frac)
    return fraction


def _exp_tables():
    """T1[j] = exp(2*pi*i*j / 4096) and T2[j] = exp(2*pi*i*j / 2**24), j < 4096.

    T1 is unfolded from its first octant by exact symmetries (swaps and sign
    flips), so no table angle exceeds pi/4 and each entry is within about
    an ulp of the exact value.
    """
    t = TWO_PI / 4096 * np.arange(513)
    c, s = np.cos(t), np.sin(t)
    quarter = np.empty(1024, dtype=complex)
    quarter[:513] = c + 1j * s
    quarter[512:] = s[512:0:-1] + 1j * c[512:0:-1]  # exp(i(pi/2 - t))
    t1 = np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])
    t2 = np.exp(1j * (TWO_PI / 2**24) * np.arange(4096))
    return t1, t2


_EXP_T1, _EXP_T2 = _exp_tables()
_PHI_UNIT = TWO_PI * 2.0**-24  # phi = _PHI_UNIT * r


def _exp_2pi_i(x: np.ndarray, out: np.ndarray, tmp: np.ndarray, u: np.ndarray,
               index: np.ndarray) -> None:
    """out <- exp(2*pi*i*x) for x in [0, 1], without trigonometric calls.

    Tang's two-level table: with 2**24 * x = k + r, k integer, 0 <= r < 1,
    exp(2*pi*i*x) = T1[k >> 12] * T2[k mod 4096] * exp(i*phi) where
    phi = 2*pi*r / 2**24 < 3.75e-7, so exp(i*phi) = 1 - phi**2/2 + i*phi
    to within phi**3/6 < 9e-21. The split is exact in float64 (a power-of-
    two scaling and an integer part), and x = 1 wraps to T1[0]. Scratch:
    tmp (complex) and u (float64) of the shape of x, index (int64) with two
    rows of that length. Both indices are kept within [0, 4096]: numpy's
    "wrap" mode reduces an index by repeated subtraction, so a raw k would
    cost up to 4096 steps per element.
    """
    k, low = index
    np.multiply(x, 2.0**24, out=u)
    np.copyto(k, u, casting="unsafe")  # truncation is the floor: u >= 0
    np.subtract(u, k, out=u)
    np.bitwise_and(k, 4095, out=low)
    np.take(_EXP_T2, low, mode="wrap", out=out)
    np.right_shift(k, 12, out=k)
    np.take(_EXP_T1, k, mode="wrap", out=tmp)
    np.multiply(out, tmp, out=out)
    np.multiply(u, _PHI_UNIT, out=tmp.imag)
    np.multiply(u, u, out=u)
    u *= -0.5 * _PHI_UNIT**2
    np.add(u, 1.0, out=tmp.real)
    np.multiply(out, tmp, out=out)


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
    fraction = _orbit_fractions(d, n, seed, lo, hi)
    fz = getattr(h, "fn_z", None)
    m = _anchor_spacing(d)
    if fz is None or m == 1:  # no power steps, so z would buy nothing
        for k in range(n):
            acc += np.asarray(h(TWO_PI * fraction(k)), dtype=float)
        return
    z = np.empty(hi - lo, dtype=complex)
    base = np.empty_like(z)
    u = np.empty(hi - lo)
    index = np.empty((2, hi - lo), dtype=np.int64)
    for k in range(n):
        if k % m == 0:
            _exp_2pi_i(fraction(k), z, base, u, index)
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
        # the circle is radially repelling, so renormalize every step; two
        # real products by 1/|w| give the bytes of numpy's w / |w|, which
        # divides a complex by a real through the same reciprocal
        np.abs(w, out=modulus)
        np.divide(1.0, modulus, out=modulus)
        np.multiply(w.real, modulus, out=z.real)
        np.multiply(w.imag, modulus, out=z.imag)


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

    Monomial maps without rotation run on the digit-window iterator of the
    module docstring: h with an evaluator on z (`fn_z`) sees the anchors'
    table exponential and its powers, other observables see the window's
    angle at every step. Other maps iterate on the circle in double
    precision, which loses pointwise shadowing but not distributional
    statistics.
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
    return BirkhoffSample(n=n, values=values, exact_angles=exact)


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


def green_kubo_variance(F: BlaschkeMap, h) -> float:
    """Asymptotic variance c_0 + 2 sum_{n>=1} c_n of a one-harmonic h, in
    closed form.

    With F(0) = 0, f -> f o F is lower triangular on the monomials z^k with
    diagonal lambda^k, lambda = F'(0) (Koenigs; Cowen and MacCluer,
    Composition Operators on Spaces of Analytic Functions, 1995), and the
    cross terms vanish because F^n(0) = 0. So for h = m + c z^k + conj(c z^k)
    the n-step correlation is 2|c|^2 Re(q^n) with q = lambda^k, and
    sigma^2 = 2|c|^2 (1 - |q|^2) / |1 - q|^2. The denominator is taken as
    (1 - r)^2 + 4r sin^2(phase / 2), r = |q|, with log r from
    `blaschke._gap_and_log`, so the digits hold as |q| -> 1. c and k are
    read from h on 2K + 2 nodes, K its bandwidth; ValueError refuses a K
    whose grid would pass 4096 nodes and an h with a second harmonic above
    1e-9 |c|. A constant has variance 0. NonDecaying refuses a rotation,
    which has no spectral gap, before any work.
    """
    if F.is_rotation:
        raise NonDecaying("a rotation has no spectral gap: its correlations do not decay")
    K = h.bandwidth
    if 2 * K >= _MAX_MODES:
        raise ValueError(f"observable bandwidth {K} needs more than "
                         f"{2 * K} nodes; the grid stops at {_MAX_MODES}")
    c = np.abs(np.fft.rfft(h(circle_grid(2 * K + 2)))) / (2 * K + 2)
    c[0] = 0.0   # the mean does not enter the variance
    k = int(np.argmax(c))
    if c[k] == 0:
        return 0.0
    if np.count_nonzero(c > 1e-9 * c[k]) > 1:
        raise ValueError(f"observable {h.name} holds more than one harmonic")
    amp = 2.0 * float(c[k]) ** 2
    a = np.array(F.zeros[1:])
    if np.any(a == 0):   # lambda = 0: only c_0 is left
        return amp
    log_r = k * float(np.sum(_gap_and_log(a)[1]))
    phase = k * (F.rotation + float(np.sum(np.angle(-a))))
    return amp * -math.expm1(2 * log_r) / (
        math.expm1(log_r) ** 2 + 4 * math.exp(log_r) * math.sin(phase / 2) ** 2)
