"""Reference Birkhoff sampler: the per-step loops the fast sampler replaced.

`exact_monomial_angles` reads the orbit angle from the digit window at every
step, and `oracle_birkhoff_values` evaluates h on that angle at every step
(monomial maps) or runs the allocate-per-step float loop (other maps). For
d = 2**b the window is cut from the raw words with shifts; for other d it is
summed from the digits `drawn_digits` returns, in Python integers, and
converted to a double as `stochastic._orbit_fractions` documents.
`eager_orbit_fractions` is that function as it was before its words were
streamed: it draws every word of every sample up front. The fast sampler in
`innerdyn.stochastic` is checked against these.
"""

import math

import numpy as np

from innerdyn.circle import circle_grid
from innerdyn.circle import TWO_PI
from innerdyn.rng import splitmix64, uniform_stream


def drawn_digits(d: int, n: int, seed: int, lo: int, hi: int) -> list:
    """Base-d digit strings of samples lo..hi-1, as lists of Python ints.

    Digit j of sample i is splitmix64(seed, i * ndig + j) mod d, for
    j < ndig = n + ceil(54 / log2 d) + 1.
    """
    ndig = n + math.ceil(54 / math.log2(d)) + 1
    idx = np.arange(lo, hi, dtype=np.uint64)
    cols = [(splitmix64(seed, idx * np.uint64(ndig) + np.uint64(j)) % np.uint64(d)).tolist()
            for j in range(ndig)]
    return [list(row) for row in zip(*cols)]


def _window_fractions(strings: list, d: int, n: int) -> np.ndarray:
    """The documented windows of steps 0..n-1 of each digit string, as doubles.

    w_k is the integer of the m digits from k (zeros past the string), with
    m the largest count such that d**m < 2**64, slid along the string in
    Python integers; x = (w_k >> s) * (2**s / d**m) with
    s = bitlen(d**m - 1) - 53, which is at least 0 for every d < 2048, the
    degrees `BlaschkeMap` accepts. One row per string.
    """
    m = max(j for j in range(1, 64) if d**j < 2**64)
    s = (d**m - 1).bit_length() - 53
    assert s >= 0, f"degree {d} needs a second window word"
    top, scale = d ** (m - 1), 2**s / d**m
    rows = []
    for digits in strings:
        padded = digits + [0] * m
        w = 0
        for g in padded[:m]:
            w = w * d + g
        windows = [w]
        for k in range(1, n):
            w = w % top * d + padded[k + m - 1]
            windows.append(w)
        rows.append([float(w >> s) * scale for w in windows])
    return np.array(rows)


def eager_orbit_fractions(d: int, n: int, seed: int, lo: int, hi: int):
    """fraction(k) of `stochastic._orbit_fractions`, from a pool of all the
    (nwords x samples) uint64 words drawn before the first step; numpy's
    `%` stands in for `stochastic._remainder`, which equals it."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    e = 2 if d & (d - 1) == 0 else d
    m = max(j for j in range(1, 65) if e**j <= 2**64)
    s = (e**m - 1).bit_length() - 53
    assert s >= 0, f"degree {d} needs a second window word"
    power = [np.uint64(e**j) for j in range(m)]
    if e == 2:
        b = d.bit_length() - 1
        nwords = (n * b + 64) // 64 + 2
        pool = np.empty((nwords, hi - lo), dtype=np.uint64)
        for w in range(nwords):
            pool[w] = splitmix64(seed, idx * np.uint64(nwords) + np.uint64(w))
    else:
        b, ndig = 1, n + int(np.ceil(54 / np.log2(d))) + 1
        pool = np.zeros((-(-ndig // m) + 1, hi - lo), dtype=np.uint64)
        for j in range(ndig):
            w = splitmix64(seed, idx * np.uint64(ndig) + np.uint64(j))
            pool[j // m] += (w % np.uint64(d)) * power[m - 1 - j % m]

    def window(p):
        q, r = divmod(p, m)
        if r == 0:
            return pool[q]
        return pool[q] % power[m - r] * power[r] + pool[q + 1] // power[m - r]

    def fraction(k):
        return (window(k * b) >> np.uint64(s)).view(np.int64) * (2**s / e**m)
    return fraction


def exact_monomial_fractions(d: int, n: int, samples: int, seed: int):
    """Generator of the orbit points x = theta / (2*pi) of x -> d*x (mod 1)."""
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
            yield (win >> np.uint64(11)).astype(np.float64) * 2.0**-53
    else:
        yield from _window_fractions(drawn_digits(d, n, seed, 0, samples), d, n).T


def exact_monomial_angles(d: int, n: int, samples: int, seed: int):
    """Generator of the orbit angles theta of theta -> d*theta (mod 2*pi)."""
    for x in exact_monomial_fractions(d, n, samples, seed):
        yield TWO_PI * x


def oracle_birkhoff_values(F, h, n: int, samples: int, seed: int) -> np.ndarray:
    """S_n h / sqrt(n), h centred, by the per-step reference loops."""
    mean = float(np.mean(np.asarray(h(circle_grid(4096)), dtype=float)))
    acc = np.zeros(samples)
    if F.is_monomial and F.rotation == 0.0:
        for theta in exact_monomial_angles(F.degree, n, samples, seed):
            acc += np.asarray(h(theta), dtype=float)
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
            z = w / np.abs(w)
    return (acc - n * mean) / np.sqrt(n)
