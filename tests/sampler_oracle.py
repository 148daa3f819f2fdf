"""Reference Birkhoff sampler: the per-step loops the fast sampler replaced.

`exact_monomial_angles` reads the exact orbit angle from the digit window at
every step, and `oracle_birkhoff_values` evaluates h on that angle at every
step (monomial maps) or runs the allocate-per-step float loop (other maps).
The fast sampler in `innerdyn.stochastic` is checked against these.
"""

import numpy as np

from innerdyn.blaschke import circle_grid
from innerdyn.circle import TWO_PI
from innerdyn.rng import splitmix64, uniform_stream


def exact_monomial_angles(d: int, n: int, samples: int, seed: int):
    """Generator of exact orbit angles for theta -> d*theta (mod 2*pi)."""
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
