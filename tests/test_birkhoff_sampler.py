"""The Birkhoff sampler against the per-step reference loops.

Monomial maps: anchored powers stay within 64 * d**(m-1) * eps * sqrt(n) of
the exact-angle loop, the table exponential at the anchors stays within
4 eps of a 50-digit `decimal` reference, and the base-d digits equal numpy's
`%`. The digit window is within 2**-51 of the exact fraction of the drawn
digits for every d, and for d = 2**b it equals the bit-window oracle byte
for byte. The words drawn as the window reaches them give the bytes of a
pool drawn up front, and a serial run holds under 180 bytes per sample.
Other maps: the in-place float loop is byte-identical to the
allocate-per-step loop. Splitting the samples over two processes changes no
byte, and a failed worker raises instead of returning zeros.
"""

import decimal
import math
import os
import signal
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innerdyn import stochastic
from innerdyn.blaschke import BlaschkeMap
from innerdyn.errors import InnerdynError
from innerdyn.observables import COS, SIN, cos_k, get_observable, sin_k
from innerdyn.stochastic import birkhoff_samples
from sampler_oracle import (drawn_digits, eager_orbit_fractions, exact_monomial_fractions,
                            oracle_birkhoff_values)

EPS = np.finfo(float).eps
# m = 1 + floor(7 / log2 d): the steps per exact anchor
ANCHOR_SPACING = {1: 1, 2: 8, 3: 5, 4: 4, 5: 4, 8: 3}

Z2 = BlaschkeMap.monomial(2)
Z3 = BlaschkeMap.monomial(3)
FH = BlaschkeMap((0j, 0.5 + 0j))
DEG3 = BlaschkeMap((0j, 0.4 + 0.3j, -0.3 - 0.5j), rotation=0.7)
A09 = BlaschkeMap((0j, 0.9 + 0j))


def test_anchor_spacing_rule():
    for d, m in ANCHOR_SPACING.items():
        assert stochastic._anchor_spacing(d) == m
    for d in range(2, 300):
        m = stochastic._anchor_spacing(d)
        assert d ** (m - 1) <= 128 < d**m
        assert m == 1 + math.floor(7 / math.log2(d))


@given(d=st.sampled_from([2, 3, 4, 5, 8]),
       obs=st.sampled_from(["cos", "sin", "cos2", "const:1"]),
       seed=st.integers(0, 2**31 - 1),
       n=st.integers(1, 64),
       samples=st.integers(2, 64))
def test_anchored_powers_match_exact_angles(d, obs, seed, n, samples):
    F = BlaschkeMap.monomial(d)
    h = get_observable(obs)
    got = birkhoff_samples(F, h, n, samples, seed)
    want = oracle_birkhoff_values(F, h, n, samples, seed)
    assert got.exact_angles
    bound = 64 * d ** (ANCHOR_SPACING[d] - 1) * EPS * math.sqrt(n)
    assert np.max(np.abs(got.values - want)) <= bound


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _exp_2pi_i_reference(x: float) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(cos, sin) of 2*pi*x for the double x, by a Taylor series at 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        xd = decimal.Decimal(x)
        t = 2 * _PI * (xd - xd.to_integral_value())  # |t| <= pi
        c, s, term, k = decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1), 0
        while abs(term) > decimal.Decimal("1e-55"):
            if k % 2 == 0:
                c += term if k % 4 == 0 else -term
            else:
                s += term if k % 4 == 1 else -term
            k += 1
            term = term * t / k
        return +c, +s


def _table_exp_error(xs) -> np.ndarray:
    """|table exp(2*pi*i*x) - reference| / eps, elementwise."""
    x = np.asarray(xs, dtype=float)
    out = np.empty(len(x), dtype=complex)
    stochastic._exp_2pi_i(x, out, np.empty_like(out), np.empty(len(x)),
                          np.empty((2, len(x)), dtype=np.int64))
    err = []
    for xi, z in zip(x, out):
        c, s = _exp_2pi_i_reference(float(xi))
        dc, ds = decimal.Decimal(z.real) - c, decimal.Decimal(z.imag) - s
        err.append(math.hypot(float(dc), float(ds)) / EPS)
    return np.array(err)


def test_table_exponential_at_table_boundaries():
    j = np.arange(4097)
    k = np.unique(np.r_[0, 1, 4095, 4096, 4097, 2**24 - 1,
                        np.linspace(0, 2**24, 251).astype(np.int64)])
    xs = np.r_[j / 4096, np.nextafter(j[1::16] / 4096, 0.0),
               k / 2**24, np.nextafter(k[1:] / 2**24, 0.0), 1.0 - 2.0**-53]
    assert np.max(_table_exp_error(xs)) <= 4.0
    out = np.empty(2, dtype=complex)
    stochastic._exp_2pi_i(np.array([0.0, 1.0]), out, np.empty_like(out), np.empty(2),
                          np.empty((2, 2), dtype=np.int64))
    assert np.array_equal(out, [1.0, 1.0])  # x = 1 wraps to T1[0]


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
def test_table_exponential_within_4_eps(xs):
    assert np.max(_table_exp_error(xs)) <= 4.0


@pytest.mark.parametrize("d", [3, 5, 7, 255])
def test_base_d_digits_equal_the_remainder(d):
    top = 2**64 - 1
    words = np.r_[np.random.default_rng(d).integers(0, top, 10**5, dtype=np.uint64,
                                                    endpoint=True),
                  np.array([0, 1, d - 1, d, top - d, top - 1, top], dtype=np.uint64)]
    got = stochastic._remainder(words, np.uint64(d), np.empty_like(words))
    assert np.array_equal(got, words % np.uint64(d))


@settings(max_examples=40)
@given(d=st.sampled_from([3, 5, 7, 130, 255, 257, 1627, 7133, 65537]),
       seed=st.integers(0, 2**31 - 1),
       n=st.integers(1, 48),
       k=st.integers(0, 47),
       lo=st.integers(0, 1000))
def test_window_within_2_eps_of_the_exact_fraction(d, seed, n, k, lo):
    # the exact orbit point at step k is the base-d fraction of the drawn
    # digits k .. ndig-1; a one-word window at d = 65537 misses it by up to
    # 16 eps, so large d need the second word
    k = min(k, n - 1)
    got = stochastic._orbit_fractions(d, n, seed, lo, lo + 4)(k)
    for x, digits in zip(got, drawn_digits(d, n, seed, lo, lo + 4)):
        tail = digits[k:]
        exact = Fraction(sum(g * d ** (len(tail) - 1 - j) for j, g in enumerate(tail)),
                         d ** len(tail))
        assert abs(Fraction(x) - exact) <= Fraction(1, 2**51)


@pytest.mark.parametrize("b", [0, 1, 2, 3, 7, 8])
def test_power_of_two_windows_equal_the_bit_window_oracle(b):
    # b = 3 and 7 do not divide 64, so windows straddle two words
    d, n, samples = 2**b, 150, 40
    fraction = stochastic._orbit_fractions(d, n, 17, 0, samples)
    for k, want in enumerate(exact_monomial_fractions(d, n, samples, 17)):
        assert fraction(k).tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3, 4, 5, 7, 8, 8191]),
       n=st.integers(1, 200),
       seed=st.integers(0, 2**31 - 1),
       lo=st.integers(0, 1000))
def test_streamed_words_equal_the_eager_pool(d, n, seed, lo):
    # the words are drawn as the window reaches them, three held at a time;
    # d = 8191 takes the two-word path, which reads W_q, W_q+1 and W_q+2
    fraction = stochastic._orbit_fractions(d, n, seed, lo, lo + 5)
    want = eager_orbit_fractions(d, n, seed, lo, lo + 5)
    for k in range(n):
        assert fraction(k).tobytes() == want(k).tobytes()
    again = stochastic._orbit_fractions(d, n, seed, lo, lo + 5)
    for k in (n - 1, 0, n // 2):
        assert again(k).tobytes() == want(k).tobytes()


def test_serial_sampler_memory_does_not_grow_with_n(monkeypatch):
    # z^2 at n = 1024 drew 19 words per sample up front (252 bytes per
    # sample traced); streamed, three are held, and the rest is the
    # per-sample buffers of the iterator
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 1)
    samples = 20000
    tracemalloc.start()
    try:
        birkhoff_samples(Z2, COS, 1024, samples, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / samples < 180


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("h", [COS, SIN], ids=["cos", "sin"])
def test_single_step_samples_match_exact_angles(d, h):
    # n = 1: only the anchor at k = 0, no power step
    F = BlaschkeMap.monomial(d)
    for seed in range(4):
        got = birkhoff_samples(F, h, 1, 2000, seed).values
        want = oracle_birkhoff_values(F, h, 1, 2000, seed)
        assert np.max(np.abs(got - want)) <= 4 * EPS


@pytest.mark.parametrize("d", [1, 130])
@pytest.mark.parametrize("h", [COS, cos_k(2)], ids=["cos", "cos2"])
def test_anchor_every_step_evaluates_h_on_the_exact_angle(d, h):
    # m = 1 (d = 1 or d >= 129): no power steps, so h sees the exact angle
    assert stochastic._anchor_spacing(d) == 1
    F = BlaschkeMap.monomial(d)
    got = birkhoff_samples(F, h, 30, 200, seed=5)
    assert got.values.tobytes() == oracle_birkhoff_values(F, h, 30, 200, 5).tobytes()


@pytest.mark.parametrize("h", [COS, SIN], ids=["cos", "sin"])
def test_identity_map_anchors_every_step(h):
    F = BlaschkeMap.monomial(1)
    got = birkhoff_samples(F, h, 40, 300, seed=4)
    assert np.array_equal(got.values, oracle_birkhoff_values(F, h, 40, 300, 4))


def _cos3(theta):
    return np.cos(3 * np.asarray(theta))


@pytest.mark.parametrize("F", [FH, DEG3, A09], ids=["FH", "deg3-rot0.7", "a0.9"])
@pytest.mark.parametrize("h", [COS, sin_k(2), _cos3], ids=["cos", "sin2", "bare-cos3"])
def test_float_path_bytes_match_reference_loop(F, h):
    got = birkhoff_samples(F, h, 60, 500, seed=9)
    assert not got.exact_angles
    assert np.array_equal(got.values, oracle_birkhoff_values(F, h, 60, 500, 9))


def test_first_harmonic_on_circle_is_a_view_of_z():
    z = np.exp(1j * np.linspace(-7.0, 7.0, 1001)) * (1 + 1e-13)
    assert np.array_equal(COS.on_circle(z), (z**1).real)
    assert np.array_equal(SIN.on_circle(z), (z**1).imag)
    assert np.array_equal(cos_k(1).on_circle(z), z.real)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("F", [Z2, Z3, FH], ids=["z2", "z3", "FH"])
def test_split_equals_serial(F, monkeypatch):
    n, samples = 250, 4001  # n * samples above the split threshold, odd halves
    assert n * samples >= stochastic._SPLIT_MIN_STEPS
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    split = birkhoff_samples(F, COS, n, samples, seed=21)
    assert forks == [1]
    monkeypatch.delattr(os, "fork")
    serial = birkhoff_samples(F, COS, n, samples, seed=21)
    assert split.values.tobytes() == serial.values.tobytes()
    assert split.exact_angles == serial.exact_angles == F.is_monomial


def test_no_split_while_another_thread_runs(monkeypatch):
    # a forked child could block on a lock the other thread holds
    forks = []
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1), raising=False)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = birkhoff_samples(Z2, COS, 250, 4000, seed=3)
    finally:
        release.set()
        other.join()
    assert forks == []
    monkeypatch.delattr(os, "fork")
    assert np.array_equal(got.values, birkhoff_samples(Z2, COS, 250, 4000, seed=3).values)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_worker_raises(how, monkeypatch):
    parent = os.getpid()
    real_block = stochastic._monomial_block

    def failing_in_child(*args):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("worker failure")
        real_block(*args)

    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(stochastic, "_monomial_block", failing_in_child)
    t0 = time.perf_counter()
    with pytest.raises(InnerdynError, match="worker"):
        birkhoff_samples(Z2, COS, 250, 4000, seed=1)
    assert time.perf_counter() - t0 < 5.0


def test_monomials_report_exact_angles():
    for d in (1, 2, 3, 4):
        assert birkhoff_samples(BlaschkeMap.monomial(d), COS, 8, 4, seed=0).exact_angles
    assert not birkhoff_samples(BlaschkeMap.monomial(2, rotation=0.3), COS, 8, 4,
                                seed=0).exact_angles


@pytest.mark.parametrize("n, samples", [(0, 100), (-3, 100), (10, 1), (10, 0)])
def test_degenerate_sizes_refused(n, samples):
    with pytest.raises(ValueError):
        birkhoff_samples(Z2, COS, n, samples, seed=1)
