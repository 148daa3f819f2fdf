"""Subcommand routines against exact identities over their accepted inputs.

Each property draws inputs from the domain a routine accepts and checks it
against a closed form that needs no grid, so a wrong answer anywhere in
that domain, not only at a few pinned inputs, fails the suite.
"""

import mpmath
import numpy as np
from hypothesis import example, given, settings, strategies as st

from innerdyn.blaschke import BlaschkeMap, circle_abs_deriv, lyapunov_exponent
from innerdyn.circle import circle_grid
from innerdyn.observables import COS, cos_k
from innerdyn.spectral import deflated_resolvent, green_kubo
from innerdyn.stochastic import green_kubo_variance
from innerdyn.transfer import _preimage_weights, nufft_operator


def jensen_lyapunov(F: BlaschkeMap) -> float:
    """int log|F'| dm by Jensen's formula, in 60-digit arithmetic.

    F = e^{i rot} z^m R / Q with R = prod (z - a) and Q = prod (1 - conj(a) z)
    over the zeros a != 0, so |F'| = |G| / |Q|^2 on the circle with
    G = m R Q + z (R'Q - R Q'). Q has no zero in the disk and Q(0) = 1, so
    the integral is log|G(0)| = log(m prod|a|) minus log|c| over the roots
    c of G in the disk: as many as the zeros a != 0.
    """
    with mpmath.workdps(60):
        m = F.zeros.count(0j)
        zeros = [mpmath.mpc(a.real, a.imag) for a in F.zeros if a]
        R, Q = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for a in zeros:
            R = _mul(R, [1, -a])
            Q = _mul(Q, [-mpmath.conj(a), 1])
        G = _add([m * x for x in _mul(R, Q)],
                 _mul([1, 0], _add(_mul(_deriv(R), Q), [-x for x in _mul(R, _deriv(Q))])))
        inside = sorted(mpmath.polyroots(G, maxsteps=200, extraprec=200), key=abs)[:len(zeros)]
        assert max(abs(c) for c in inside) < 1
        return float(mpmath.log(m) + sum(mpmath.log(abs(a)) for a in zeros)
                     - sum(mpmath.log(abs(c)) for c in inside))


def _mul(p, q):
    """Product of two coefficient lists, highest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _add(p, q):
    p, q = [0] * (len(q) - len(p)) + list(p), [0] * (len(p) - len(q)) + list(q)
    return [x + y for x, y in zip(p, q)]


def _deriv(p):
    return [x * (len(p) - 1 - i) for i, x in enumerate(p[:-1])]


# |a| = 1 - 10^-x: from 0.07 to 1 - 1e-9, within 1e-5 of the circle in
# almost half of the draws
zero = st.builds(lambda x, phi: (1 - 10 ** -x) * np.exp(1j * phi),
                 st.floats(0.03, 9.0), st.floats(0.0, 2 * np.pi))


@given(st.integers(1, 3), st.lists(zero, min_size=1, max_size=3), st.floats(0.0, 2 * np.pi))
@example(1, [1 - 1e-9, 0.3], 0.0)
@example(1, [0.5, 0.5], 0.0)
@example(2, [0.5], 1.0)
@example(3, [0.5j, -0.3], 0.0)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_lyapunov_exponent_is_jensens_formula(at_zero, zeros, rotation):
    # against the 60-digit polynomial oracle everywhere, and against a
    # 2^16-node trapezoid rule where every zero is within 0.99
    F = BlaschkeMap((0j,) * at_zero + tuple(zeros), rotation)
    got, want = lyapunov_exponent(F), jensen_lyapunov(F)
    assert abs(got - want) <= 1e-12 * abs(want)
    if max(abs(a) for a in zeros) <= 0.99:
        trapezoid = float(np.mean(np.log(circle_abs_deriv(F, circle_grid(1 << 16)))))
        assert abs(trapezoid - want) <= 1e-12 * abs(want)


@given(st.floats(-0.9, 0.999))
@example(-0.9)
@example(-0.5)
@example(0.5)
@example(0.9)
@example(0.97)
@example(0.99)
@example(0.999)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_green_kubo_is_the_closed_form_of_the_two_zero_map(a):
    # for F = z (z - a) / (1 - a z) the k-step correlation of cos is
    # (1/2) F'(0)^k = (1/2) (-a)^k, which sums to (1 - a) / (2 (1 + a)):
    # 9.5 at a = -0.9, 2.5e-4 at a = 0.999, where the correlations decay
    # slowest
    want = (1 - a) / (2 * (1 + a))
    got = green_kubo_variance(BlaschkeMap((0j, complex(a))), COS)
    assert abs(got - want) <= 1e-11 * want


@given(st.sampled_from([2, 3]), st.integers(1, 2047))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_green_kubo_of_every_harmonic_under_a_monomial_is_one_half(d, k):
    # z^d maps cos(k t) to cos(d k t), orthogonal to cos(k t) and to every
    # later image, so sigma^2 = c_0 = 1/2 for every k the largest grid
    # resolves; k >= 1024 takes 4096 nodes, where a few corrections on the
    # 32-node grid certify every draw
    assert abs(green_kubo_variance(BlaschkeMap.monomial(d), cos_k(k)) - 0.5) <= 1e-12


@given(st.lists(st.builds(lambda r, phi: r * np.exp(1j * phi),
                          st.floats(0.0, 0.99), st.floats(0.0, 2 * np.pi)),
                min_size=1, max_size=3),
       st.integers(1, 1000))
@example([0.95j], 100)
@example([0.99], 50)
@example([0.9], 1000)
@settings(max_examples=8, deadline=None, derandomize=True)
def test_green_kubo_matches_the_dense_resolvent(zeros, k):
    # the two-grid solve against one dense solve of the N-node system that
    # it avoids, on the same grid and the same matrix-free operator; without
    # its corrections, sigma^2 is 7e-5 and 0.46 relative off on the first two
    # examples, and the third takes 58 of them
    F = BlaschkeMap((0j, *zeros))
    N = max(512, 1 << (2 * k).bit_length())
    L = nufft_operator(*_preimage_weights(F, 1.0, None, N))
    rho, w = np.ones(N), np.full(N, 1.0 / N)
    dense = L.dense()
    want = green_kubo(L, rho, w, np.cos(k * circle_grid(N)),
                      lambda v: deflated_resolvent(dense, 1, rho, w, v))
    got = green_kubo_variance(F, cos_k(k))
    assert abs(got - want) <= 1e-12 * abs(want)
