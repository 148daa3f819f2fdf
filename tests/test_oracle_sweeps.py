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
from innerdyn.observables import COS, cos_k, sin_k
from innerdyn.spectral import green_kubo
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
    # resolves
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
    # the closed form against one dense solve of the deflated resolvent of
    # the N-node collocation operator, built here from the matrix-free one;
    # up to |a| = 0.99 the grid's discretization error was at most 2.2e-14
    F = BlaschkeMap((0j, *zeros))
    N = max(512, 1 << (2 * k).bit_length())
    L = nufft_operator(*_preimage_weights(F, 1.0, None, N))
    rho, w = np.ones(N), np.full(N, 1.0 / N)
    want = green_kubo(L.dense(), rho, w, np.cos(k * circle_grid(N)))
    got = green_kubo_variance(F, cos_k(k))
    assert abs(got - want) <= 1e-12 * abs(want)


def mpmath_green_kubo(F: BlaschkeMap, k: int):
    """(sigma^2, |q|, |1 - q|) of a unit harmonic of frequency k, in 50-digit
    arithmetic from the same float zeros and rotation: q = F'(0)^k with
    F'(0) = e^{i rot} prod(-a) over the zeros after zeros[0], and
    sigma^2 = (1 - |q|^2) / (2 |1 - q|^2)."""
    with mpmath.workdps(50):
        lam = mpmath.expj(mpmath.mpf(F.rotation))
        for a in F.zeros[1:]:
            lam *= -mpmath.mpc(a.real, a.imag)
        q = lam**k
        sigma2 = (1 - abs(q) ** 2) / (2 * abs(1 - q) ** 2)
        return float(sigma2), float(abs(q)), float(abs(1 - q))


# 1 - |a| = 10^-x from 1 (a zero at 0) down to 1e-9, on the real line or off it
gap_zero = st.one_of(
    st.builds(lambda x, sign: complex(sign * (1 - 10 ** -x)),
              st.floats(0.0, 9.0), st.sampled_from([1, -1])),
    st.builds(lambda x, phi: complex((1 - 10 ** -x) * np.exp(1j * phi)),
              st.floats(0.0, 9.0), st.floats(0.0, 2 * np.pi)))


@given(st.integers(1, 2), st.lists(gap_zero, min_size=1, max_size=3),
       st.floats(0.0, 2 * np.pi), st.sampled_from([cos_k, sin_k]), st.integers(1, 2047))
@example(1, [1 - 1e-9], 0.0, cos_k, 1)
@example(1, [-(1 - 1e-6)], 0.0, cos_k, 1)
@example(1, [1 - 1e-9], 0.0, sin_k, 2047)
@example(2, [0.5], 1.0, cos_k, 3)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_green_kubo_is_the_composition_operator_closed_form(at_zero, zeros, rotation, harmonic, k):
    # the gate is the formula's condition number in the phase of q, plus
    # the k eps with which cos(k t) itself is read on the grid
    F = BlaschkeMap((0j,) * at_zero + tuple(zeros), rotation)
    want, r, gap = mpmath_green_kubo(F, k)
    got = green_kubo_variance(F, harmonic(k))
    assert abs(got - want) <= (1e-14 * (1 + k * r / gap) + k * 2.0**-52) * want
