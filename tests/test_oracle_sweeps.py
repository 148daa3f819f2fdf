"""Subcommand routines against exact identities over their accepted inputs.

Each property draws inputs from the domain a routine accepts and checks it
against a closed form that needs no grid, so a wrong answer anywhere in
that domain, not only at a few pinned inputs, fails the suite.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from innerdyn.blaschke import BlaschkeMap, circle_grid, lyapunov_exponent
from innerdyn.observables import COS, cos_k
from innerdyn.spectral import deflated_resolvent, green_kubo
from innerdyn.stochastic import green_kubo_variance
from innerdyn.transfer import _preimage_weights, nufft_operator


def jensen_lyapunov(F: BlaschkeMap) -> float:
    """int log|F'| dm by Jensen's formula: log|F'(0)| plus log(1/|c|) over
    the critical points c of F in the disk.

    F = P / Q with P = e^{i rot} z prod (z - a) and Q = prod (1 - conj(a) z)
    over the zeros a != 0; F' is analytic on the closed disk, its zeros
    there are those of P'Q - PQ' inside it, and F'(0) = e^{i rot} prod (-a).
    """
    P, Q = np.poly1d([1.0, 0.0]), np.poly1d([1.0])
    for a in F.zeros[1:]:
        P *= np.poly1d([1.0, -a])
        Q *= np.poly1d([-np.conj(a), 1.0])
    crit = (P.deriv() * Q - P * Q.deriv()).roots
    inside = crit[np.abs(crit) < 1.0]
    assert len(inside) == F.degree - 1
    return float(np.sum(np.log(np.abs(F.zeros[1:]))) - np.sum(np.log(np.abs(inside))))


zero = st.builds(lambda r, phi: r * np.exp(1j * phi),
                 st.floats(0.05, 0.95), st.floats(0.0, 2 * np.pi))


@given(st.lists(zero, min_size=1, max_size=2), st.floats(0.0, 2 * np.pi))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_lyapunov_exponent_is_jensens_formula(zeros, rotation):
    F = BlaschkeMap((0j, *zeros), rotation)
    want = jensen_lyapunov(F)
    assert abs(lyapunov_exponent(F) - want) <= 1e-12 * abs(want)


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
