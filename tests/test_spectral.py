"""The deflated resolvent and the leading eigendata it is built from.

The Krylov eigendata are checked against dense LAPACK eigendecompositions,
the resolvent solve against a dense truncated Neumann sum of the deflated
operator, and the shift's Green-Kubo variance against the term-by-term
correlation series it replaced; all references live here.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from innerdyn.blaschke import BlaschkeMap
from innerdyn.errors import NoConvergence, NonDecaying
from innerdyn.shift import (PotentialSpec, SymbolicSystem, cylinder_operator,
                            pressure_derivs_shift, spectral_data)
from innerdyn import spectral, stochastic, transfer
from innerdyn.spectral import (_KRYLOV_DIM, deflated_resolvent, deflated_subleading,
                               dense_leading, leading_spectral_data, power_leading)
from innerdyn.observables import COS
from innerdyn.transfer import OperatorMatrix, assemble_operator

DEG3 = BlaschkeMap((0j, 0.4 + 0.3j, -0.3 - 0.5j), 0.7)
A09 = BlaschkeMap((0j, 0.9 + 0j))
FH = BlaschkeMap((0j, 0.5 + 0j))


class RealOperandsOnly:
    """A float64 matrix that refuses to be applied to anything but float64."""

    def __init__(self, a):
        self.a = a
        self.dtype = a.dtype
        self.shape = a.shape

    @property
    def T(self):
        return RealOperandsOnly(self.a.T)

    def __matmul__(self, u):
        assert u.dtype == np.float64, f"operand of dtype {u.dtype}"
        return self.a @ u

    # `0 - wrapper` defers to __rsub__: the dense resolvent matrix
    # I - mat + rho (x) w is built from the entries, not applied to an operand
    __array_ufunc__ = None

    def __rsub__(self, other):
        return other - self.a


def _neumann_sum(mat, lam, rho, weights, v, terms):
    """sum_{n < terms} Delta^n v for Delta = mat - lam * rho (x) weights."""
    delta = mat - lam * np.outer(rho, weights)
    total = v.astype(complex)
    term = total.copy()
    for _ in range(terms - 1):
        term = delta @ term
        total += term
    return total


def _gk_series(S, psi, lam, rho, weights, k_max=400):
    """<mu, phi^2> + 2 sum_{k>=1} <w, phi (M/lam)^k (rho phi)>, term by term."""
    basis = S.cylinder_words(psi.depth)
    vals = psi.vector(basis)
    mu = rho * weights
    mu = mu / np.sum(mu)
    phi = vals - float(np.dot(mu, vals))
    M = cylinder_operator(S, psi, 1.0, 0.0).real
    total = float(np.dot(mu, phi * phi))
    u = rho * phi
    for _ in range(k_max):
        u = (M @ u) / lam
        term = float(np.dot(weights, phi * u))
        total += 2.0 * term
        if abs(term) < 1e-16 * max(1.0, abs(total)):
            break
    return total


@given(st.integers(2, _KRYLOV_DIM + 32), st.integers(0, 2**32 - 1),
       st.floats(-np.pi, np.pi))
@settings(max_examples=30, deadline=None)
def test_leading_spectral_data_matches_lapack(n, seed, phase):
    # n <= 7 ends in breakdown at the full dimension before the first Ritz
    # check; for n > _KRYLOV_DIM the basis cannot span the space
    rng = np.random.default_rng(seed)
    mat = rng.uniform(0.1, 1.0, (n, n)) * np.exp(1j * phase)
    data = leading_spectral_data(mat)
    ev, vecs_left = np.linalg.eig(mat.T)
    order = np.argsort(-np.abs(ev))
    ev, left = ev[order], vecs_left[:, order[0]]
    assert abs(data.lam - ev[0]) <= 1e-12 * abs(ev[0])
    assert data.residual <= 1e-10
    assert np.max(np.abs(data.weights - left / np.sum(left))) <= 1e-9


@given(st.integers(3, _KRYLOV_DIM + 32), st.integers(0, 2**32 - 1),
       st.floats(0.2, 0.9), st.floats(0.1, np.pi - 0.1), st.booleans())
@settings(max_examples=30, deadline=None)
def test_real_leading_spectral_data_matches_lapack(n, seed, r, phi, pair):
    # Q B Q^-1 with B = diag(1, block, C): the block is r times a rotation
    # by phi (subleading pair r e^{+-i phi}) or diag(r, -r/2), and C has
    # spectral radius r/2; Q is orthogonal with mildly scaled columns
    rng = np.random.default_rng(seed)
    B = np.zeros((n, n))
    B[0, 0] = 1.0
    c, s_ = np.cos(phi), np.sin(phi)
    B[1:3, 1:3] = r * np.array([[c, -s_], [s_, c]]) if pair else np.diag([r, -r / 2])
    C = rng.uniform(-1.0, 1.0, (n - 3, n - 3))
    if n > 3:
        B[3:, 3:] = 0.5 * r * C / np.max(np.abs(np.linalg.eigvals(C)))
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0] * rng.uniform(1.0, 1.5, n)
    mat = Q @ B @ np.linalg.inv(Q)
    data = leading_spectral_data(mat)
    assert isinstance(data.lam, float)
    assert data.rho.dtype == data.weights.dtype == np.float64
    ev, vecs_left = np.linalg.eig(mat.T)
    order = np.argsort(-np.abs(ev))
    ev, left = ev[order], vecs_left[:, order[0]].real
    assert abs(ev[1].imag) > 0 if pair else ev[1].imag == 0
    assert abs(data.lam - ev[0]) <= 1e-12
    assert data.residual <= 1e-10
    # the left eigenvector has entries of both signs and may sum to nearly
    # zero, which scales the normalized weights up: compare relative to them
    want = left / np.sum(left)
    assert np.max(np.abs(data.weights - want)) <= 1e-9 * np.max(np.abs(want))


def _recording_arnoldi(monkeypatch):
    """Replace spectral._arnoldi by a wrapper; returns the list it appends
    (start dtype, matvecs) to, one entry per call."""
    calls = []
    arnoldi = spectral._arnoldi

    def recording(apply, v, *args, **kwargs):
        out = arnoldi(apply, v, *args, **kwargs)
        calls.append((v.dtype, out[3]))
        return out

    monkeypatch.setattr(spectral, "_arnoldi", recording)
    return calls


def test_real_s_gives_a_real_matrix_and_a_real_krylov_basis(monkeypatch):
    calls = _recording_arnoldi(monkeypatch)
    M = assemble_operator(BlaschkeMap((0j, 0.9 + 0j)), complex(1.5), None, 64)
    assert M.matrix.dtype == np.float64
    leading_spectral_data(M.matrix)
    assert [dt for dt, _ in calls] == [np.float64] * 2
    calls.clear()
    M = assemble_operator(BlaschkeMap((0j, 0.9 + 0j)), 1.5 + 0.5j, None, 64)
    assert M.matrix.dtype == np.complex128
    leading_spectral_data(M.matrix)
    assert [dt for dt, _ in calls] == [np.complex128] * 2
    S = SymbolicSystem.full_shift(3)
    psi = PotentialSpec.constant(S, -1.0)
    assert cylinder_operator(S, psi, complex(1.5)).dtype == np.float64
    assert cylinder_operator(S, psi, 1.5 + 0.5j).dtype == np.complex128


@pytest.mark.parametrize("a", [0.5, 0.9])
def test_gap_at_s1_is_the_derivative_at_the_fixed_point(a):
    # at s = 1 the subleading eigenvalue of z (z - a) / (1 - a z) is F'(0) = -a
    assert abs(transfer.circle_spectrum(BlaschkeMap((0j, a + 0j)), 1.0, None, 1024).gap
               - a) <= 1e-8


def test_real_operator_sees_only_real_operands(monkeypatch):
    # deg3 at s = 1: the subleading eigenvalues are a complex-conjugate
    # pair, so the deflated solve accepts a complex Ritz vector, applied to
    # its real and imaginary parts separately
    mat = assemble_operator(DEG3, 1.0, None, 128).matrix
    data = leading_spectral_data(RealOperandsOnly(mat))
    sub = deflated_subleading(RealOperandsOnly(mat), data.lam, data.rho, data.weights)
    ev = np.linalg.eigvals(mat)
    ev = ev[np.argsort(-np.abs(ev))]
    assert abs(ev[1].imag) > 0.1
    assert abs(data.lam - 1.0) <= 1e-12
    assert abs(sub / abs(data.lam) - abs(ev[1]) / abs(ev[0])) <= 1e-8
    want = stochastic.green_kubo_variance(FH, COS)
    assemble = stochastic.assemble_operator
    monkeypatch.setattr(stochastic, "assemble_operator", lambda *a: OperatorMatrix(
        RealOperandsOnly(assemble(*a).matrix), None, None))
    assert stochastic.green_kubo_variance(FH, COS) == want


def test_power_leading_restarts_from_the_ritz_vector():
    # r C + (1 - r) J / n for the cyclic shift C: lambda = 1 with the
    # constant eigenvector on both sides, and the other n - 1 eigenvalues on
    # the circle |z| = r, where no polynomial filter beats r^k; the start
    # vector's 1e-3 error needs about 200 steps at r = 0.9, more than one
    # basis holds. At r = 0.95 and 0.99 the Ritz residual estimate falls
    # about 700x and 9x per restart, slowly but fast enough for the budget,
    # so the projected-budget exit must not fire
    n = 200
    for r, restarts in ((0.9, 1), (0.95, 2), (0.99, 8)):
        mat = r * np.roll(np.eye(n), 1, axis=1) + (1.0 - r) / n
        for m in (mat, mat.T):
            lam, v, res, it = power_leading(m)[:4]
            assert it > restarts * _KRYLOV_DIM
            assert abs(lam - 1.0) < 1e-12 and res < 1e-10
            assert np.max(np.abs(v / v[0] - 1.0)) < 1e-10


def test_circle_spectrum_warm_start_spends_few_matvecs(monkeypatch):
    # a = 0.9, s = 1.5, N = 2048: the dense eigenfunction at N_c = 128,
    # interpolated to 2048 nodes, starts the one N-mode Arnoldi solve, which
    # a cold start on the dense matrix needs about 80 matvecs for; no dual
    # solve follows
    mat = assemble_operator(A09, 1.5, None, 2048).matrix
    lam, _, res = power_leading(mat)[:3]
    calls = _recording_arnoldi(monkeypatch)
    data = transfer.circle_spectrum(A09, 1.5, None, 2048)
    assert len(calls) == 1 and calls[0][0] == np.float64
    assert calls[0][1] <= 8
    # the acceptance of `_arnoldi` at tol 1e-13, which the cold solve met too
    accept = 1e-10 * max(1.0, abs(lam))
    assert res <= accept and data.residual <= accept
    assert abs(data.lam - lam) <= 1e-13 * abs(lam)
    assert abs(data.gap - 0.97966965168642) <= 1e-12
    assert data.gap_bound <= 1e-12


def test_dense_gap_does_not_collapse_at_a_small_lambda():
    # deg3 at s = 30: |lambda| = 1.4e-11 and |lambda_2 / lambda| = 0.94. The
    # collapse rule is relative to |lambda|; against 1e-8 * max(1, |lambda|)
    # this remainder would be called nilpotent and the gap read as 0
    mat = assemble_operator(DEG3, 30.0, None, 128).matrix
    ev = np.sort(np.abs(np.linalg.eigvals(mat)))[::-1]
    assert ev[0] < 1e-10
    gap = dense_leading(mat, want_rho=False)[2]
    assert abs(gap - ev[1] / ev[0]) <= 1e-12 and gap > 0.9


def test_krylov_matvecs_on_slow_mixing_operator():
    # a = 0.9, s = 1.5: lambda_2 / lambda_1 = -0.9797, so power iteration
    # needs over 1,000 matvecs here; a Krylov space needs under 200
    mat = assemble_operator(BlaschkeMap((0j, 0.9 + 0j)), 1.5, None, 1024).matrix
    lam, _, _, it = power_leading(mat)[:4]
    it_dual = power_leading(mat.T, seed=7)[3]
    assert it < 200 and it_dual < 200
    assert abs(lam - 0.88235263926932639) < 1e-9


@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.5, 1.0),
       st.floats(-np.pi, np.pi))
@settings(max_examples=40, deadline=None)
def test_deflated_resolvent_matches_neumann_sum(n, seed, scale, phase):
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.1, 1.0, (n, n))
    P *= scale / np.max(np.abs(np.linalg.eigvals(P)))
    mat = P * np.exp(1j * phase)
    # the Neumann sum converges at the rate |lambda_2|
    assume(np.sort(np.abs(np.linalg.eigvals(mat)))[-2] < 0.8)
    data = leading_spectral_data(mat)
    v = rng.uniform(-1.0, 1.0, n)
    got = deflated_resolvent(mat, data.lam, data.rho, data.weights, v)
    want = _neumann_sum(mat, data.lam, data.rho, data.weights, v, 300)
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("n", [5, 37, 512])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_deflated_resolvent_builds_one_system_matrix(n, kind):
    # the system I - mat + lam * rho (x) w is built in one N x N array, entry
    # for entry the direct formula, whose temporaries peaked at twice that
    rng = np.random.default_rng(n)
    mat = rng.uniform(0.0, 1.0, (n, n)) / n
    rho = rng.uniform(0.5, 1.5, n)
    w = rng.uniform(0.0, 1.0, n)
    lam = 0.7
    if kind == "complex":
        mat, rho, lam = mat * np.exp(0.3j), rho * (1.0 + 0.2j), 0.7 - 0.1j
    w = w / np.dot(w, rho)
    v = rng.uniform(-1.0, 1.0, n)
    want = np.linalg.solve(np.eye(n) - mat + lam * np.outer(rho, w), v)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = deflated_resolvent(mat, lam, rho, w, v)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    if n >= 512:
        assert peak < 1.25 * n * n * mat.itemsize


def test_deflated_resolvent_refuses_singular_system():
    # Delta = I - 1 (x) 1/3 keeps the eigenvalue 1, so I - Delta is singular
    with pytest.raises(NonDecaying):
        deflated_resolvent(np.eye(3), 1.0, np.ones(3), np.full(3, 1.0 / 3.0),
                           np.array([1.0, -1.0, 0.0]))


def test_power_leading_refuses_equal_modulus_pair():
    # eigenvalues +-1: the iterates alternate and the residual never drops
    with pytest.raises(NoConvergence):
        power_leading(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_power_leading_fails_fast_on_stalled_residual():
    # the Krylov space is the whole plane after two steps, its Ritz values
    # +-1 are exact, and their equal modulus ends the run at once
    t0 = time.perf_counter()
    with pytest.raises(NoConvergence, match="equal modulus"):
        power_leading(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert time.perf_counter() - t0 < 0.1


def test_deflated_subleading_reads_alternating_ratios():
    # the block [[0.5, 1], [0, -0.5]] squares to 0.25 I: the norm ratios
    # alternate forever, but the Ritz values +-0.5 have modulus |lambda_2|
    mat = np.zeros((3, 3))
    mat[0, 0] = 1.0
    mat[1:, 1:] = [[0.5, 1.0], [0.0, -0.5]]
    e1 = np.array([1.0, 0.0, 0.0])
    t0 = time.perf_counter()
    sub = deflated_subleading(mat, 1.0, e1, e1)
    assert time.perf_counter() - t0 < 0.1
    assert abs(sub - 0.5) < 1e-8


def test_deflated_subleading_fails_fast_on_equal_modulus_ring():
    # r C + (1 - r) J / n deflates to r C restricted to the mean-zero
    # vectors: 199 eigenvalues on the circle |z| = 0.9, where the Ritz
    # residual estimate falls about 3.5x per restart, too slowly for the
    # budget; the projection ends the run and names the top modulus
    n, r = 200, 0.9
    mat = r * np.roll(np.eye(n), 1, axis=1) + (1 - r) / n
    np.linalg.eigvals(mat[:8, :8])      # load LAPACK outside the timed call
    t0 = time.perf_counter()
    with pytest.raises(NoConvergence, match=r"top Ritz modulus 0\.89.*too slowly"):
        deflated_subleading(mat, 1.0, np.ones(n), np.ones(n) / n)
    assert time.perf_counter() - t0 < 0.5


def test_power_leading_slow_but_progressing_converges():
    # |lambda_2 / lambda_1| = 0.998 with a non-normal coupling: power
    # iteration needs thousands of steps, Arnoldi two and one residual check
    mat = np.array([[1.0, 0.3], [0.0, 0.998]])
    lam, v, res, it = power_leading(mat)[:4]
    assert it <= 3
    assert abs(lam - 1.0) < 1e-9 and res < 1e-10


@pytest.mark.parametrize("S,values", [
    (SymbolicSystem.full_shift(2),
     {(1, 1): -0.7, (1, 2): -1.1, (2, 1): -0.9, (2, 2): -1.6}),
    (SymbolicSystem(np.array([[1, 1], [1, 0]])), {(1,): -0.8, (2,): -1.3}),
], ids=["depth2", "golden"])
def test_shift_green_kubo_matches_correlation_series(S, values):
    psi = PotentialSpec(len(next(iter(values))), values)
    data = spectral_data(S, psi, 1.0)
    want = _gk_series(S, psi, data.lam.real, data.rho.real, data.weights.real)
    assert pressure_derivs_shift(S, psi).variance_gk == pytest.approx(want, rel=1e-14, abs=0)
