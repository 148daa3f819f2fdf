"""Collocation transfer operators: spectra, pressure, equilibrium measures."""

import numpy as np
import pytest

from innerdyn.blaschke import BlaschkeMap, angle_map
from innerdyn.circle import circle_grid
from innerdyn.observables import COS, Observable, constant
from innerdyn.spectral import deflated_subleading, leading_spectral_data
from innerdyn.stochastic import green_kubo_variance
from innerdyn.transfer import (assemble_operator, conformal_equilibrium,
                               equilibrium_invariance_defect, pressure_and_derivs)

F2 = BlaschkeMap.monomial(2)
F3 = BlaschkeMap.monomial(3)
FH = BlaschkeMap((0j, 0.5 + 0j))
GK_FH_COS = 1.0 / 6.0    # closed form: c_k = (1/2)(-1/2)^k, summed


def test_unit_mass_invariant():
    for F in (F2, F3, FH):
        M = assemble_operator(F, 1.0, None, 128).matrix
        assert np.max(np.abs(M @ np.ones(128) - 1.0)) < 1e-10


def test_monomial_mode_collapse():
    # e_n maps to e_{n/d} when d | n and dies otherwise
    N = 64
    M = assemble_operator(F2, 1.0, None, N)
    grid = circle_grid(N)
    out = M.matrix @ np.exp(4j * grid)
    assert np.max(np.abs(out - np.exp(2j * grid))) < 1e-10
    out = M.matrix @ np.exp(3j * grid)
    assert np.max(np.abs(out)) < 1e-10


def test_monomial_constant_mode_scaling():
    # weight |F'|^{-s} scales the constant by d^{1-s}
    M = assemble_operator(F2, 2.0, None, 64)
    out = M.matrix @ np.ones(64)
    assert np.max(np.abs(out - 0.5)) < 1e-12
    assert leading_spectral_data(M.matrix).lam == pytest.approx(0.5, abs=1e-10)


def test_duality_with_composition():
    # <L u, v> = <u, v o F> for the L^2 pairing at N = 512
    N = 512
    grid = circle_grid(N)
    M = assemble_operator(FH, 1.0, None, N)
    rng = np.random.default_rng(0)
    img = angle_map(FH, grid)
    for _ in range(5):
        cu = rng.normal(size=7) + 1j * rng.normal(size=7)
        cv = rng.normal(size=7) + 1j * rng.normal(size=7)
        u = sum(c * np.exp(1j * k * grid) for k, c in zip(range(-3, 4), cu))
        v = sum(c * np.exp(1j * k * grid) for k, c in zip(range(-3, 4), cv))
        vF = sum(c * np.exp(1j * k * img) for k, c in zip(range(-3, 4), cv))
        lhs = np.mean((M.matrix @ u) * np.conj(v))
        rhs = np.mean(u * np.conj(vF))
        assert abs(lhs - rhs) < 1e-9


def test_mean_preservation():
    N = 256
    grid = circle_grid(N)
    M = assemble_operator(FH, 1.0, None, N)
    u = np.cos(grid) + 0.3 * np.sin(2 * grid) + 0.7
    assert np.mean(M.matrix @ u) == pytest.approx(np.mean(u), abs=1e-11)


@pytest.mark.parametrize("F", [F2, F3, FH], ids=["z2", "z3", "fh"])
def test_leading_eigenvalue_is_one(F):
    data = leading_spectral_data(assemble_operator(F, 1.0, None, 256).matrix)
    assert abs(data.lam - 1.0) < 1e-10
    assert data.residual < 1e-8
    assert np.all(data.rho.real > 0)
    assert np.sum(data.weights) == pytest.approx(1.0, abs=1e-10)


def test_uniform_conformal_weights_for_lebesgue():
    data = leading_spectral_data(assemble_operator(F2, 1.0, None, 64).matrix)
    assert np.max(np.abs(data.weights - 1.0 / 64)) < 1e-10
    assert np.max(np.abs(data.rho - 1.0)) < 1e-8


@pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
def test_subleading_linearizer_spectrum(a):
    # spectrum of the adjoint pair is {1} and powers of F'(0) = -a
    F = BlaschkeMap((0j, a + 0j))
    M = assemble_operator(F, 1.0, None, 256)
    assert leading_spectral_data(M.matrix).gap == pytest.approx(a, abs=1e-3)


def test_subleading_collapses_for_monomial():
    M = assemble_operator(F2, 1.0, None, 256).matrix
    S = leading_spectral_data(M)
    assert deflated_subleading(M, S.lam, S.rho, S.weights) < 1e-6


def test_gap_field_collapses_for_monomial():
    # the gap monitor reads the same nilpotent remainder as the accurate
    # path: without the collapse rule its Ritz values are noise of size
    # eps^(1/k), not 0
    for F in (F2, F3):
        assert leading_spectral_data(assemble_operator(F, 1.0, None, 256).matrix).gap == 0.0


def test_gap_field_for_fh():
    S = leading_spectral_data(assemble_operator(FH, 1.0, None, 256).matrix)
    assert S.gap == pytest.approx(0.5, abs=1e-3)


def test_pressure_monomial_cos():
    rep = pressure_and_derivs(F2, COS, h=1e-2)
    assert rep.dp == pytest.approx(0.0, abs=1e-6)
    assert rep.mean_prediction == pytest.approx(0.0, abs=1e-12)
    # Green-Kubo oracle: all composed-cosine correlations vanish
    assert rep.ddp == pytest.approx(0.5, abs=1e-3)
    assert rep.variance_prediction == pytest.approx(0.5, abs=1e-12)


def test_pressure_fh_cos():
    rep = pressure_and_derivs(FH, COS, h=1e-2)
    assert rep.dp == pytest.approx(0.0, abs=1e-6)
    assert rep.ddp == pytest.approx(GK_FH_COS, abs=1e-3)
    assert rep.variance_prediction == pytest.approx(GK_FH_COS, abs=1e-10)


@pytest.mark.parametrize("F", [FH, BlaschkeMap((0j, 0.9 + 0j))], ids=["fh", "a09"])
def test_pressure_variance_is_the_green_kubo_variance(F):
    # at N = 512 the pressure's t = 0 node is the matrix green_kubo_variance
    # assembles, and both read the variance off it with spectral.green_kubo
    rep = pressure_and_derivs(F, COS, N=512)
    assert rep.variance_prediction == green_kubo_variance(F, COS)


def test_pressure_constant_observable():
    rep = pressure_and_derivs(FH, constant(0.7), h=1e-2)
    assert rep.dp == pytest.approx(0.7, abs=1e-9)
    assert rep.ddp == pytest.approx(0.0, abs=1e-7)


def test_pressure_convexity_on_stencil():
    for F, g in ((F2, COS), (FH, COS)):
        rep = pressure_and_derivs(F, g, h=1e-2)
        h = 1e-2
        second = (rep.nodes[h] - 2 * rep.nodes[0.0] + rep.nodes[-h]) / h**2
        assert second >= -1e-8


def test_equilibrium_measure_invariance():
    g = Observable("0.1cos", lambda t: 0.1 * np.cos(np.asarray(t)))
    grid = circle_grid(256)
    for F in (F2, FH):
        data = conformal_equilibrium(F, g, 256)
        assert equilibrium_invariance_defect(F, data, grid) < 1e-7
        assert np.all(data.rho.real > 0)


def test_equilibrium_trivial_weight():
    data = conformal_equilibrium(F2, None, 128)
    assert abs(data.lam - 1.0) < 1e-10
    assert np.max(np.abs(data.rho - 1.0)) < 1e-8


def test_weighted_eigenvalue_matches_pressure_taylor():
    # log lambda(e^{t cos}|F'|^{-1}) ~ t P'(0) + t^2/2 P''(0) at t = 0.1
    g = Observable("0.1cos", lambda t: 0.1 * np.cos(np.asarray(t)))
    data = conformal_equilibrium(F2, g, 256)
    taylor = 0.1 * 0.0 + 0.5 * 0.01 * 0.5
    assert np.log(data.lam.real) == pytest.approx(taylor, abs=5e-4)


def test_critical_line_iterates_stay_smooth():
    # two-norm behaviour: iterates of the operator at s = 1 + ia applied to
    # a smooth function remain bounded in the C^1 norm (sup plus derivative
    # sup, the derivative taken spectrally on the grid)
    N = 256
    grid = circle_grid(N)
    freqs = np.fft.fftfreq(N, d=1.0 / N)
    M = assemble_operator(FH, 1.0 + 1.0j, None, N)

    def c1_norm(u):
        du = np.fft.ifft(1j * freqs * np.fft.fft(u))
        return float(np.max(np.abs(u)) + np.max(np.abs(du)))

    u = np.cos(grid).astype(complex)
    start = c1_norm(u)
    norms = []
    for _ in range(60):
        u = M.matrix @ u
        norms.append(c1_norm(u))
    assert max(norms) < 10 * start
    assert norms[-1] <= max(norms[:10]) + 1e-9


def test_iterate_contraction():
    # ||L^n g - mean|| decays like gap^n for mean-zero trigonometric g
    N = 256
    grid = circle_grid(N)
    M = assemble_operator(FH, 1.0, None, N)
    g = np.cos(grid).astype(complex)
    sup = []
    for _ in range(10):
        g = M.matrix @ g
        sup.append(np.max(np.abs(g)))
    gap = 0.5
    assert sup[9] < 2.0 * gap**10
    assert sup[9] < sup[4] < sup[0]
