"""Collocation transfer operators: spectra, pressure, equilibrium measures."""

import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from innerdyn import transfer
from innerdyn.blaschke import BlaschkeMap, angle_map
from innerdyn.circle import circle_grid
from innerdyn.cli import main
from innerdyn.errors import GapLost, NoConvergence
from innerdyn.observables import COS, Observable, constant, cos_k
from innerdyn.spectral import deflated_subleading, leading_spectral_data
from innerdyn.stochastic import green_kubo_variance
from innerdyn.transfer import (_refine, assemble_operator, circle_spectrum, nufft_operator,
                               pressure_and_derivs)

F2 = BlaschkeMap.monomial(2)
F3 = BlaschkeMap.monomial(3)
FH = BlaschkeMap((0j, 0.5 + 0j))
DEG3 = BlaschkeMap((0j, 0.4 + 0.3j, -0.3 - 0.5j), 0.7)
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
    assert circle_spectrum(F, 1.0, None, 256).gap == pytest.approx(a, abs=1e-8)


def test_subleading_collapses_for_monomial():
    M = assemble_operator(F2, 1.0, None, 256).matrix
    S = leading_spectral_data(M)
    assert deflated_subleading(M, S.lam, S.rho, S.weights) < 1e-6


def test_gap_field_collapses_for_monomial():
    # the dense coarse spectrum of a nilpotent remainder is noise of size
    # eps^(1/k); the collapse rule reads the gap as 0
    for F in (F2, F3):
        assert circle_spectrum(F, 1.0, None, 256).gap == 0.0


def test_gap_field_for_fh():
    assert circle_spectrum(FH, 1.0, None, 256).gap == pytest.approx(0.5, abs=1e-8)


def _spectrum_row(tmp_path, cfg, s, modes):
    """The one row of `innerdyn spectrum` for a map config, s and --modes."""
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--map", json.dumps(cfg), "--s", str(s), "--modes", str(modes)]
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    return dict(zip(lines[2].split(","), map(float, lines[3].split(","))))


def _zeros(*zeros):
    return {"kind": "blaschke", "zeros": [[z.real, z.imag] for z in map(complex, zeros)]}


@pytest.mark.parametrize("a,modes", [(0.1, 256), (0.97, 2048)])
def test_spectrum_gap_at_s1_is_the_derivative_at_the_fixed_point(tmp_path, a, modes):
    # at s = 1 the gap of z (z - a) / (1 - a z) is |F'(0)| = a. On a = 0.1,
    # lambda_2 = -0.1 is defective at N = 256, and a residual of 1e-8 held
    # it only to 2.6e-7; on a = 0.97 the N = 2048 Krylov solve ran out of
    # budget. The dense coarse spectrum reads both to 1e-12.
    row = _spectrum_row(tmp_path, _zeros(0, a), 1.0, modes)
    assert abs(row["lambda_re"] - 1.0) <= 1e-10
    assert abs(row["gap"] - a) <= 1e-8
    assert row["gap_bound"] <= 1e-8


def test_spectrum_lambda_of_a_slowly_mixing_map_matches_arpack(tmp_path):
    # a = 0.99, s = 1.5: |lambda_2 / lambda| = 0.99991, where the cold
    # N = 1024 Krylov solve ran out of budget; ARPACK is the oracle
    from scipy.sparse.linalg import eigs

    F = BlaschkeMap((0j, 0.99 + 0j))
    row = _spectrum_row(tmp_path, _zeros(0, 0.99), 1.5, 1024)
    want = eigs(assemble_operator(F, 1.5, None, 1024).matrix, k=1, which="LM",
                tol=1e-14)[0][0]
    assert abs(want.imag) <= 1e-12
    assert abs(row["lambda_re"] - want.real) <= 1e-9 * abs(want)
    assert row["residual"] <= 1e-10
    assert abs(row["gap"] - 0.9999136898933) <= row["gap_bound"] + 1e-12


def test_spectrum_gap_bound_covers_the_noise_of_a_near_monomial_map(tmp_path):
    # zeros {0, -0.001}: the gap is 0.001, but near z^2 the discretized
    # Jordan chains spread rounding to eps^(1/log2 N): the dense gap reads
    # 1.1e-6 too high at N_c = 32 and 1e-3 too high at 64, so the bound,
    # their difference, is 1e-3 and covers the error
    row = _spectrum_row(tmp_path, _zeros(0, -0.001), 1.0, 256)
    err = abs(row["gap"] - 0.001)
    assert 1e-8 < err <= row["gap_bound"]


@given(st.lists(st.tuples(st.floats(-4.0, -0.05), st.floats(0.0, 2 * np.pi)),
                min_size=1, max_size=2),
       st.floats(0.0, 2 * np.pi), st.sampled_from([64, 256]))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_circle_gap_is_right_or_flagged(zeros, rotation, modes):
    # at s = 1 the gap of a Blaschke product with F(0) = 0 is |F'(0)|, the
    # product of the other zeros' moduli, here from 1e-4 (near z^d, where
    # the dense gap reads rounding noise) to 0.89: within 1e-8, or the bound
    # covers the error
    F = BlaschkeMap((0j, *(10 ** lr * np.exp(1j * th) for lr, th in zeros)), rotation)
    want = float(np.prod([10 ** lr for lr, _ in zeros]))
    data = circle_spectrum(F, 1.0, None, modes)
    assert abs(data.lam - 1.0) <= 1e-10
    assert abs(data.gap - want) <= max(1e-8, data.gap_bound)


@pytest.mark.parametrize("d", [2, 3])
def test_spectrum_gap_of_a_monomial_is_zero(tmp_path, d):
    # the remainder of z^d is nilpotent: its dense eigenvalues are rounding
    # noise, and the collapse rule reads the gap as 0
    row = _spectrum_row(tmp_path, {"kind": "monomial", "d": d}, 1.0, 256)
    assert row["gap"] == 0.0 and row["gap_bound"] == 0.0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_refine_is_the_symmetric_interpolant(kind):
    # a trigonometric polynomial of degree 15 with its Nyquist mode at 32
    # nodes, refined to 128 nodes, against its symmetric interpolant there
    rng = np.random.default_rng(3)
    c = rng.normal(size=16) + (1j * rng.normal(size=16) if kind == "complex" else 0)
    nyq = rng.normal()

    def f(x):
        u = sum(c[k] * np.cos(k * x + k) for k in range(16)) + nyq * np.cos(16 * x)
        return u if kind == "complex" else u.real

    coarse, fine = circle_grid(32), circle_grid(128)
    got = _refine(f(coarse), 128)
    assert np.iscomplexobj(got) == (kind == "complex")
    assert np.max(np.abs(got - f(fine))) <= 1e-12
    assert np.max(np.abs(_refine(f(coarse), 32) - f(coarse))) <= 1e-14


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_refine_restricts_by_fourier_truncation(kind):
    # down from 128 nodes to 32: the modes |k| < 16 are kept, the modes
    # +-16 fold into the one Nyquist mode of 32 nodes, the rest are dropped
    rng = np.random.default_rng(5)
    c = rng.normal(size=64) + (1j * rng.normal(size=64) if kind == "complex" else 0)

    def f(x, top):
        u = sum(c[k] * np.cos(k * x + k) for k in range(top))
        return u if kind == "complex" else u.real

    coarse, fine = circle_grid(32), circle_grid(128)
    got = _refine(f(fine, 64), 32)
    assert np.iscomplexobj(got) == (kind == "complex")
    assert np.max(np.abs(got - f(coarse, 17))) <= 1e-12
    assert np.max(np.abs(_refine(_refine(f(fine, 16), 32), 128) - f(fine, 16))) <= 1e-12


@given(st.lists(st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2 * np.pi)),
                min_size=1, max_size=2),
       st.floats(0.0, 2 * np.pi), st.sampled_from([32, 64, 256, 1024]),
       st.sampled_from([1.0, 1.5, 1.0 + 0.5j, 2.0 - 1.0j]), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
@example([(0.0, 0.0)], 0.0, 256, 1.0, False, False, 0)   # z^2: preimages on nodes
@settings(max_examples=24, deadline=None, derandomize=True)
def test_nufft_apply_is_the_collocation_matrix(zeros, rotation, modes, s, with_g, smooth, seed):
    # the matrix-free N-mode operator of circle_spectrum and the dense matrix
    # of the LAPACK consumers are one operator: same preimages and weights,
    # and the NUFFT apply equals matrix @ v to 1e-12 in the sup norm
    F = BlaschkeMap((0j, *(r * np.exp(1j * th) for r, th in zeros)), rotation)
    g = (lambda y: 0.3 * np.cos(y) - 0.2 * np.sin(2 * y)) if with_g else None
    M = assemble_operator(F, s, g, modes)
    op = nufft_operator(M.preimages, M.weights)
    assert op.shape == M.matrix.shape and op.dtype == M.matrix.dtype
    x = circle_grid(modes)
    rng = np.random.default_rng(seed)
    v = 1.0 + 0.5 * np.cos(x + 1.0) + 0.2 * np.sin(3 * x) if smooth else rng.normal(size=modes)
    if np.iscomplexobj(M.matrix):
        v = v + 1j * (np.cos(2 * x) if smooth else rng.normal(size=modes))
    want = M.matrix @ v
    got = op @ v
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
def test_nufft_apply_is_the_exact_interpolant():
    # against a long-double cardinal sum at the same preimages: the offsets
    # to the fine nodes are taken against 2 pi in two parts, so the apply is
    # within rounding of the interpolant (1e-15), where one-part offsets and
    # the dense kernel are 1e-13 off, as a high mode is shifted by N eps / 2
    N = 512
    M = assemble_operator(BlaschkeMap((0j, 0.9 + 0j)), 1.5, None, N)
    v = np.random.default_rng(2).normal(size=N)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    t = M.preimages.astype(np.longdouble)[:, :, None] - 2 * pi * np.arange(N) / N
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.sin(N * t / 2) / np.tan(t / 2) / N
    K[t == 0] = 1
    want = np.einsum("il,ilj,j->i", M.weights.astype(np.longdouble), K, v.astype(np.longdouble))
    got = nufft_operator(M.preimages, M.weights) @ v
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_spectrum_never_holds_the_n_mode_matrix(tmp_path):
    # a = 0.9, s = 1.5, N = 2048: the dense N-mode matrix alone is 33.6 MB;
    # the NUFFT plan and the Krylov basis take a few MB
    argv = ["spectrum", "--map", json.dumps(_zeros(0, 0.9)), "--s", "1.5", "--modes", "2048",
            "--out", str(tmp_path / "spectrum.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_spectrum_lambda_far_below_one_is_relative(tmp_path):
    # the degree-3 map at s = 30: |lambda| = 1.4e-11 and |lambda_2 / lambda|
    # = 0.94. Against max(1, |theta|), Arnoldi's acceptance was absolute and
    # the N-mode solve refused with two Ritz values of equal modulus; it is
    # now relative to |theta|
    row = _spectrum_row(tmp_path, {**_zeros(0, 0.4 + 0.3j, -0.3 - 0.5j), "rotation": 0.7},
                        30.0, 256)
    ev = np.linalg.eigvals(assemble_operator(DEG3, 30.0, None, 256).matrix)
    want = ev[np.argmax(np.abs(ev))]
    assert abs(want) < 1e-10
    assert abs(complex(row["lambda_re"], row["lambda_im"]) - want) <= 1e-9 * abs(want)
    assert row["residual"] <= 1e-10 * abs(want)
    assert abs(row["gap"] - 0.9375620376739) <= 1e-9


def test_unresolved_gap_is_read_on_the_finer_grid(tmp_path):
    # a = 0.9, s = 1.5 at --modes 64: the only coarse grid, 32, does not
    # resolve rho, so the gap is read at 64, 3e-15 from the value resolved
    # at 128; the 32-grid read 0.97966962796, 2.4e-8 off
    row = _spectrum_row(tmp_path, _zeros(0, 0.9), 1.5, 64)
    assert abs(row["gap"] - 0.97966965168642) <= 1e-12
    assert 1e-8 < row["gap_bound"] <= 1e-7


def test_pressure_monomial_cos():
    rep = pressure_and_derivs(F2, COS)
    assert rep.dp == pytest.approx(0.0, abs=1e-6)
    assert rep.mean_prediction == pytest.approx(0.0, abs=1e-12)
    # Green-Kubo oracle: all composed-cosine correlations vanish
    assert rep.ddp == pytest.approx(0.5, abs=1e-3)
    assert green_kubo_variance(F2, COS) == pytest.approx(0.5, abs=1e-12)


def test_pressure_fh_cos():
    rep = pressure_and_derivs(FH, COS)
    assert rep.dp == pytest.approx(0.0, abs=1e-6)
    assert rep.ddp == pytest.approx(GK_FH_COS, abs=1e-3)
    assert green_kubo_variance(FH, COS) == pytest.approx(GK_FH_COS, abs=1e-10)


@pytest.mark.parametrize("a", [0.5, 0.9], ids=["fh", "a09"])
def test_pressure_variance_is_the_green_kubo_variance(tmp_path, a):
    # the artifact's variance is clt's, read on clt's grid whatever --modes
    want = green_kubo_variance(BlaschkeMap((0j, complex(a))), COS)
    for modes in (256, 512, 2048):
        out = tmp_path / f"pressure-{modes}.json"
        argv = ["pressure", "--map", json.dumps(_zeros(0, a)), "--obs", "cos",
                "--modes", str(modes), "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["data"]["variance_prediction"] == want


def test_pressure_never_holds_the_n_mode_matrix():
    # FH, N = 4096: one dense N-mode matrix is 128 MB; each node's NUFFT
    # plan and Krylov basis and the coarse grids take a few MB
    tracemalloc.start()
    try:
        pressure_and_derivs(FH, COS, N=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_pressure_solves_each_node_once(monkeypatch):
    # each of the five nodes solves its 512 preimages once; no other step
    # of pressure_and_derivs reads the N-mode grid
    sizes = []
    solve = transfer.boundary_preimages_batch
    monkeypatch.setattr(transfer, "boundary_preimages_batch",
                        lambda F, x: sizes.append(len(x)) or solve(F, x))
    pressure_and_derivs(FH, COS, N=512)
    assert sizes.count(512) == 5


def test_pressure_refuses_an_observable_its_grid_aliases(tmp_path, capsys, monkeypatch):
    # cos1000 on 512 modes aliases to a low frequency: P' read -0.0080 for 0
    # and P'' 0.470 for 0.5. It exits 2, naming the bandwidth, before any work
    monkeypatch.setattr(transfer, "boundary_preimages_batch", None)
    out = tmp_path / "pressure.json"
    argv = ["pressure", "--map", json.dumps(_zeros(0, 0.5)), "--obs", "cos1000",
            "--modes", "512", "--out", str(out)]
    assert main(argv) == 2
    assert "bandwidth 1000" in capsys.readouterr().err
    assert not out.exists()


def test_pressure_refuses_a_rotation_at_once():
    # a rotation has its whole spectrum on the circle and no gap; the
    # identity at 1024 modes took about 2 s in the coarse eigensolves and
    # the Arnoldi solve to reach NoConvergence
    for F in (BlaschkeMap.monomial(1), BlaschkeMap.monomial(1, 0.7)):
        start = time.perf_counter()
        with pytest.raises(NoConvergence):
            pressure_and_derivs(F, COS, N=1024)
        assert time.perf_counter() - start < 0.1


def test_pressure_refuses_a_lost_gap_at_once():
    # at s = 1 the subleading ratio is |F'(0)| = 0.99, above the 0.95
    # ceiling; solving the stencil first took 0.36 s to end in NoConvergence
    start = time.perf_counter()
    with pytest.raises(GapLost, match="0.990"):
        pressure_and_derivs(BlaschkeMap((0j, 0.99 + 0j)), cos_k(100), N=256)
    assert time.perf_counter() - start < 0.1


def test_pressure_constant_observable():
    rep = pressure_and_derivs(FH, constant(0.7))
    assert rep.dp == pytest.approx(0.7, abs=1e-9)
    assert rep.ddp == pytest.approx(0.0, abs=1e-7)


def test_pressure_convexity_on_stencil():
    for F, g in ((F2, COS), (FH, COS)):
        rep = pressure_and_derivs(F, g)
        h = 1e-2
        second = (rep.nodes[h] - 2 * rep.nodes[0.0] + rep.nodes[-h]) / h**2
        assert second >= -1e-8


def equilibrium_invariance_defect(F, data, grid):
    """max over 0 < |n| <= 8 of |int e_n o F dmu - int e_n dmu|.

    mu = rho * weights is the equilibrium measure on the grid, read off the
    leading data of the weight e^{g} |F'|^{-1}; its trigonometric moments
    are F-invariant.
    """
    mu = data.weights * data.rho
    n = np.r_[-8:0, 1:9][:, None]
    moments = np.exp(1j * n * angle_map(F, grid)) - np.exp(1j * n * grid)
    return float(np.max(np.abs(moments @ mu)))


def test_equilibrium_measure_invariance():
    g = Observable("0.1cos", lambda t: 0.1 * np.cos(np.asarray(t)), 1)
    grid = circle_grid(256)
    for F in (F2, FH):
        assert circle_spectrum(F, 1.0, g, 256).gap <= 0.95
        data = leading_spectral_data(assemble_operator(F, 1.0, g, 256).matrix)
        assert equilibrium_invariance_defect(F, data, grid) < 1e-7
        assert np.all(data.rho.real > 0)


def test_equilibrium_trivial_weight():
    data = leading_spectral_data(assemble_operator(F2, 1.0, None, 128).matrix)
    assert abs(data.lam - 1.0) < 1e-10
    assert np.max(np.abs(data.rho - 1.0)) < 1e-8


def test_weighted_eigenvalue_matches_pressure_taylor():
    # log lambda(e^{t cos}|F'|^{-1}) ~ t P'(0) + t^2/2 P''(0) at t = 0.1
    g = Observable("0.1cos", lambda t: 0.1 * np.cos(np.asarray(t)), 1)
    data = leading_spectral_data(assemble_operator(F2, 1.0, g, 256).matrix)
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
