"""Circle kernels against their reference implementations.

The Newton preimage solve is checked against 60-step monotone bisection in
the same lift cells, and the closed-form collocation rows against the dense
DFT assembly E @ dft of the symmetric interpolant. Both references are kept
here, outside the package.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innerdyn import blaschke
from innerdyn.blaschke import (BlaschkeMap, _lift_grid, boundary_preimages,
                               boundary_preimages_batch, circle_abs_deriv)
from innerdyn.circle import TWO_PI, circle_grid, wrap_angle
from innerdyn.counting import backward_orbit, enumerate_orbit
from innerdyn.errors import BudgetExceeded
from innerdyn.transfer import assemble_operator

FH = BlaschkeMap((0j, 0.5 + 0j))
DEG3 = BlaschkeMap((0j, 0.4 + 0.3j, -0.3 - 0.5j), 0.7)
A09 = BlaschkeMap((0j, 0.9 + 0j))
A099 = BlaschkeMap((0j, 0.99 + 0j))
Z2 = BlaschkeMap.monomial(2)


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def _preimage_bisect(F, tau, tlo, thi, iters=60):
    """Refine preimage brackets by bisection on the principal argument."""
    for _ in range(iters):
        tm = 0.5 * (tlo + thi)
        val = np.angle(blaschke.circle_values(F, tm) * np.exp(-1j * tau))
        below = val < 0
        tlo = np.where(below, tm, tlo)
        thi = np.where(below, thi, tm)
    return 0.5 * (tlo + thi)


def bisection_preimages_batch(F, targets):
    """boundary_preimages_batch with the bisection solve in the same cells."""
    t, ph = _lift_grid(F)
    d = F.degree
    targets = np.asarray(targets, dtype=float)
    k0 = np.ceil((ph[0] - targets) / TWO_PI - 1e-15)
    taus = targets[:, None] + TWO_PI * (k0[:, None] + np.arange(d)[None, :])
    idx = np.clip(np.searchsorted(ph, taus.ravel()), 1, len(ph) - 1)
    roots = _preimage_bisect(F, taus.ravel(), t[idx - 1], t[idx])
    roots = wrap_angle(roots).reshape(len(targets), d)
    roots.sort(axis=1)
    return roots


def dense_dft_matrix(F, s, N, rows=slice(None)):
    """Collocation matrix by evaluating every Fourier mode at the preimages.

    The interpolant is the symmetric one: the frequencies |k| < N/2 and the
    Nyquist coefficient (fftfreq's -N/2 slot) on cos(N y/2). rows selects
    the grid rows to build.
    """
    grid = circle_grid(N)
    Y = bisection_preimages_batch(F, grid[rows])
    W = circle_abs_deriv(F, Y) ** (-s)
    freqs = np.fft.fftfreq(N, d=1.0 / N)
    mat = np.zeros((len(Y), N), dtype=complex)
    for l in range(F.degree):
        E = np.exp(1j * np.outer(Y[:, l], freqs))
        E[:, N // 2] = np.cos(0.5 * N * Y[:, l])
        # row r of E times the DFT matrix exp(-2 pi i k j / N) / N
        mat += W[:, l][:, None] * (np.fft.fft(E, axis=1) / N)
    return mat


def circular_gap(a, b):
    """Largest circle distance between matched rows of two preimage arrays.

    Each root is matched to the nearest reference root of its row, and the
    match must be one-to-one, so a root reported as 2*pi - eps against 0 is
    not a difference.
    """
    diff = np.abs(a[:, :, None] - b[:, None, :])
    diff = np.minimum(diff, TWO_PI - diff)
    assert np.all(np.sort(np.argmin(diff, axis=2), axis=1) == np.arange(a.shape[1]))
    return float(np.max(np.min(diff, axis=2)))


# ---------------------------------------------------------------------------
# preimages
# ---------------------------------------------------------------------------

zero_inside = st.builds(
    lambda r, phi: r * np.exp(1j * phi),
    st.floats(0.0, 0.99), st.floats(0.0, TWO_PI))


@given(st.lists(zero_inside, min_size=1, max_size=3), st.floats(0.0, TWO_PI),
       st.lists(st.floats(0.0, TWO_PI), min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_newton_matches_bisection_oracle(zs, rot, targets):
    F = BlaschkeMap((0j,) + tuple(zs), rot)
    got = boundary_preimages_batch(F, np.array(targets))
    assert circular_gap(got, bisection_preimages_batch(F, np.array(targets))) <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("N", [32, 1024, 4096])
def test_newton_matches_bisection_monomial_grid_targets(d, N):
    # grid targets put roots exactly on lift nodes, where a bracket collapses
    F = BlaschkeMap.monomial(d)
    grid = circle_grid(N)
    got = boundary_preimages_batch(F, grid)
    assert circular_gap(got, bisection_preimages_batch(F, grid)) <= 1e-14


def _assert_same_tree(F, T):
    new = backward_orbit(F, 1.0, T)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("innerdyn.counting.boundary_preimages_batch",
                   bisection_preimages_batch)
        ref = backward_orbit(F, 1.0, T)
    assert [len(v) for v in new.values] == [len(v) for v in ref.values]
    for n in range(1, len(new.values)):
        assert np.max(np.abs(new.values[n] - ref.values[n]), initial=0.0) <= 1e-13
        assert np.array_equal(new.parents[n], ref.parents[n])
    return new


@pytest.mark.parametrize("F,T", [(FH, 9.0), (DEG3, 8.0)])
def test_backward_orbit_ledger_matches_oracle(F, T):
    orbit = _assert_same_tree(F, T)
    if F is FH:
        assert sum(len(v) for v in orbit.values) == 12965


@pytest.mark.parametrize("F", [FH, Z2])
def test_ledger_counts_identical_on_T_grid(F):
    T = 9.0
    new = enumerate_orbit(F, 0.3, T)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("innerdyn.counting.boundary_preimages_batch",
                   bisection_preimages_batch)
        ref = enumerate_orbit(F, 0.3, T)
    grid = np.linspace(0.0, T, 200)
    assert [new.count(t) for t in grid] == [ref.count(t) for t in grid]


@pytest.mark.parametrize("F", [FH, DEG3, A099, Z2])
def test_preimage_sweep_count(F):
    # deterministic cost guard: one circle_values call per Newton sweep;
    # 60-step bisection would make 60 calls
    _lift_grid(F)
    calls = []
    original = blaschke.circle_values

    def counted(G, theta):
        calls.append(len(np.atleast_1d(theta)))
        return original(G, theta)

    targets = np.concatenate([circle_grid(512), np.linspace(0.01, 6.2, 301)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blaschke, "circle_values", counted)
        boundary_preimages_batch(F, targets)
    assert 1 <= len(calls) <= 8


def test_lift_grid_refused_before_allocation():
    # max |F'| = 2e7 would need 2^29 lift points (about 8.6 GB)
    F = BlaschkeMap((0j, 1.0 - 1e-7 + 0j))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(BudgetExceeded):
            boundary_preimages(F, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 50e6


# ---------------------------------------------------------------------------
# collocation assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F", [FH, DEG3, A09, Z2], ids=["FH", "deg3", "a0.9", "z2"])
@pytest.mark.parametrize("N", [32, 256, 1024])
def test_assembly_matches_dense_dft(F, N):
    for s in (1.0, 1.5, 1.0 + 0.5j):
        got = assemble_operator(F, s, None, N).matrix
        assert np.max(np.abs(got - dense_dft_matrix(F, s, N))) <= 1e-12


def test_assembly_exact_hit_rows_are_unit_vectors():
    # z^2 maps the even grid nodes onto grid nodes: those rows are
    # W_0 e_j + W_1 e_k with no interpolation spill
    N = 64
    M = assemble_operator(Z2, 1.0, None, N)
    grid = circle_grid(N)
    on_node = np.isin(M.preimages, grid).all(axis=1)
    assert on_node.sum() >= N // 4
    for i in np.nonzero(on_node)[0]:
        row = np.zeros(N, dtype=complex)
        for l in range(2):
            row[np.searchsorted(grid, M.preimages[i, l])] += M.weights[i, l]
        assert np.max(np.abs(M.matrix[i] - row)) <= 1e-15


@pytest.mark.parametrize("F, s", [(A09, 1.5), (DEG3, 1.0 + 0.5j)], ids=["a0.9", "deg3-complex"])
def test_assembly_peak_is_the_matrix_and_one_row_block(F, s):
    assemble_operator(F, s, None, 32)   # the lift grid is cached, keep it out of the peak
    tracemalloc.start()
    try:
        mat = assemble_operator(F, s, None, 1024).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * mat.nbytes


def test_blocked_assembly_hit_rows_and_dense_dft():
    # at N = 2048 the rows are assembled in blocks; z^2 maps even nodes onto
    # nodes, so every block has exact-hit rows at block-local indices
    N = 2048
    M = assemble_operator(Z2, 1.0, None, N)
    grid = circle_grid(N)
    hits = np.nonzero(np.isin(M.preimages, grid).all(axis=1))[0]
    assert np.unique(hits // 128).tolist() == list(range(N // 128))
    want = np.zeros((len(hits), N))
    for l in range(2):
        want[np.arange(len(hits)), np.searchsorted(grid, M.preimages[hits, l])] += M.weights[hits, l]
    assert np.max(np.abs(M.matrix[hits] - want)) <= 1e-15
    rows = np.unique(np.concatenate([np.arange(0, N, 32), np.arange(127, N, 128),
                                     np.arange(17, N, 64)]))
    assert np.max(np.abs(M.matrix[rows] - dense_dft_matrix(Z2, 1.0, N, rows))) <= 1e-12


# ---------------------------------------------------------------------------
# angle reduction
# ---------------------------------------------------------------------------

def test_wrap_angle_tiny_negative_is_zero():
    # np.mod(-1e-17, 2*pi) rounds to exactly 2*pi, outside [0, 2*pi)
    scalar = wrap_angle(-1e-17)
    assert isinstance(scalar, np.float64) and scalar == 0.0
    arr = wrap_angle(np.array([-1e-17, 1.0]))
    assert isinstance(arr, np.ndarray) and arr.tolist() == [0.0, 1.0]


def test_preimage_row_of_tiny_negative_target_starts_at_zero():
    row = boundary_preimages_batch(Z2, np.array([-1e-17]))[0]
    assert np.all((row >= 0.0) & (row < TWO_PI))
    assert row[0] == 0.0
    assert row[1] == pytest.approx(np.pi, abs=1e-15)
