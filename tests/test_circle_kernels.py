"""Circle kernels against their reference implementations.

The Newton preimage solve is checked against 60-step monotone bisection in
the cells of a lift grid built here, apart from the package's table. The
collocation matrix, which the package builds from
the one NUFFT plan of the symmetric interpolant, is checked against the
dense DFT assembly E @ dft of that interpolant and against its cardinal
function summed in long double. The references are kept here, outside the
package.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innerdyn import blaschke, counting
from innerdyn.blaschke import (BlaschkeMap, boundary_preimages, boundary_preimages_batch,
                               circle_abs_deriv, lyapunov_exponent)
from innerdyn.circle import TWO_PI, as_angle, circle_grid, wrap_angle
from innerdyn.counting import CountingLedger, backward_orbit
from innerdyn.errors import InnerdynError
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


def oracle_lift_grid(F, n=256):
    """Nodes on [0, 2*pi] and the lift of arg F unwrapped along them.

    n nodes are uniform in t, and n more for each zero a = r e^{i*phi} != 0
    are uniform in the argument of its factor, whose inverse is
    phi + 2 arctan((1-r)/(1+r) tan(u/2)). Between two nodes every factor's
    argument and every z then rises by at most 2*pi/n, so the lift rises by
    less than pi for degrees below n/2 and the principal argument unwraps.
    """
    nodes = [TWO_PI * np.arange(n + 1) / n]
    for a in F.zeros:
        if a:
            u = TWO_PI * (np.arange(n) + 0.5) / n - np.pi
            nodes.append(np.mod(np.angle(a) + 2 * np.arctan((1 - abs(a)) / (1 + abs(a))
                                                          * np.tan(u / 2)), TWO_PI))
    t = np.unique(np.concatenate(nodes))
    return t, np.unwrap(np.angle(blaschke.circle_values(F, t)))


def bisection_preimages_batch(F, targets):
    """boundary_preimages_batch by bisection in the cells of `oracle_lift_grid`."""
    t, ph = oracle_lift_grid(F)
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


def cardinal_rows(M, rows):
    """Rows of the collocation matrix M by the cardinal function of the
    symmetric interpolant, K_j(y) = sin(N t/2) cot(t/2) / N with t = y - x_j,
    in long double at M's preimages and weights."""
    N = M.matrix.shape[1]
    pi = np.longdouble("3.14159265358979323846264338327950288")
    t = M.preimages[rows].astype(np.longdouble)[:, :, None] - 2 * pi * np.arange(N) / N
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.sin(N * t / 2) / np.tan(t / 2) / N
    K[t == 0] = 1
    return np.einsum("il,ilj->ij", M.weights[rows].astype(np.clongdouble), K)


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


def _tree(levels):
    """The nodes, values and parent links of a walk, each a list of levels."""
    return dict(zip(("nodes", "values", "parents"), map(list, zip(*levels))))


def _assert_same_tree(F, T):
    new = _tree(backward_orbit(F, 1.0, T))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("innerdyn.counting.boundary_preimages_batch",
                   bisection_preimages_batch)
        ref = _tree(backward_orbit(F, 1.0, T))
    assert [len(v) for v in new["values"]] == [len(v) for v in ref["values"]]
    for n in range(1, len(new["values"])):
        assert np.max(np.abs(new["values"][n] - ref["values"][n]), initial=0.0) <= 1e-13
        assert np.array_equal(new["parents"][n], ref["parents"][n])
    return new


@pytest.mark.parametrize("F,T", [(FH, 9.0), (DEG3, 8.0)])
def test_backward_orbit_ledger_matches_oracle(F, T):
    orbit = _assert_same_tree(F, T)
    if F is FH:
        assert sum(len(v) for v in orbit["values"]) == 12965


@pytest.mark.parametrize("F", [FH, Z2])
def test_ledger_counts_identical_on_T_grid(F):
    # located ledgers from the walker: enumerate_orbit aggregates z^2 without
    # solving any preimage, so it would not exercise the Newton solve
    def located():
        tree = _tree(backward_orbit(F, 0.3, T))
        return CountingLedger.from_events(np.concatenate(tree["values"]),
                                          locations=np.concatenate(tree["nodes"]))

    T = 9.0
    new = located()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("innerdyn.counting.boundary_preimages_batch",
                   bisection_preimages_batch)
        ref = located()
    grid = np.linspace(0.0, T, 200)
    assert [new.count(t) for t in grid] == [ref.count(t) for t in grid]


@pytest.mark.parametrize("F", [FH, DEG3, A099, Z2])
def test_preimage_sweep_count(F):
    # deterministic cost guard on the map evaluations of the Newton solve:
    # one per root where the Hermite seed and the one-step bound suffice, and
    # at most 8 sweeps anywhere; 60-step bisection would make 60
    boundary_preimages(F, 0.0)   # builds the lift table outside the count
    sizes = []
    original = blaschke._newton_terms

    def counted(G, t, w):
        sizes.append(len(t))
        return original(G, t, w)

    rng = np.random.default_rng(11)
    cases = [(rng.uniform(0.0, TWO_PI, 2000), F is not A099),
             (np.concatenate([circle_grid(512), np.linspace(0.01, 6.2, 301)]), False)]
    for targets, one_step in cases:
        sizes.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blaschke, "_newton_terms", counted)
            boundary_preimages_batch(F, targets)
        assert 1 <= len(sizes) <= 8
        if one_step:
            assert sum(sizes) <= 1.05 * len(targets) * F.degree


@pytest.mark.parametrize("F", [BlaschkeMap((0j, 0.999 + 0j)),
                               BlaschkeMap((0j, 0.99999 + 0j)),
                               BlaschkeMap((0j, 0.999 * np.exp(2j)), 0.3),
                               BlaschkeMap((0j, 1 - 1e-9 + 0j)),
                               BlaschkeMap((0j, 1 - 1e-9 + 0j, 0.3 + 0j))])
def test_newton_matches_bisection_near_the_circle(F):
    # |F'| varies fastest next to a zero near the circle, so the Hermite seed
    # is at its worst there and the one-step bound decides most roots
    targets = np.random.default_rng(5).uniform(0.0, TWO_PI, 2000)
    got = boundary_preimages_batch(F, targets)
    assert circular_gap(got, bisection_preimages_batch(F, targets)) <= 1e-14


@pytest.mark.parametrize("F", [FH, DEG3, A099, Z2, BlaschkeMap.monomial(5, 1.0),
                               BlaschkeMap((0j, 1 - 1.1e-12 + 0j))])
def test_lift_cell_lookup_is_searchsorted(F):
    # the division lookup against a search of the table's own nodes, at the
    # nodes, on either side of each, between them and outside the range
    _, ph, _ = blaschke._lift_table(F)
    rng = np.random.default_rng(3)
    tau = np.concatenate([ph, 0.5 * (ph[1:] + ph[:-1]), np.nextafter(ph, -np.inf),
                          np.nextafter(ph, np.inf), rng.uniform(ph[0], ph[-1], 5000),
                          [ph[0] - 1.0, ph[-1] + 1.0]])
    want = np.clip(np.searchsorted(ph, tau), 1, len(ph) - 1)
    assert np.array_equal(blaschke._lift_cell(F, tau), want)


def _full_tree(F, x, T):
    """The backward tree with every node solved, through the same walker."""
    d = F.degree

    def children(angles, acc):
        Y = boundary_preimages_batch(F, angles)
        vals = acc[:, None] + np.log(circle_abs_deriv(F, Y))
        return np.repeat(np.arange(len(angles)), d), Y.ravel(), vals.ravel()

    return _tree(counting._walk(as_angle(x), children, T, counting._NODE_BUDGET, d))


@pytest.mark.parametrize("F,T", [(FH, 9.0), (DEG3, 8.0), (Z2, 10.0), (A099, 8.0)])
def test_pruned_tree_equals_full_tree(F, T):
    ref = _full_tree(F, 0.3, T)
    solved = []

    def recorded(G, targets):
        solved.append(np.array(targets))
        return boundary_preimages_batch(G, targets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "boundary_preimages_batch", recorded)
        tree = _tree(backward_orbit(F, 0.3, T))
    for field in ("nodes", "values", "parents"):
        got, want = tree[field], ref[field]
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # exactly the nodes at most T - log m are solved
    nodes, values = np.concatenate(ref["nodes"]), np.concatenate(ref["values"])
    live = values <= T - np.log(F.min_boundary_deriv()) + 1e-12
    assert np.array_equal(np.sort(np.concatenate(solved)), np.sort(nodes[live]))
    assert not live.all()


def _traced(call):
    """(result, seconds, traced peak bytes) of call() on a cold lift table."""
    blaschke._lift_table.cache_clear()
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, time.perf_counter() - t0, peak


def test_preimages_next_to_the_circle_are_answered_in_a_small_table():
    # max |F'| = 2e7: a lift grid uniform in t would need 2^29 nodes (about
    # 8.6 GB); the table is uniform in the lift, whatever the zeros
    F = BlaschkeMap((0j, 1.0 - 1e-7 + 0j))
    got, seconds, peak = _traced(lambda: boundary_preimages(F, 0.3))
    assert seconds < 1.0 and peak < 10 * 2**20
    assert circular_gap(got[None], bisection_preimages_batch(F, [0.3])) <= 1e-14


def test_one_preimage_at_one_minus_1e5_is_cheap():
    # a 2^22-node grid took 0.87 s and a 352 MiB peak for this one target
    F = BlaschkeMap((0j, 1.0 - 1e-5 + 0j))
    _, seconds, peak = _traced(lambda: boundary_preimages(F, 0.3))
    assert seconds < 0.05 and peak < 10 * 2**20


@pytest.mark.parametrize("phi", [0.0, np.pi, 2.0])
def test_every_accepted_zero_is_answered_or_refused_at_once(phi):
    # real zeros are solved up to the constructor's margin; on a complex one
    # the residual arg F(e^{it}) loses digits next to the zero (z = e^{it}
    # carries 1e-16 of absolute error), and the solve may refuse instead
    targets = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    for gap in (1e-5, 1e-7, 1e-9, 1e-11, 1.01e-12):
        F = BlaschkeMap((0j, (1.0 - gap) * np.exp(1j * phi)))
        t0 = time.perf_counter()
        try:
            boundary_preimages_batch(F, targets)
            answered = True
        except InnerdynError:
            answered = False
        assert lyapunov_exponent(F) > 0.0
        assert time.perf_counter() - t0 < 1.0
        assert answered or phi not in (0.0, np.pi)


# ---------------------------------------------------------------------------
# collocation assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F", [FH, DEG3, A09, Z2], ids=["FH", "deg3", "a0.9", "z2"])
@pytest.mark.parametrize("N", [32, 256, 1024])
def test_assembly_matches_dense_dft(F, N):
    for s in (1.0, 1.5, 1.0 + 0.5j):
        got = assemble_operator(F, s, None, N).matrix
        assert np.max(np.abs(got - dense_dft_matrix(F, s, N))) <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
@pytest.mark.parametrize("F, s, N", [(A09, 1.5, 512), (A09, 1.5, 1024), (DEG3, 1.0 + 0.5j, 1024),
                                     (Z2, 1.0, 64), (Z2, 1.0, 2048)],
                         ids=["a0.9-512", "a0.9-1024", "deg3-complex-1024", "z2-64", "z2-2048"])
def test_assembly_is_the_exact_interpolant(F, s, N):
    # the matrix is within rounding of the interpolant's cardinal function
    # (8e-16 observed). A cotangent kernel read 5.2e-14 at a = 0.9, N = 512,
    # and its unit-vector rows for preimages on nodes, which z^2 makes on
    # every even row, were 1.1e-13 off at N = 2048
    M = assemble_operator(F, s, None, N)
    rows = np.arange(N) if N <= 512 else np.r_[0:N:32, 5:N:32]
    if F is Z2:
        assert np.isin(M.preimages[rows], circle_grid(N)).all(axis=1).any()
    err = np.max(np.abs(M.matrix[rows] - cardinal_rows(M, rows)))
    assert err <= 2e-15 * np.max(np.abs(M.matrix))


@pytest.mark.parametrize("F, s", [(A09, 1.5), (DEG3, 1.0 + 0.5j)], ids=["a0.9", "deg3-complex"])
def test_assembly_peak_is_the_matrix_and_one_row_block(F, s):
    assemble_operator(F, s, None, 32)   # the lift table is cached, keep it out of the peak
    tracemalloc.start()
    try:
        mat = assemble_operator(F, s, None, 1024).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * mat.nbytes


def test_blocked_assembly_hit_rows_and_dense_dft():
    # at N = 2048 the rows are assembled in blocks; z^2 maps even nodes onto
    # nodes, so these rows mix preimages on nodes (even) and off them (odd)
    N = 2048
    M = assemble_operator(Z2, 1.0, None, N)
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
