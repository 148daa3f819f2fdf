"""Monte-Carlo CLT diagnostics and the Green-Kubo variance."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from innerdyn import stochastic
from innerdyn.blaschke import BlaschkeMap, angle_map
from innerdyn.circle import circle_grid
from innerdyn.errors import DegenerateVariance, NonDecaying
from innerdyn.observables import COS, Observable, constant, cos_k
from innerdyn.rng import splitmix64, uniform_stream
from innerdyn.stochastic import (BirkhoffSample, birkhoff_samples,
                                 clt_diagnostics, green_kubo_variance, normal_cdf)
from innerdyn.transfer import assemble_operator
from sampler_oracle import exact_monomial_angles

F2 = BlaschkeMap.monomial(2)
FH = BlaschkeMap((0j, 0.5 + 0j))
A09 = BlaschkeMap((0j, 0.9 + 0j))
GK_FH_COS = 1.0 / 6.0


def correlation_sequence(F, h, k_last):
    """c_k = int h (h o F^k) dm for k = 0..k_last, h mean-adjusted.

    The terms of the series that `green_kubo_variance` sums by one resolvent
    solve, computed one power at a time through the adjoint identity
    c_k = int (L^k h) h dm with the weightless collocation operator; L
    smooths, so no frequency blow-up occurs. Checked against closed forms
    and against direct composition on a fine grid.
    """
    N = 512
    grid = circle_grid(N)
    hv = np.asarray(h(grid), dtype=float)
    hv = hv - np.mean(hv)
    M = assemble_operator(F, 1.0, None, N).matrix
    out = np.empty(k_last + 1)
    u = hv
    out[0] = float(np.mean(hv * hv))
    for k in range(1, k_last + 1):
        u = M @ u
        out[k] = float(np.mean(u * hv))
    return out


def test_rng_streams_reproducible_and_uniform():
    a = uniform_stream(7, 1000)
    b = uniform_stream(7, 1000)
    assert np.array_equal(a, b)
    # stream position is the counter: batching cannot change sample i
    assert np.array_equal(uniform_stream(7, 10, offset=5), a[5:15] * 0 + uniform_stream(7, 15)[5:15])
    assert abs(a.mean() - 0.5) < 0.05
    assert not np.array_equal(splitmix64(1, [0, 1]), splitmix64(2, [0, 1]))


def test_sample_mean_within_monte_carlo_error():
    # mean of S_n h / sqrt(n) is 0; the sample mean fluctuates at
    # sigma / sqrt(samples)
    s = birkhoff_samples(F2, COS, 4096, 20000, seed=7)
    assert s.exact_angles
    assert abs(np.mean(s.values)) < 3 * np.sqrt(0.5 / 20000)


def test_constant_observable_centered_to_zero():
    s = birkhoff_samples(F2, constant(1.0), 256, 100, seed=3)
    assert np.max(np.abs(s.values)) < 1e-10


def test_exact_iterator_matches_float_doubling_start():
    # the digit-window orbit is the doubling orbit of its own seed angle
    s = birkhoff_samples(F2, COS, 20, 50, seed=11)
    gen = exact_monomial_angles(2, 20, 50, 11)
    theta0 = next(iter(gen))
    acc = np.cos(theta0)
    th = theta0.copy()
    for _ in range(19):
        th = np.mod(2 * th, 2 * np.pi)
        acc += np.cos(th)
    # float doubling drifts a little; distributional agreement is loose
    assert np.max(np.abs(acc / np.sqrt(20) - s.values)) < 1e-6


def test_ks_self_consistency_on_injected_normals():
    rng = np.random.default_rng(0)
    vals = rng.normal(0.0, 1.0, 40000)
    sample = BirkhoffSample(n=1, values=vals, exact_angles=True)
    ks, ratio = clt_diagnostics(sample, 1.0)
    assert ks < 3.0 / np.sqrt(40000) * 1.63
    assert ratio == pytest.approx(1.0, abs=0.05)


def test_normal_cdf_matches_ndtr():
    h = 1.0 / math.sqrt(2.0)
    x = np.concatenate([np.linspace(-40.0, 40.0, 160_001),
                        [0.0, -0.0, h, -h, np.nextafter(h, 0.0), -np.nextafter(h, 0.0),
                         -38.0, -37.5, -8.3, 8.3, 38.0, 1e-300, -1e-300]])
    assert np.max(np.abs(normal_cdf(x) - ndtr(x))) <= 4.5e-16
    assert normal_cdf(0.0) == 0.5 and normal_cdf(-37.5) > 0.0


def test_clt_ks_statistic_unmoved_by_normal_cdf():
    s = birkhoff_samples(F2, COS, 512, 4000, seed=7)
    ks, _ = clt_diagnostics(s, 0.5)
    x = np.sort(s.values / np.sqrt(0.5))
    i = np.arange(1, len(x) + 1)
    ks_ndtr = max(np.max(i / len(x) - ndtr(x)), np.max(ndtr(x) - (i - 1) / len(x)))
    assert abs(ks - ks_ndtr) <= 1e-15


def test_degenerate_variance_rejected():
    sample = BirkhoffSample(n=1, values=np.zeros(10), exact_angles=True)
    with pytest.raises(DegenerateVariance):
        clt_diagnostics(sample, 0.0)


def test_coboundary_telescopes():
    # h = cos(2t) - cos(t) = z o F - z under doubling: S_n h stays bounded
    cob = Observable("cob", lambda t: np.cos(2 * np.asarray(t)) - np.cos(np.asarray(t)), 2)
    s = birkhoff_samples(F2, cob, 1024, 3000, seed=5)
    assert np.var(s.values) < 0.01


def test_green_kubo_monomial_exact():
    # orthogonality oracle: every composed correlation of cos vanishes
    assert green_kubo_variance(F2, COS) == pytest.approx(0.5, abs=1e-12)
    assert green_kubo_variance(F2, constant(0.0)) == pytest.approx(0.0, abs=1e-14)


def test_green_kubo_fh_closed_form():
    # c_k = (1/2) (F'(0))^k because the k-step correlation of e_1 picks the
    # first Taylor coefficient of F^k; the series sums to 1/6
    c = correlation_sequence(FH, COS, 12)
    want = 0.5 * (-0.5) ** np.arange(13)
    assert c == pytest.approx(want, abs=1e-12)
    assert green_kubo_variance(FH, COS) == pytest.approx(GK_FH_COS, abs=1e-12)


@pytest.mark.parametrize("a", [0.9, 0.97])
def test_green_kubo_slow_decay_closed_form(a):
    # c_k = (1/2) (-a)^k decays slowly near the circle, so a truncated
    # series misses most of the cancellation; sigma^2 = (1-a) / (2(1+a))
    F = BlaschkeMap((0j, a + 0j))
    assert green_kubo_variance(F, COS) == pytest.approx((1 - a) / (2 * (1 + a)), abs=1e-12)


@pytest.mark.parametrize("k", [512, 513, 1000])
def test_green_kubo_resolves_the_observable(k):
    # on 512 nodes cos(512 t) is 1 at every node and cos(513 t) reads as
    # cos t, so the variance read 0.0, 0.026 and 0.587 here; the grid now
    # grows to 2048 > 2k, where sigma^2 is 1/2 to 1.7e-14 (against 4096)
    F = BlaschkeMap((0j, 0.9 + 0j))
    assert green_kubo_variance(F, cos_k(k)) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("zeros", [(0.999, 0.5), (0.99j, -0.9), (0.9999, 0.3)],
                         ids=["0.999", "0.99i", "0.9999"])
@pytest.mark.parametrize("k", [1, 5])
def test_green_kubo_grid_does_not_move_the_variance(monkeypatch, zeros, k):
    # pressure reads sigma^2 on this grid whatever its --modes, which rests
    # on the weightless variance being the same on a finer grid: here zeros
    # near the circle make the slowest correlation decay; measured <= 7e-16
    F = BlaschkeMap((0j, *map(complex, zeros)))
    coarse = green_kubo_variance(F, cos_k(k))
    monkeypatch.setattr(stochastic, "_GREEN_KUBO_NODES", 1024)
    assert abs(green_kubo_variance(F, cos_k(k)) - coarse) <= 1e-13


def test_green_kubo_refuses_a_bandwidth_beyond_the_largest_grid():
    # cos(2048 t) needs more than 4096 nodes, the largest collocation grid
    with pytest.raises(ValueError, match="bandwidth 2048"):
        green_kubo_variance(FH, cos_k(2048))


def test_green_kubo_refuses_identity_map():
    # every correlation of the identity equals c_0, so the series diverges;
    # a truncated sum returned a finite number without complaint. The
    # rotation by 0.7 returned 3.3e-16, which `clt` sampled against before
    # raising DegenerateVariance
    for F in (BlaschkeMap.monomial(1), BlaschkeMap.monomial(1, 0.7)):
        with pytest.raises(NonDecaying):
            green_kubo_variance(F, COS)


def _resolvent_sizes(monkeypatch) -> list:
    """The node counts of the systems `deflated_resolvent` solves, in order."""
    sizes = []
    solve = stochastic.deflated_resolvent

    def spy(mat, *args):
        sizes.append(mat.shape[0])
        return solve(mat, *args)
    monkeypatch.setattr(stochastic, "deflated_resolvent", spy)
    return sizes


def test_green_kubo_solves_fh_on_the_coarsest_grid(monkeypatch):
    # FH's operator is resolved on 32 nodes, so the coarse solve and the
    # one correction at N = 512 certify there: two 32-node systems, and the
    # 512-node matrix is never assembled
    sizes = _resolvent_sizes(monkeypatch)
    assert green_kubo_variance(FH, COS) == pytest.approx(GK_FH_COS, abs=1e-12)
    assert sizes == [32, 32]


def test_green_kubo_corrects_cos1000_on_the_coarsest_grid(monkeypatch):
    # cos1000 needs N = 2048, and L cos1000 is not smooth under the zeros
    # {0, 0.9}, whose inverse branches contract by as little as 1/1.05; the
    # corrections on 32 nodes still certify it (58 of them), so no finer
    # system is solved
    sizes = _resolvent_sizes(monkeypatch)
    assert green_kubo_variance(A09, cos_k(1000)) == pytest.approx(0.5, abs=1e-10)
    assert set(sizes) == {32}
    assert len(sizes) <= 1 + stochastic._CORRECTIONS


def test_green_kubo_falls_back_to_one_dense_solve(monkeypatch):
    # a zero at 0.999 keeps the corrections of cos300 (N = 1024) above the
    # certificate: the 32-node grid is solved once and once per correction,
    # and then the 1024-node system once
    sizes = _resolvent_sizes(monkeypatch)
    green_kubo_variance(BlaschkeMap((0j, 0.999 + 0j)), cos_k(300))
    assert sizes == [32] * (1 + stochastic._CORRECTIONS) + [1024]


@pytest.mark.parametrize("F, h, bound", [
    # the 512-node matrix alone takes 2 MiB (4.3 MiB traced with the system
    # of its solve, when it was assembled); the two-grid solve holds the
    # NUFFT plan and 32-node systems, 1.1 MiB
    (FH, COS, 2 * 2**20),
    # the 4096-node matrix alone takes 128 MiB; a few corrections on 32
    # nodes certify cos2047, and the NUFFT plan at N leads the trace, 12 MiB
    (BlaschkeMap.monomial(3), cos_k(2047), 24 * 2**20),
], ids=["fh-cos", "z3-cos2047"])
def test_green_kubo_never_holds_the_n_node_matrix(F, h, bound):
    green_kubo_variance(F, h)
    tracemalloc.start()
    try:
        green_kubo_variance(F, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_correlations_match_direct_composition_quadrature():
    # independent route: iterate the grid angles and integrate the product
    N = 1 << 18
    grid = circle_grid(N)
    hv = np.cos(grid)
    cur = grid.copy()
    c = correlation_sequence(FH, COS, 6)
    for k in range(1, 7):
        cur = angle_map(FH, cur)
        direct = float(np.mean(hv * np.cos(cur)))
        assert direct == pytest.approx(c[k], abs=1e-8)


def test_variance_triangle():
    # Green-Kubo, pressure curvature, and Monte-Carlo agree pairwise
    from innerdyn.transfer import pressure_and_derivs
    gk = green_kubo_variance(FH, COS)
    rep = pressure_and_derivs(FH, COS)
    s = birkhoff_samples(FH, COS, 2048, 20000, seed=13)
    mc = np.var(s.values, ddof=1)
    assert abs(rep.ddp / gk - 1) < 0.05
    assert abs(mc / gk - 1) < 0.05
    assert abs(mc / rep.ddp - 1) < 0.05
    assert gk > 0


def test_clt_improves_with_orbit_length():
    # distributional distance shrinks from n=64 to n=4096 for three seeds
    for seed in (1, 2, 3):
        s64 = birkhoff_samples(F2, COS, 64, 20000, seed=seed)
        s4096 = birkhoff_samples(F2, COS, 4096, 20000, seed=seed)
        ks64, _ = clt_diagnostics(s64, 0.5)
        ks4096, _ = clt_diagnostics(s4096, 0.5)
        assert ks4096 < ks64


def test_general_degree_exact_iterator():
    s = birkhoff_samples(BlaschkeMap.monomial(3), COS, 256, 4000, seed=3)
    assert s.exact_angles
    ks, ratio = clt_diagnostics(s, 0.5)
    assert ks < 0.03
    assert ratio == pytest.approx(1.0, abs=0.1)
