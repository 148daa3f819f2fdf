"""Doubly-parabolic maps: partition, Kac identity, counting."""

import math
import tracemalloc

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad

from innerdyn import parabolic
from innerdyn.errors import NoConvergence, NotDoublyParabolic
from innerdyn.parabolic import (ParabolicMap, _derivative_zeros, _f_df, _inverse,
                                _KacStrata, _kac_lhs, boundary_orbit,
                                build_parabolic, induced_cycle_multipliers,
                                kac_check, lyapunov_integral, parabolic_count,
                                real_markov_partition)
from innerdyn.shift import lattice_verdict
from inverse_oracle import ROOT_TOL, midpoint_inverse

BOOLE = build_parabolic([(0.0, 1.0)])
TWOPOLE = build_parabolic([(-1.0, 0.5), (1.0, 0.5)])
# adjacent poles, a tiny and a large mass, and three unequal poles
EXTRA_MAPS = [build_parabolic(p) for p in (
    [(-3.0, 1.0), (-2.0, 1.0)], [(0.0, 0.01)], [(0.0, 100.0)],
    [(-1.0, 2.0), (0.5, 0.1), (4.0, 3.0)])]


def test_construction():
    assert BOOLE.mass == 1.0
    assert TWOPOLE.mass == 1.0
    with pytest.raises(NotDoublyParabolic):
        build_parabolic([(0.0, 1.0)], translation=0.3)
    with pytest.raises(ValueError):
        build_parabolic([(0.0, -1.0)])
    with pytest.raises(ValueError):
        build_parabolic([(0.0, 1.0), (0.0, 2.0)])


def test_expansion_on_the_line():
    xs = np.linspace(-30, 30, 4001)
    xs = xs[np.min(np.abs(xs[:, None] - BOOLE.pole_locations[None, :]), axis=1) > 1e-3]
    assert np.all(BOOLE.deriv(xs) > 1.0)
    assert np.all(TWOPOLE.deriv(xs[np.abs(np.abs(xs) - 1) > 1e-3]) > 1.0)


def test_boundary_orbit_boole():
    pp = boundary_orbit(BOOLE, "+", 4)
    assert pp[0] == 0.0
    assert pp[1] == pytest.approx(1.0, abs=1e-12)            # x - 1/x = 0
    assert pp[2] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    pm = boundary_orbit(BOOLE, "-", 4)
    assert np.max(np.abs(pp + pm)) < 1e-12                   # odd symmetry


@pytest.mark.parametrize("P", [BOOLE, TWOPOLE] + EXTRA_MAPS, ids=ParabolicMap.label)
@pytest.mark.parametrize("side", ["+", "-"])
def test_boundary_orbit_long_residuals(P, side):
    # F' > 1 on the outer branch, so the residual bounds each point's error
    p = boundary_orbit(P, side, 200_000)
    sign = 1.0 if side == "+" else -1.0
    assert np.all(sign * np.diff(p) > 0)
    pole = P.pole_locations[-1] if side == "+" else P.pole_locations[0]
    assert p[0] == pole and np.all(sign * (p[1:] - pole) > 0)
    resid = np.abs(P(p[1:]) - p[:-1])
    assert np.all(resid <= 1e-13 * np.maximum(1.0, np.abs(p[1:])))


def test_partition_growth_law():
    part = real_markov_partition(BOOLE, 2000)
    gaps = np.diff(part.p_plus)
    # diam J_n ~ n^{-1/2}: the gap ratio at doubled index approaches 2^{-1/2}
    assert gaps[1600] / gaps[800] == pytest.approx(2 ** -0.5, abs=0.02)
    assert part.p_plus[-1] == pytest.approx(math.sqrt(2 * 2001), rel=0.05)


def test_kac_right_hand_side_closed_form():
    # int log(1 + 1/x^2) dx = 2 pi, verified independently by quadrature
    val, err = quad(lambda x: math.log1p(1.0 / x**2), 0, np.inf, limit=300)
    assert 2 * val == pytest.approx(2 * math.pi, abs=1e-9)
    assert lyapunov_integral(BOOLE) == pytest.approx(2 * math.pi, abs=1e-6)


def _quad_lyapunov(P):
    """int_R log F' by adaptive quadrature split at the poles."""
    bs = list(P.pole_locations)
    ends = [-np.inf] + bs + [np.inf]
    return sum(quad(lambda x: math.log(P.deriv(x)), lo, hi, epsabs=1e-12, limit=400)[0]
               for lo, hi in zip(ends[:-1], ends[1:]))


@pytest.mark.parametrize("P", [BOOLE, TWOPOLE] + EXTRA_MAPS, ids=ParabolicMap.label)
def test_lyapunov_integral_matches_quadrature(P):
    assert abs(lyapunov_integral(P) - _quad_lyapunov(P)) <= 1e-10


@pytest.mark.parametrize("t", [1e-8, 1e-2, 1.0, 1e2, 1e6])
def test_lyapunov_integral_one_pole_exact(t):
    # F'(z) = 1 + t/z^2 vanishes at i sqrt(t)
    assert lyapunov_integral(build_parabolic([(0.0, t)])) == \
        pytest.approx(2 * math.pi * math.sqrt(t), rel=1e-15)


def test_lyapunov_integral_counts_a_double_zero_twice():
    # poles at -1, 1 with mass 4: Q = (z^2 + 3)^2, a double zero at i sqrt(3)
    P = build_parabolic([(-1.0, 4.0), (1.0, 4.0)])
    r = _derivative_zeros(P)
    assert abs(r[0] - r[1]) <= 1e-14
    assert lyapunov_integral(P) == pytest.approx(4 * math.pi * math.sqrt(3.0), rel=1e-14)


def test_derivative_zeros_refuses_collapsed_seeds(monkeypatch):
    # both seeds on one simple zero: the pair is re-polished on F'', lands
    # off every zero of F' and must not be summed
    r = _derivative_zeros(TWOPOLE)[0]
    monkeypatch.setattr(npp, "polyroots", lambda c: np.array([r, r, r.conjugate(), r.conjugate()]))
    with pytest.raises(NoConvergence):
        lyapunov_integral(TWOPOLE)


@given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-6.0, 2.0)),
                min_size=1, max_size=4))
def test_derivative_zeros_residual_property(poles):
    bs = sorted(b for b, _ in poles)
    assume(all(hi - lo > 1e-3 for lo, hi in zip(bs[:-1], bs[1:])))
    P = build_parabolic([(b, 10.0**e) for b, e in poles])
    ts = np.array([t for _, t in P.poles])
    r = _derivative_zeros(P)
    assert len(r) == len(bs) and np.all(r.imag > 0)
    d = r[:, None] - P.pole_locations
    res = np.abs(1.0 + np.sum(ts / d**2, axis=1))
    assert np.all(res <= 1e-12 * (1.0 + np.sum(ts / np.abs(d) ** 2, axis=1)))
    val = lyapunov_integral(P)
    assert math.isfinite(val) and val > 0


@pytest.mark.parametrize("N", [2, 5, 10])
def test_kac_identity_boole(N):
    # loose tail budget keeps the unit test quick; acceptance runs the
    # strict one-percent version
    rep = kac_check(BOOLE, N, tail_frac=0.05)
    assert 0.99 <= rep.ratio <= 1.01
    assert rep.tail_fraction <= 0.05


def test_kac_identity_two_pole():
    rep = kac_check(TWOPOLE, 5, tail_frac=0.05)
    assert 0.99 <= rep.ratio <= 1.01


@pytest.mark.parametrize("P,N,caps", [(BOOLE, 2, [10**4, 229_342, 458_684]),
                                      (BOOLE, 5, [10**4, 214_759, 429_518]),
                                      (TWOPOLE, 3, [10**4, 129_831])],
                         ids=["boole-2", "boole-5", "twopole-3"])
def test_kac_identity_resolved(P, N, caps):
    # default one-percent tail budget: the strata beyond level 2^14 are
    # resolved, so what is left is the tail fit
    rep = kac_check(P, N)
    assert abs(rep.ratio - 1.0) <= 1e-7
    assert rep.caps == caps and rep.cap == caps[-1]
    # the table grown through every cap equals one built at the last cap
    direct = kac_check(P, N, cap0=rep.cap)
    assert direct.caps == [rep.cap]
    assert (direct.lhs, direct.computed_mass) == (rep.lhs, rep.computed_mass)


def test_kac_two_point_tail_matches_full_rule(monkeypatch):
    # reference: every stratum up to the cap under the q-point rule
    cap, rhs = 65_536, lyapunov_integral(BOOLE)
    lhs, _tail, _mass = _kac_lhs(_KacStrata(BOOLE, 2), cap)
    monkeypatch.setattr(parabolic, "_N_FINE", cap)
    ref, _tail, _mass = _kac_lhs(_KacStrata(BOOLE, 2), cap)
    assert abs(lhs - ref) / rhs <= 1e-8


def test_kac_strata_grow_in_bounded_blocks():
    # one jump of the two-pole table from cap 10^4 to 129,831, as kac_check
    # makes at level 3: streaming each side's new levels through blocks of
    # 2^14 levels, and keeping per level only the stratum integral and
    # length, holds the peak near 16 MB with six-point strata (18.8 MB with
    # twelve, about 25 MB when every branch kept its preimages and
    # re-concatenated its arrays per block, 40 MB when all new levels were
    # solved at once)
    strata = _KacStrata(TWOPOLE, 3)
    strata.grow(10**4)
    tracemalloc.start()
    try:
        strata.grow(129_831)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 17e6


def test_kac_strata_frozen_values():
    # the excursion strata alone, grown in two steps as kac_check grows them
    # at level 3; frozen bits of the six-point strata and the centred fit
    strata = _KacStrata(TWOPOLE, 3)
    strata.fixed = 0.0
    _kac_lhs(strata, 10**4)
    assert _kac_lhs(strata, 129_831) == (4.198349136267765, 0.0844761172330708,
                                         5.495934344178275)


@pytest.mark.parametrize("P,N", [(TWOPOLE, 3), (BOOLE, 2)], ids=["twopole-3", "boole-2"])
def test_kac_six_point_strata_match_twelve(monkeypatch, P, N):
    # at cap 2^15 both tiers run (the q-point rule to level 2^14, the
    # two-point rule beyond); four points miss by 6e-13 and 4e-12
    lhs, _tail, _mass = _kac_lhs(_KacStrata(P, N), 1 << 15)
    monkeypatch.setattr(parabolic, "_KAC_QUAD_POINTS", 12)
    ref, _tail, _mass = _kac_lhs(_KacStrata(P, N), 1 << 15)
    assert abs(lhs - ref) <= 1e-13 * abs(ref)


def test_kac_tail_fit_is_least_squares():
    # the centred normal equations against LAPACK's least squares of
    # c0 + c1 log n over the levels n > cap / 8
    strata = _KacStrata(TWOPOLE, 3)
    cap = 129_831
    _lhs, tail, _mass = _kac_lhs(strata, cap)
    ns = np.arange(strata.N + 1, cap + 1, dtype=float)
    sel = ns > cap / 8
    A = np.vstack([np.ones(int(np.sum(sel))), np.log(ns[sel])]).T
    ref = 0.0
    for _side, _chains, branches in strata.sides:
        for br in branches:
            coef, *_ = np.linalg.lstsq(A, (br.contrib / br.lengths)[sel], rcond=None)
            ref += abs(br.last - br.pole_end) * (coef[0] + coef[1] * (math.log(cap) + 2.0))
    assert abs(tail - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("b,t,tol", [(10.0, 0.1, 1e-4), (100.0, 1e-3, 1e-3)])
def test_kac_identity_light_separated_poles(b, t, tol):
    # log F' peaks steeply at the poles +-b next to the ends of the time-1
    # strata; one 12-point panel missed the middle stratum by -0.9% of the
    # rhs at (+-10, 0.1) and by -22% at (+-100, 1e-3)
    rep = kac_check(build_parabolic([(-b, t), (b, t)]), 2)
    assert abs(rep.ratio - 1.0) <= tol


@given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-4.0, 2.0)), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.floats(-12.0, 1.0), st.sampled_from([-1.0, 1.0])),
                min_size=1, max_size=20),
       st.floats(-1e3, 1e3))
def test_fused_map_and_derivative_are_bit_exact(poles, near, far):
    # x within 10^e of a pole (e down to -12), and one point anywhere
    P = build_parabolic([(b, 10.0**e) for b, e in dict(poles).items()])
    bs = P.pole_locations
    x = np.array([bs[i % len(bs)] + s * 10.0**e for i, e, s in near] + [far])
    assume(np.all(np.abs(x[:, None] - bs) > 1e-13))
    for arr in (x, x.reshape(-1, 1)[::-1]):
        f, df = _f_df(P, arr)
        assert f.tobytes() == P(arr).tobytes()
        assert df.tobytes() == P.deriv(arr).tobytes()


def test_kac_mass_decomposition():
    # the strata tile X: directly integrated mass plus the exact remainder
    # equals the length of the core interval
    rep = kac_check(BOOLE, 5, tail_frac=0.05)
    part = real_markov_partition(BOOLE, 5)
    lo, hi = part.core
    assert rep.computed_mass == pytest.approx(hi - lo, abs=1e-9)


@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-2.0, 2.0)),
                min_size=1, max_size=3),
       st.integers(0, 3),
       st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 6.0)),
                min_size=1, max_size=8))
def test_inverse_pole_seed_matches_midpoint_start(poles, branch, targets):
    bs = sorted(b for b, _ in poles)
    assume(all(hi - lo > 1e-2 for lo, hi in zip(bs[:-1], bs[1:])))
    P = build_parabolic([(b, 10.0**e) for b, e in poles])
    ends = [-np.inf] + list(P.pole_locations) + [np.inf]
    i = branch % (len(ends) - 1)
    lo, hi = ends[i], ends[i + 1]
    y = np.array([s * 10.0**e for s, e in targets])
    x = _inverse(P, lo, hi, y)
    ref = midpoint_inverse(P, lo, hi, y)
    assert np.all((lo < x) & (x < hi))
    assert np.all(np.abs(x - ref) <= 1e-14 * np.maximum(1.0, np.abs(x)))
    # the stopping rule: one more Newton step would move x by less than
    # ROOT_TOL * max(1, |x|)
    assert np.all(np.abs(P(x) - y) / P.deriv(x) <= ROOT_TOL * np.maximum(1.0, np.abs(x)))


def test_inverse_pole_seed_far_tail(monkeypatch):
    # Kac stratum boundaries: preimages of p_n up to n = 2^17 on J_1^+
    P = TWOPOLE
    p = boundary_orbit(P, "-", 1 << 17)
    b, q = float(P.pole_locations[-1]), float(boundary_orbit(P, "+", 2)[1])
    x = _inverse(P, b, q, p[3:])
    ref = midpoint_inverse(P, b, q, p[3:])
    assert np.all(np.abs(x - ref) <= 1e-14 * np.maximum(1.0, np.abs(x)))
    # the quadratic pole model seeds the far tail within Newton's reach: one
    # step and its check
    rounds = []
    monkeypatch.setattr(parabolic, "_f_df", lambda P, x: rounds.append(x.size) or _f_df(P, x))
    assert np.array_equal(_inverse(P, b, q, p[1024:]), x[1021:])
    assert len(rounds) <= 2


def test_lebesgue_invariance_pointwise():
    # sum over branches of 1/F' at the preimages is identically 1
    for P in [BOOLE, TWOPOLE] + EXTRA_MAPS:
        bs = list(P.pole_locations)
        branches = [(-np.inf, bs[0])] + \
            [(bs[i], bs[i + 1]) for i in range(len(bs) - 1)] + [(bs[-1], np.inf)]
        rng = np.random.default_rng(2)
        for y in rng.uniform(-5, 5, 25):
            total = 0.0
            for lo, hi in branches:
                x = _inverse(P, lo, hi, float(y))
                total += 1.0 / P.deriv(x)
            assert total == pytest.approx(1.0, abs=1e-10)


def test_lebesgue_invariance_bump_integral():
    # int g(F(x)) dx = int g dx for a smooth bump, by per-branch substitution
    def bump(y):
        out = np.zeros_like(y)
        m = np.abs(y) < 2.0
        out[m] = np.exp(-1.0 / (1 - (y[m] / 2.0) ** 2))
        return out

    gl_y, gl_w = np.polynomial.legendre.leggauss(200)
    ys = 2.0 * gl_y
    direct = float(np.sum(gl_w * bump(ys)) * 2.0)
    total = 0.0
    bs = list(BOOLE.pole_locations)
    for lo, hi in [(-np.inf, bs[0]), (bs[0], np.inf)]:
        xs = _inverse(BOOLE, lo, hi, ys)
        total += float(np.sum(gl_w * bump(ys) / BOOLE.deriv(xs)) * 2.0)
    assert total == pytest.approx(direct, abs=1e-6)


def test_induced_summability():
    # stratum sums sum sup (log Fhat')^{1+eps} e^{-log Fhat'} converge:
    # weights ~ n^{-3/2} (log n)^{1+eps} summable; partial sums stabilize
    part = real_markov_partition(BOOLE, 1)
    p = boundary_orbit(BOOLE, "-", 3002)
    xb = _inverse(BOOLE, 0.0, 1.0, p[1:3002])
    lengths = np.abs(np.diff(xb))
    # log Fhat' on the stratum exiting to J_n is at least log F'(x) with x
    # near the pole; the Kac weight bound uses the interval-size law
    ns = np.arange(2, 3001)
    logw = 1.5 * np.log(ns) + 1.0
    terms = (logw ** 1.5) * np.exp(-logw)
    partial = np.cumsum(terms)
    assert partial[-1] - partial[len(partial) // 2] < 0.05 * partial[-1]
    assert lengths[10] / lengths[100] == pytest.approx((110 / 11.0) ** 1.5, rel=0.3)


def test_boole_symmetry_of_structures():
    part = real_markov_partition(BOOLE, 8)
    assert np.max(np.abs(part.p_plus + part.p_minus)) < 1e-12
    led_r = parabolic_count(BOOLE, 0.4, 7.0, [(0.0, 1.0)], N=1)
    led_l = parabolic_count(BOOLE, -0.4, 7.0, [(-1.0, 0.0)], N=1)
    assert led_r.total == led_l.total


def test_parabolic_count_events_verify_forward():
    led = parabolic_count(BOOLE, 0.5, 5.0, [(-1.0, 1.0)], N=1)
    for v, z in zip(led.values[1:], led.locations[1:]):
        acc, y, hit = 0.0, float(z), False
        for _ in range(400):
            acc += float(np.log(BOOLE.deriv(y)))
            y = float(BOOLE(y))
            if abs(y - 0.5) < 1e-7:
                hit = abs(acc - v) < 1e-6
                break
        assert hit


def test_parabolic_count_ratio():
    led = parabolic_count(BOOLE, 0.5, 10.0, [(-1.0, 1.0)], N=1)
    pred = 2.0 / lyapunov_integral(BOOLE)
    ratio = led.count(10.0, strict=False) * math.exp(-10.0) / pred
    assert abs(ratio - 1.0) <= 0.15


def test_parabolic_count_level_independence():
    # counting events inside B does not depend on which core interval is used
    a = parabolic_count(BOOLE, 0.5, 9.0, [(-1.0, 1.0)], N=1)
    b = parabolic_count(BOOLE, 0.5, 9.0, [(-1.0, 1.0)], N=3)
    assert a.count(9.0, strict=False) == b.count(9.0, strict=False)


def test_parabolic_count_trivial_cases():
    assert parabolic_count(BOOLE, 0.5, 0.5, [(-1.0, 1.0)], N=1).total == 1
    assert parabolic_count(BOOLE, 0.5, 0.5, [(0.6, 1.0)], N=1).total == 0
    assert parabolic_count(BOOLE, 0.5, -1.0, [(-1.0, 1.0)], N=1).total == 0


@pytest.mark.parametrize("B", [[(-5.0, 5.0)], [(1.0, -1.0)], [(0.5, 0.5)],
                               [(-1.0, 1.0), (0.9, 1.1)]])
def test_parabolic_count_refuses_intervals_outside_the_core(B):
    # at level 1 the Boole core is X = [-1, 1]: (-5, 5) would be compared
    # with m(B) = 10, and (1, -1) would count nothing against a negative m(B)
    with pytest.raises(ValueError, match="core"):
        parabolic_count(BOOLE, 0.5, 6.0, B, N=1)


def test_induced_multipliers_generic():
    L = induced_cycle_multipliers(BOOLE, range(2, 8))
    assert np.all(np.diff(L) > 0)
    diffs = np.diff(induced_cycle_multipliers(BOOLE, range(2, 30)))
    assert diffs[-1] < diffs[0]          # L_{n+1} - L_n -> 0
    assert lattice_verdict(L).kind == "generic"


def test_induced_cycle_is_periodic():
    # the n = 4 cycle point really has period 5 under F
    pp = boundary_orbit(BOOLE, "+", 6)
    L = induced_cycle_multipliers(BOOLE, [4])
    # reconstruct the fixed point and check F^5 returns to it
    chain = [(float(boundary_orbit(BOOLE, '-', 2)[1]), 0.0), (0.0, float(pp[1])),
             (float(pp[1]), float(pp[2])), (float(pp[2]), float(pp[3])),
             (float(pp[3]), float(pp[4]))]
    z = 0.5 * (pp[3] + pp[4])
    for _ in range(100):
        w = z
        for lo, hi in chain:
            w = _inverse(BOOLE, lo, hi, w)
        z = w
    orbit = [z]
    for _ in range(5):
        orbit.append(float(BOOLE(orbit[-1])))
    assert orbit[5] == pytest.approx(z, abs=1e-9)
    assert float(np.sum(np.log(BOOLE.deriv(np.array(orbit[:5]))))) == \
        pytest.approx(L[0], abs=1e-9)
