"""Core Blaschke-product primitives against independent oracles."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from innerdyn.blaschke import (BlaschkeMap, angle_map,
                               boundary_preimages, circle_abs_deriv,
                               circle_values, clark_measure, disk_preimages,
                               eval_and_deriv, koenigs, lyapunov_exponent,
                               multiplier_at_zero, nevanlinna,
                               periodic_points)
from innerdyn.circle import TWO_PI, circle_grid
from innerdyn.errors import BudgetExceeded, LogSingularity

F2 = BlaschkeMap.monomial(2)
F3 = BlaschkeMap.monomial(3)
FH = BlaschkeMap((0j, 0.5 + 0j))                      # z(z-1/2)/(1-z/2)
LYAP_FH = np.log((2 + np.sqrt(3)) / 2)                # Jensen formula oracle

small_zero = st.complex_numbers(max_magnitude=0.6, allow_nan=False,
                                allow_infinity=False)
angle = st.floats(0.0, TWO_PI, exclude_max=True)


def random_map(zs, rot=0.0):
    return BlaschkeMap((0j,) + tuple(zs), rot)


# ---------------------------------------------------------------------------
# evaluation and differentiation
# ---------------------------------------------------------------------------

def test_monomial_eval_at_i():
    v, d = eval_and_deriv(F2, 1j)
    assert v == pytest.approx(-1.0)
    assert d == pytest.approx(2j)


def test_fh_boundary_derivative_poisson_oracle():
    # |F'| on the circle equals 1 + (1 - 1/4)/|z - 1/2|^2
    v, d = eval_and_deriv(FH, 1.0 + 0j)
    assert v == pytest.approx(1.0)
    assert abs(d) == pytest.approx(1.0 + 0.75 / 0.25, abs=1e-12)
    v, d = eval_and_deriv(FH, -1.0 + 0j)
    assert v == pytest.approx(1.0)
    assert abs(d) == pytest.approx(1.0 + 0.75 / 2.25, abs=1e-12)


def test_multiplier_at_zero():
    assert multiplier_at_zero(FH) == pytest.approx(-0.5)


@given(st.lists(small_zero, min_size=0, max_size=3),
       st.complex_numbers(max_magnitude=0.85, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_derivative_matches_finite_differences(zs, z):
    # independent oracle: fourth-order central differences in the disk
    F = random_map(zs)
    h = 1e-5
    _, d = eval_and_deriv(F, z)
    vals = [eval_and_deriv(F, z + k * h)[0] for k in (-2, -1, 1, 2)]
    fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
    assert d == pytest.approx(fd, abs=1e-8, rel=1e-7)


def test_boundary_modulus_one():
    theta = circle_grid(256)
    for F in (F2, F3, FH, random_map([0.3 + 0.4j, -0.2j])):
        assert np.max(np.abs(np.abs(circle_values(F, theta)) - 1)) < 1e-12


# ---------------------------------------------------------------------------
# boundary preimages
# ---------------------------------------------------------------------------

def test_preimages_monomial():
    assert boundary_preimages(F2, 0.0) == pytest.approx([0.0, np.pi], abs=1e-12)
    assert boundary_preimages(F3, np.pi) == pytest.approx(
        [np.pi / 3, np.pi, 5 * np.pi / 3], abs=1e-12)


def test_preimages_fh():
    # z(z - 1/2) = (1 - z/2) at the preimages of 1, i.e. z^2 = 1
    assert boundary_preimages(FH, 0.0) == pytest.approx([0.0, np.pi], abs=1e-12)


@given(st.lists(small_zero, min_size=1, max_size=3),
       st.floats(0, 2 * np.pi - 1e-9))
@settings(max_examples=40, deadline=None)
def test_preimage_roundtrip(zs, target):
    F = random_map(zs)
    ys = boundary_preimages(F, target)
    assert len(ys) == F.degree
    back = np.angle(circle_values(F, ys) * np.exp(-1j * target))
    assert np.max(np.abs(back)) < 1e-10
    assert np.all(np.diff(ys) > 0)


# ---------------------------------------------------------------------------
# Clark measures
# ---------------------------------------------------------------------------

def test_clark_monomial_symmetry():
    cm = clark_measure(F2, 0.0)
    assert cm.locations == pytest.approx([0.0, np.pi], abs=1e-12)
    assert cm.masses == pytest.approx([0.5, 0.5], abs=1e-12)
    for d in (2, 3, 5):
        cm = clark_measure(BlaschkeMap.monomial(d), 1.234)
        assert cm.masses == pytest.approx([1.0 / d] * d, abs=1e-12)


def test_clark_fh_masses():
    cm = clark_measure(FH, 0.0)
    assert cm.locations == pytest.approx([0.0, np.pi], abs=1e-10)
    assert cm.masses == pytest.approx([0.25, 0.75], abs=1e-10)
    assert cm.total_mass == pytest.approx(1.0, abs=1e-10)


@given(st.lists(small_zero, min_size=0, max_size=3),
       st.floats(0, 2 * np.pi - 1e-9))
@settings(max_examples=40, deadline=None)
def test_clark_unit_mass(zs, alpha):
    cm = clark_measure(random_map(zs), alpha)
    assert cm.total_mass == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------

def test_lyapunov_monomials():
    for d in (2, 3, 4):
        assert lyapunov_exponent(BlaschkeMap.monomial(d)) == pytest.approx(
            np.log(d), abs=1e-12)


def test_lyapunov_rotation_is_zero():
    assert lyapunov_exponent(BlaschkeMap.monomial(1, rotation=1.0)) == \
        pytest.approx(0.0, abs=1e-13)


def test_lyapunov_fh_adaptive_quadrature_oracle():
    # adaptive quadrature at tolerance 1e-12, plus the frozen Jensen value
    val, err = quad(lambda t: np.log(float(circle_abs_deriv(FH, t))) / (2 * np.pi),
                    0.0, 2 * np.pi, epsabs=1e-12, epsrel=1e-12, limit=300)
    assert err < 1e-10
    assert lyapunov_exponent(FH) == pytest.approx(val, abs=1e-10)
    assert lyapunov_exponent(FH) == pytest.approx(LYAP_FH, abs=1e-12)
    assert 0.0 < lyapunov_exponent(FH) < np.log(2)   # strict Jensen inequality


@pytest.mark.parametrize("a", [0.999, 0.9999, 0.99999])
def test_lyapunov_sizes_its_rule_for_zeros_near_the_circle(a):
    # Jensen's formula for z(z-a)/(1-az), as LYAP_FH at a = 1/2; a fixed
    # 4096-point rule misses it by 8.2e-6, 5.3e-4 and 1.6e-3 here
    F = BlaschkeMap((0j, complex(a)))
    assert lyapunov_exponent(F) == pytest.approx(np.log1p(np.sqrt(1 - a * a)), abs=1e-13)


def test_lyapunov_refuses_a_rule_over_budget_at_once():
    F = BlaschkeMap((0j, complex(1 - 1e-7)))
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="circle nodes"):
        lyapunov_exponent(F)
    assert time.perf_counter() - t0 < 0.1


# ---------------------------------------------------------------------------
# disk preimages and the counting identity
# ---------------------------------------------------------------------------

def test_disk_preimages_examples():
    roots = disk_preimages(F2, 0.25)
    assert sorted(r.real for r in roots) == pytest.approx([-0.5, 0.5], abs=1e-12)
    roots = disk_preimages(F3, -0.125)   # cube roots of -1/8
    assert np.abs(roots) == pytest.approx([0.5] * 3, abs=1e-12)


def test_disk_preimages_fh_zeros():
    # w near 0 recovers the zeros of the product
    roots = disk_preimages(FH, 1e-12)
    assert sorted(abs(r) for r in roots) == pytest.approx([0.0, 0.5], abs=1e-5)


def test_disk_preimage_residuals():
    rng = np.random.default_rng(5)
    for F in (F2, FH, F3, random_map([0.3 + 0.4j])):
        for _ in range(10):
            w = (0.05 + 0.85 * rng.random()) * np.exp(2j * np.pi * rng.random())
            roots = disk_preimages(F, w)
            for r in roots:
                val, _ = eval_and_deriv(F, r)
                assert abs(val - w) < 1e-10


def test_nevanlinna_identity():
    assert nevanlinna(F2, 0.25) == pytest.approx(np.log(4.0), abs=1e-10)
    assert nevanlinna(FH, 0.3) == pytest.approx(np.log(1 / 0.3), abs=1e-8)
    assert nevanlinna(FH, 0.3j) == pytest.approx(np.log(1 / 0.3), abs=1e-8)


def test_nevanlinna_origin_singularity():
    # a preimage within 1e-14 of the origin is flagged, not summed
    with pytest.raises(LogSingularity):
        nevanlinna(FH, 1e-20)


@given(st.lists(st.complex_numbers(max_magnitude=0.97, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=6),
       angle, st.floats(0.01, 0.99), angle)
@settings(max_examples=150)
def test_disk_preimages_property(zs, rot, r, phi):
    # d roots inside the disk, each solving F(z) = w; clustered zeros near
    # the circle are where the polynomial form alone loses accuracy
    F = random_map(zs, rot)
    w = r * np.exp(1j * phi)
    roots = disk_preimages(F, w)
    assert len(roots) == F.degree
    assert np.all(np.abs(roots) < 1.0)
    assert max(abs(eval_and_deriv(F, z)[0] - w) for z in roots) <= 1e-10


# ---------------------------------------------------------------------------
# Koenigs coordinate
# ---------------------------------------------------------------------------

def test_koenigs_fixed_point():
    assert koenigs(FH, 0j, 17) == 0


def test_koenigs_functional_equation():
    z = 0.3 + 0j
    Fz, _ = eval_and_deriv(FH, z)
    resid = abs(koenigs(FH, Fz, 40) - multiplier_at_zero(FH) * koenigs(FH, z, 40))
    assert resid < 1e-10


def test_koenigs_tangency():
    val = koenigs(FH, 1e-8, 40)
    assert abs(val - 1e-8) / 1e-8 < 1e-6


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------

def test_periodic_points_monomial():
    pts = periodic_points(F2, 3)
    assert len(pts) == 7
    assert [p.angle for p, _ in pts] == pytest.approx(
        [2 * np.pi * k / 7 for k in range(7)], abs=1e-10)
    assert [m for _, m in pts] == pytest.approx([8.0] * 7, abs=1e-8)
    pts = periodic_points(F2, 1)
    assert len(pts) == 1 and pts[0][0].angle == pytest.approx(0.0, abs=1e-10)
    assert pts[0][1] == pytest.approx(2.0, abs=1e-10)


def test_periodic_points_fh():
    pts = periodic_points(FH, 1)
    assert len(pts) == 1
    assert pts[0][0].angle == pytest.approx(0.0, abs=1e-10)
    assert pts[0][1] == pytest.approx(4.0, abs=1e-8)


def _check_periodic_points(F, n):
    # lift_n(t) - t gains 2*pi*(d^n - 1) per turn, so d^n - 1 distinct
    # fixed points of F^n are all of them
    pts = periodic_points(F, n)
    ang = np.array([p.angle for p, _ in pts])
    mult = np.array([m for _, m in pts])
    assert len(pts) == F.degree**n - 1
    assert np.all(np.diff(np.append(ang, ang[0] + TWO_PI)) > 1e-12)
    cur, fwd = ang.copy(), np.ones_like(ang)
    for _ in range(n):
        fwd *= circle_abs_deriv(F, cur)
        cur = angle_map(F, cur)
    # forward rounding grows with the multiplier, so the residual scales with it
    assert np.all(np.abs(np.exp(1j * cur) - np.exp(1j * ang)) <= 1e-13 * mult)
    assert np.allclose(mult, fwd, rtol=1e-7, atol=0.0)


@given(st.lists(st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=2),
       angle, st.integers(1, 6))
@settings(max_examples=100)
def test_periodic_points_complete(zs, rot, n):
    _check_periodic_points(random_map(zs, rot), n)


@pytest.mark.parametrize("n", range(1, 7))
def test_periodic_points_nearly_neutral(n):
    # min |F'| ~ 1.026: plain Newton on t = G_k(t) diverges at period 1
    _check_periodic_points(random_map([-0.95j], 2.0), n)


def test_periodic_points_fh_period_12():
    # the turns of k enter one base-d digit per inverse step; adding all of
    # 2*pi*k ~ 2.6e4 up front loses the last digits of some points
    _check_periodic_points(FH, 12)


def test_periodic_points_fh_fast():
    start = time.perf_counter()
    counts = [len(periodic_points(FH, n)) for n in range(1, 11)]
    assert time.perf_counter() - start < 2.0
    assert counts == [2**n - 1 for n in range(1, 11)]


# ---------------------------------------------------------------------------
# measure-theoretic invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F", [F2, F3, FH], ids=["z2", "z3", "fh"])
def test_lebesgue_invariance(F):
    theta = circle_grid(4096)
    img = angle_map(F, theta)
    for n in range(-16, 17):
        lhs = np.mean(np.exp(1j * n * img))
        want = 1.0 if n == 0 else 0.0
        assert abs(lhs - want) < 1e-9


def test_mixing_decay():
    # correlation of e_1 against e_1 composed with F^k tends to zero; for a
    # centered map it equals the first Taylor coefficient of F^k, hence
    # decays like |F'(0)|^k (oracle: (-1/2)^k for this map)
    theta = circle_grid(1 << 15)
    cur = theta.copy()
    vals = []
    for _ in range(8):
        cur = angle_map(FH, cur)
        vals.append(abs(np.mean(np.exp(1j * theta) * np.exp(-1j * cur))))
    for k, v in enumerate(vals, start=1):
        assert v == pytest.approx(0.5 ** k, abs=1e-4)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_disintegration():
    # integrating the Clark fiber averages over alpha recovers Lebesgue
    alphas = circle_grid(1024)
    atoms = np.array([clark_measure(FH, a).fourier(1) for a in alphas])
    for n in (1, 2, 7, 16):
        fib = np.array([clark_measure(FH, a).fourier(n) for a in alphas]) \
            if n != 1 else atoms
        assert abs(np.mean(fib)) < 1e-8


def test_equidistribution_of_iterated_fibers():
    # Fourier coefficients of the Clark measures of F^n tend to zero
    from innerdyn.blaschke import boundary_preimages_batch
    alpha = 0.7
    prev = None
    for n in (1, 4, 8):
        # preimage tree of depth n gives the fiber of F^n
        pts = np.array([alpha])
        for _ in range(n):
            pts = boundary_preimages_batch(FH, pts).ravel()
        masses = 1.0 / _chain_deriv(FH, pts, n)
        coeffs = [abs(np.sum(masses * np.exp(1j * k * pts)))
                  for k in (1, 2, 3, 4)]
        if prev is not None:
            assert max(coeffs) < prev
        prev = max(coeffs)
    assert prev < 0.05


def _chain_deriv(F, pts, n):
    out = np.ones_like(pts)
    cur = pts.copy()
    for _ in range(n):
        out *= circle_abs_deriv(F, cur)
        cur = angle_map(F, cur)
    return out


def test_uniform_expansion():
    theta = circle_grid(4096)
    for F in (F2, F3, FH, random_map([0.3 + 0.4j, -0.5j])):
        assert np.min(circle_abs_deriv(F, theta)) > 1.0
