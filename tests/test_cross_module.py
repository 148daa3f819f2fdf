"""Cross-module consistency and deeper-structure checks.

Asymmetric maps with complex zeros, depth >= 2 cylinder operators, the coded
circle system as a table potential, and Bernoulli closed forms as property
tests.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from innerdyn.blaschke import (BlaschkeMap, angle_map, boundary_preimages_batch,
                               circle_abs_deriv, clark_measure,
                               lyapunov_exponent)
from innerdyn.circle import TWO_PI, circle_grid
from innerdyn.coding import build_partition
from innerdyn.shift import (PotentialSpec, SymbolicSystem, cylinder_operator,
                            poincare_eta, pressure_derivs_shift, spectral_data)
from innerdyn.spectral import leading_spectral_data
from innerdyn.transfer import assemble_operator
from cylinder_oracle import cylinder_arc, cylinder_weight

# an asymmetric degree-3 product with genuinely complex zeros
FASYM = BlaschkeMap((0j, 0.3 + 0.4j, -0.15 - 0.35j), rotation=0.9)


def test_asymmetric_map_battery():
    # boundary modulus, Clark mass, invariance, spectral identity
    theta = circle_grid(2048)
    from innerdyn.blaschke import circle_values
    assert np.max(np.abs(np.abs(circle_values(FASYM, theta)) - 1)) < 1e-12
    cm = clark_measure(FASYM, 1.234)
    assert cm.total_mass == pytest.approx(1.0, abs=1e-10)
    assert len(cm.masses) == 3
    img = angle_map(FASYM, theta)
    for n in (1, 2, 5):
        assert abs(np.mean(np.exp(1j * n * img))) < 1e-9
    data = leading_spectral_data(assemble_operator(FASYM, 1.0, None, 256).matrix)
    assert abs(data.lam - 1.0) < 1e-10
    assert data.residual < 1e-8


def test_asymmetric_lyapunov_quadrature_oracle():
    val, err = quad(lambda t: math.log(float(circle_abs_deriv(FASYM, t))) / TWO_PI,
                    0.0, TWO_PI, epsabs=1e-12, epsrel=1e-12, limit=400)
    assert err < 1e-9
    assert lyapunov_exponent(FASYM) == pytest.approx(val, abs=1e-10)


def test_asymmetric_preimage_roundtrip():
    targets = np.linspace(0.1, TWO_PI - 0.1, 17)
    Y = boundary_preimages_batch(FASYM, targets)
    from innerdyn.blaschke import circle_values
    for i, t in enumerate(targets):
        back = np.angle(circle_values(FASYM, Y[i]) * np.exp(-1j * t))
        assert np.max(np.abs(back)) < 1e-10


# ---------------------------------------------------------------------------
# depth >= 2 cylinder operators
# ---------------------------------------------------------------------------

def test_depth_two_refinement_preserves_spectrum():
    # a depth-1 potential written on depth-2 cylinders has the same
    # eigenvalue and conformal masses aggregate consistently
    S = SymbolicSystem.full_shift(2)
    psi1 = PotentialSpec.from_letter_values(S, {1: -0.9, 2: -1.4})
    psi2 = PotentialSpec(2, {(a, b): psi1.values[(a,)]
                             for a in (1, 2) for b in (1, 2)})
    d1 = spectral_data(S, psi1, 1.3)
    d2 = spectral_data(S, psi2, 1.3)
    assert d2.lam == pytest.approx(d1.lam, abs=1e-12)
    m1 = d1.weights.real
    basis2 = S.cylinder_words(2)
    m2 = d2.weights.real
    for a in (1, 2):
        agg = sum(m2[i] for i, w in enumerate(basis2) if w[0] == a)
        assert agg == pytest.approx(m1[a - 1], abs=1e-10)


def test_depth_two_genuinely_two_dependent():
    # potential depending on two letters: eigenvalue against dense eig
    S = SymbolicSystem.full_shift(2)
    vals = {(1, 1): -0.7, (1, 2): -1.1, (2, 1): -0.9, (2, 2): -1.6}
    psi = PotentialSpec(2, vals)
    M = cylinder_operator(S, psi, 1.0, 0.0)
    lam_dense = np.max(np.abs(np.linalg.eigvals(M)))
    d = spectral_data(S, psi, 1.0)
    assert abs(d.lam) == pytest.approx(lam_dense, abs=1e-11)
    # eta cross-method still agrees on the refined basis
    r = poincare_eta(S, psi, None, 1.8, (1, 2, 1))
    assert r.agreement < 1e-10


def test_coded_circle_table_is_exactly_calibrated():
    # depth-k tables of the circle potential -log|F'| sampled through the
    # inverse branches: the fiber-mass identity sum 1/|F'| = 1 makes the
    # transfer matrix exactly stochastic, so lambda = 1 at EVERY depth, and
    # the table conformal masses converge to the cylinder arc measures
    F = BlaschkeMap((0j, 0.5 + 0j))
    P = build_partition(F, 0.0)
    S = SymbolicSystem.full_shift(2)
    mass_errs = []
    for k in (1, 2, 4, 6):
        vals = {}
        for w in S.cylinder_words(k):
            # e^{S_k psi} at the fiber point over a fixed generic target;
            # dividing by the weight of the shifted word (same target, since
            # F^{k-1}(F(y)) = F^k(y)) isolates the first-step share 1/|F'(y)|
            wt_full = cylinder_weight(P, w, 2.0)
            wt_tail = cylinder_weight(P, w[1:], 2.0) if k > 1 else 1.0
            vals[w] = math.log(wt_full / wt_tail)
        psi = PotentialSpec(k, vals)
        d = spectral_data(S, psi, 1.0)
        assert d.lam.real == pytest.approx(1.0, abs=1e-12)
        basis = S.cylinder_words(k)
        worst = max(abs(d.weights.real[i] - cylinder_arc(P, w).measure)
                    for i, w in enumerate(basis))
        mass_errs.append(worst)
    assert mass_errs[-1] < mass_errs[0]
    assert mass_errs[-1] < 5e-3


# ---------------------------------------------------------------------------
# Bernoulli closed forms as property tests
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-3.0, -0.2), min_size=2, max_size=6),
       st.sampled_from([1.0, 1.4, 2.2]))
@settings(max_examples=30, deadline=None)
def test_bernoulli_eigenvalue_closed_form(vals, s):
    S = SymbolicSystem.full_shift(len(vals))
    psi = PotentialSpec.from_letter_values(
        S, {i + 1: v for i, v in enumerate(vals)})
    lam = spectral_data(S, psi, s).lam.real
    assert lam == pytest.approx(sum(math.exp(s * v) for v in vals), rel=1e-11)


@given(st.lists(st.floats(-2.5, -0.3), min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_bernoulli_pressure_derivative_closed_form(vals):
    S = SymbolicSystem.full_shift(len(vals))
    psi = PotentialSpec.from_letter_values(
        S, {i + 1: v for i, v in enumerate(vals)})
    rep = pressure_derivs_shift(S, psi)
    Z = sum(math.exp(v) for v in vals)
    want = sum(v * math.exp(v) for v in vals) / Z   # d/ds log sum e^{s v} at 1
    assert rep.dp == pytest.approx(want, abs=1e-7)
    assert rep.mean_integral == pytest.approx(want, abs=1e-10)


def test_spectral_data_rejects_left_half_plane():
    S = SymbolicSystem.full_shift(2)
    psi = PotentialSpec.constant(S, -math.log(2))
    with pytest.raises(ValueError):
        spectral_data(S, psi, 0.5)


def test_cli_help_exits_cleanly(capsys):
    from innerdyn.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("spectrum", "pressure", "count", "clt", "kac",
                "parabolic-count", "holder-mod", "d-generic", "eta"):
        assert sub in out
