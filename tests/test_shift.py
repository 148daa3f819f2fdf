"""Symbolic thermodynamics: primitivity, spectra, pressure, eta, counting."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innerdyn.errors import BudgetExceeded, NoConvergence, NotPrimitive
from innerdyn.shift import (PotentialSpec, SymbolicSystem, _holder_norm,
                            _holder_norm_data, calibrate, count_words,
                            cylinder_operator, d_genericity,
                            equilibrium_cylinder_masses, holder_modulus_in_s,
                            lattice_verdict, periodic_birkhoff_values,
                            poincare_eta, pressure_derivs_shift, spectral_data)

LOG2, LOG3, LOG6 = math.log(2), math.log(3), math.log(6)

S2 = SymbolicSystem.full_shift(2)
S3 = SymbolicSystem.full_shift(3)
PSI2 = PotentialSpec.constant(S2, -LOG2)
PSI3 = PotentialSpec.from_letter_values(
    S3, {1: -LOG2, 2: -LOG3, 3: -LOG6})


def golden():
    return SymbolicSystem(np.array([[1, 1], [1, 0]]))


def gauss_like(m=200):
    # letter n carries weight 1/(n+1)^2; square-summable with heavy tail
    S = SymbolicSystem.full_shift(m)
    psi = PotentialSpec(1, {(n,): -2 * math.log(n + 1) for n in range(1, m + 1)},
                        alpha=1.0)
    return S, psi


# ---------------------------------------------------------------------------
# primitivity
# ---------------------------------------------------------------------------

def test_full_shift_primitive_at_length_one():
    assert S2.is_primitive
    # every letter pair is joined by a word of length one: A^2 > 0
    assert np.all(S2.incidence @ S2.incidence > 0)


def test_golden_mean_primitivity_exhaustive_oracle():
    # independent oracle: search all (a, tau, b) with |tau| = l directly
    g = golden()

    def oracle():
        for ell in range(1, 9):
            words = g.cylinder_words(ell)
            ok = all(any(g.word_admissible((a,) + tau + (b,)) for tau in words)
                     for a in (1, 2) for b in (1, 2))
            if ok:
                return ell
        return None

    assert g.is_primitive and oracle() == 1
    # the witness verifies: every pair is connected by some word of length one
    for a in (1, 2):
        for b in (1, 2):
            assert any(g.word_admissible((a,) + tau + (b,)) for tau in g.cylinder_words(1))


def test_isolated_letter_fails():
    with pytest.raises(ValueError):
        SymbolicSystem(np.array([[1, 0], [0, 0]]))
    # reducible but with outgoing edges everywhere: two disconnected loops
    assert not SymbolicSystem(np.array([[1, 0], [0, 1]])).is_primitive


def test_non_primitive_shift_refused_fast():
    # a period-2 shift has eigenvalues +-1 of equal modulus; power iteration
    # would stall for its whole budget and report a wrong eigenvalue
    flip = SymbolicSystem(np.array([[0, 1], [1, 0]]))
    t0 = time.perf_counter()
    with pytest.raises(NotPrimitive):
        spectral_data(flip, PotentialSpec.constant(flip, -LOG2), 1.0)
    assert time.perf_counter() - t0 < 0.1
    assert not SymbolicSystem(np.array([[1, 1], [0, 1]])).is_primitive
    assert golden().is_primitive


def test_non_primitive_eta_refused_fast():
    # without the up-front check the series route runs its doublings and
    # power iteration on the period-2 shift stalls for its whole budget
    flip = SymbolicSystem(np.array([[0, 1], [1, 0]]))
    t0 = time.perf_counter()
    with pytest.raises(NotPrimitive):
        poincare_eta(flip, PotentialSpec.constant(flip, -0.7), None, 1.5, (1, 2, 1))
    assert time.perf_counter() - t0 < 0.1


# ---------------------------------------------------------------------------
# transfer matrices and spectra
# ---------------------------------------------------------------------------

def test_cylinder_operator_full_two_shift():
    M = cylinder_operator(S2, PSI2, 1.0, 0.0)
    assert np.allclose(M, 0.5 * np.ones((2, 2)))
    assert spectral_data(S2, PSI2, 1.0).lam == pytest.approx(1.0, abs=1e-13)
    assert spectral_data(S2, PSI2, 2.0).lam == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("depth, values", [
    (0, {(1,): -0.7, (2,): -0.9}),
    (-1, {(1,): -0.7, (2,): -0.9}),
    (2, {(1,): -0.7, (2,): -0.9}),
    (1, {(1,): -0.7, (1, 2): -0.9}),
])
def test_potential_refuses_bad_depth(depth, values):
    # depth 0 used to be accepted and then failed with KeyError: () in
    # periodic_birkhoff_values; keys of another length never matched a word
    with pytest.raises(ValueError, match="depth"):
        PotentialSpec(depth, values)


def test_modified_operator_constant_potential():
    M = cylinder_operator(S2, PSI2, 1.0, 1.0)
    assert np.allclose(M, -LOG2 * 0.5 * np.ones((2, 2)))
    lam = np.linalg.eigvals(M)
    assert np.max(lam.real) == pytest.approx(-LOG2 * 1.0, abs=1e-12) or \
        np.min(lam.real) == pytest.approx(-LOG2, abs=1e-12)


def test_complex_parameter_lattice_modulus_one():
    for a in (0.7, 1.3, 2.9):
        d = spectral_data(S2, PSI2, 1.0 + 1j * a)
        assert abs(d.lam) == pytest.approx(1.0, abs=1e-12)
        assert abs(d.lam - 2.0 ** (-1j * a)) < 1e-10
        assert d.peripheral


def test_complex_parameter_generic_contraction():
    d = spectral_data(S3, PSI3, 1.0 + 1.0j)
    oracle = abs(2 ** (-1 - 1j) + 3 ** (-1 - 1j) + 6 ** (-1 - 1j))
    assert abs(d.lam) == pytest.approx(oracle, abs=1e-12)
    assert abs(d.lam) < 1.0
    assert not d.peripheral


def test_golden_mean_calibration():
    g = golden()
    psi = calibrate(g, PotentialSpec.constant(g, -LOG2))
    d = spectral_data(g, psi, 1.0)
    assert d.lam == pytest.approx(1.0, abs=1e-9)
    assert np.all(d.rho.real > 0)
    # oracle: leading eigenvalue of [[x, x], [x, 0]] is x (1+sqrt 5)/2
    lam_raw = 0.5 * (1 + math.sqrt(5)) / 2
    base = spectral_data(g, PotentialSpec.constant(g, -LOG2), 1.0)
    assert base.lam == pytest.approx(lam_raw, abs=1e-12)


def test_rpf_bundle_invariants():
    g = golden()
    psi = calibrate(g, PotentialSpec.from_letter_values(
        g, {1: -0.8, 2: -1.1}))
    basis, mu, data = equilibrium_cylinder_masses(g, psi)
    assert np.all(data.rho.real > 0)
    assert np.dot(data.weights, data.rho) == pytest.approx(1.0, abs=1e-10)
    # shift invariance on cylinders: mu([w]) = sum_a mu([a w])
    deeper = {w: 0.0 for w in basis}
    M = cylinder_operator(g, psi, 1.0, 0.0)
    index = g.cylinder_table(1).index
    for i, w in enumerate(basis):
        for a in (1, 2):
            if g.allows(a, w[0]):
                # mu([a w]) = rho(aw) m([aw]); depth-1 potential:
                # m([aw]) = e^{psi(a)} m([w]) by conformality
                j = index[(a,)]
                maw = math.exp(psi.values[(a,)]) * data.weights[i].real
                deeper[w] += data.rho[j].real * maw
        assert deeper[w] == pytest.approx(mu[i], abs=1e-9)
    # integral identity: int L g dm = lambda int g dm for random cylinder g
    rng = np.random.default_rng(7)
    for _ in range(5):
        gvec = rng.normal(size=len(basis))
        lhs = float(np.dot(data.weights.real, M.real @ gvec))
        rhs = data.lam.real * float(np.dot(data.weights.real, gvec))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_lambda_monotone_logconvex_in_s():
    svals = np.linspace(1.0, 3.0, 9)
    lams = [spectral_data(S3, PSI3, s).lam.real for s in svals]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    logs = np.log(lams)
    second = np.diff(logs, 2)
    assert np.all(second >= -1e-10)


def _criterion13():
    S, psi = gauss_like()
    return S, calibrate(S, psi)


@pytest.mark.parametrize("system,s", [(lambda: (S3, PSI3), 60.0), (_criterion13, 30.0)],
                         ids=["bernoulli3-s60", "criterion13-s30"])
def test_lambda_far_below_eps_is_relatively_accurate(system, s):
    # a depth-1 potential on a full shift gives a rank-one operator, so
    # lambda_s is the sum of the letter weights e^{s psi(a)}: 8.7e-19 and
    # 5.7e-13 here, where an inverse-iteration shift of a few ulps of 1 read
    # -1.1e-19 and a value 1.05e-5 off
    S, psi = system()
    want = math.fsum(math.exp(s * v) for v in psi.vector(S.cylinder_words(1)))
    assert abs(spectral_data(S, psi, s).lam - want) <= 1e-13 * want


def _random_systems():
    """40 full shifts with seeded random potentials of depth 2 to 5."""
    rng = np.random.default_rng(3)
    out = []
    for trial in range(40):
        m, k = [(3, 3), (2, 5), (4, 2), (3, 4)][trial % 4]
        out.append((SymbolicSystem.full_shift(m),
                    PotentialSpec(k, {w: -rng.uniform(0.5, 3.0) for w in
                                      itertools.product(range(1, m + 1), repeat=k)})))
    return out


def _perron_bracket(M):
    """Collatz-Wielandt bounds min, max of (M x)_i / x_i on the Perron root
    of a nonnegative primitive M, for x = M^(2^40) 1 by repeated squaring.

    Products of nonnegative matrices have no cancellation, so x keeps
    every entry to a few ulps, however graded M is.
    """
    P = M / M.max()
    for _ in range(40):
        P = P @ P
        P /= P.max()
    x = P @ np.ones(len(M))
    r = (M @ x) / x
    return r.min(), r.max()


# (trial, s) with s <= 20 that Collatz-Wielandt power iteration from the
# ones vector does not bracket to 1e-13 within 2e5 steps
_SLOW_TO_CERTIFY = {(4, 20), (7, 20), (9, 10), (9, 20), (19, 10), (19, 20), (27, 20),
                    (28, 10), (28, 20), (32, 10), (32, 20), (33, 20), (36, 20),
                    (37, 10), (37, 20)}


def test_shift_lambda_matches_the_certified_perron_root():
    # graded operators with lambda from 1e-29 to 1: a residual test absolute
    # below |lambda| = 1 accepted (23, 20) 2.4e-6 off and (25, 40) as
    # -2.2e-21 for 4.6e-24, and refused (1, 20) as an equal-modulus pair
    systems = _random_systems()
    cases = [(t, s) for t in range(40) for s in (1, 10, 20)
             if (t, s) not in _SLOW_TO_CERTIFY] + [(25, 40), (39, 40)]
    off = []
    for trial, s in cases:
        S, psi = systems[trial]
        lo, hi = _perron_bracket(cylinder_operator(S, psi, float(s)))
        assert hi <= lo * (1 + 1e-13), (trial, s)
        want = 0.5 * (lo + hi)
        try:
            lam = spectral_data(S, psi, float(s)).lam
        except NoConvergence as e:
            off.append((trial, s, str(e)))
            continue
        if not abs(lam - want) <= 1e-9 * want:
            off.append((trial, s, lam, want))
    assert len(cases) == 107 and off == []


def test_nonpositive_real_lambda_is_refused():
    # trial 23 at s = 40: the Perron root is 5.9e-17, and the Arnoldi pair
    # of the graded matrix has lambda = -3.0e-16 with a relative residual
    # under 1e-10
    S, psi = _random_systems()[23]
    with pytest.raises(NoConvergence, match="nonpositive leading eigenvalue"):
        spectral_data(S, psi, 40.0)


def test_truncation_stability():
    S1, p1 = gauss_like(100)
    S2g, p2 = gauss_like(200)
    lam1 = spectral_data(S1, p1, 1.0).lam.real
    lam2 = spectral_data(S2g, p2, 1.0).lam.real
    tail_bound = sum(1.0 / (n + 1) ** 2 for n in range(101, 201)) + 1.0 / (200 + 1)
    assert abs(lam2 - lam1) < tail_bound


# ---------------------------------------------------------------------------
# pressure derivatives
# ---------------------------------------------------------------------------

def test_pressure_derivs_constant_two_shift():
    rep = pressure_derivs_shift(S2, PSI2)
    assert rep.dp == pytest.approx(-LOG2, abs=1e-9)
    assert rep.ddp == pytest.approx(0.0, abs=1e-6)
    assert rep.mean_integral == pytest.approx(-LOG2, abs=1e-12)
    assert rep.variance_gk == pytest.approx(0.0, abs=1e-12)


def test_pressure_derivs_bernoulli_three():
    rep = pressure_derivs_shift(S3, PSI3)
    want = -(LOG2 / 2 + LOG3 / 3 + LOG6 / 6)
    assert rep.mean_integral == pytest.approx(want, abs=1e-12)
    assert rep.dp == pytest.approx(want, abs=1e-8)
    # analytic second derivative of log(2^-s + 3^-s + 6^-s) at s = 1
    f = lambda s: 2.0**-s + 3.0**-s + 6.0**-s
    h = 1e-4
    want2 = (np.log(f(1 + h)) - 2 * np.log(f(1.0)) + np.log(f(1 - h))) / h**2
    assert rep.ddp == pytest.approx(want2, abs=1e-5)
    assert rep.variance_gk == pytest.approx(want2, abs=1e-5)


# ---------------------------------------------------------------------------
# Poincare series
# ---------------------------------------------------------------------------

def test_eta_geometric_series():
    r = poincare_eta(S2, PSI2, None, 2.0, (1, 1))
    assert r.series == pytest.approx(2.0, abs=1e-12)
    assert r.agreement < 1e-12


def test_eta_residue_approach():
    prev = None
    for k in (1, 2, 3, 4):
        s = 1 + 10.0 ** (-k)
        r = poincare_eta(S2, PSI2, None, s, (1, 1))
        resid = abs((s - 1) * r.series.real * LOG2 - 1)
        if prev is not None:
            assert resid < prev
        prev = resid
    assert prev < 0.02


def test_eta_cross_method():
    r = poincare_eta(S3, PSI3, None, 1.5, (1, 1))
    assert r.agreement < 1e-9
    # independent oracle: rank-one Bernoulli operator gives the geometric sum
    lam = 2.0**-1.5 + 3.0**-1.5 + 6.0**-1.5
    assert r.series.real == pytest.approx(1.0 / (1.0 - lam), abs=1e-10)


def test_eta_offset_weighting():
    # offset phi = psi on the first letter counts the [1]-cylinder words:
    # closed form sum_n lam^n * f evaluated along the rank-one structure
    offset = {(1,): -LOG2, (2,): -LOG2}
    r = poincare_eta(S2, PSI2, offset, 2.0, (1, 1))
    # f_s = e^{s phi} = 1/4; eta = f + sum_{n>=1} L^n f = 1/4 + 1/4 * sum 2^{-n}...
    # with constant f the series is f * (1/(1 - 2^{1-s})) = 1/4 * 2
    assert r.series == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("offset", [[-LOG2, -LOG2], np.array([-LOG2, -LOG2])])
def test_eta_offset_must_be_none_or_a_dict(offset):
    with pytest.raises(ValueError, match="offset must be None or a dict"):
        poincare_eta(S2, PSI2, offset, 2.0, (1, 1))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_words_full_shift():
    led = count_words(S2, PSI2, (2, 2, 2, 2), 5.0)
    assert led.count(5.0, strict=False) == 255     # sum_{n=0}^{7} 2^n
    assert count_words(S2, PSI2, (2, 2), -1.0).total == 0


def test_count_words_cylinder():
    led = count_words(S2, PSI2, (2, 2, 2, 2), 5.0, B=[(1,)])
    assert led.count(5.0, strict=False) == 127     # sum_{n=1}^{7} 2^{n-1}
    led = count_words(S2, PSI2, (1, 1, 1, 1), 5.0, B=[(1,)])
    assert led.count(5.0, strict=False) == 128     # the empty word now counts


def test_count_words_empty_target_admits_every_event():
    # as in counting.coded_count and parabolic.parabolic_count
    led = count_words(S2, PSI2, (2, 2, 2, 2), 5.0, B=[])
    assert led.total == count_words(S2, PSI2, (2, 2, 2, 2), 5.0, B=None).total == 255


def test_shift_ledger_refuses_arc_restriction():
    # a shift ledger has no locations: it is restricted by cylinders when built
    led = count_words(S2, PSI2, (1, 1), 3.0)
    with pytest.raises(ValueError, match=r"count_words\(\.\.\., B=\.\.\.\)"):
        led.restricted([])


def test_count_words_golden_mean():
    g = golden()
    psi = PotentialSpec.constant(g, -LOG2)
    led = count_words(g, psi, (1, 1, 1), 4.0)
    # oracle: admissible words of length n avoiding "22" and compatible with
    # the seed; Fibonacci counts F(n+2) for words ending admissibly into 1
    import itertools
    total = 1
    for n in range(1, int(4.0 / LOG2) + 1):
        for w in itertools.product((1, 2), repeat=n):
            ok = all(not (w[i] == 2 and w[i + 1] == 2) for i in range(n - 1))
            if ok and w[-1] != 2 or (ok and w[-1] == 2):
                ok = ok and g.word_admissible(w + (1,))
            if ok:
                total += 1
    assert led.count(4.0, strict=False) == total


# ---------------------------------------------------------------------------
# D-genericity
# ---------------------------------------------------------------------------

def test_lattice_constant_potential():
    v = d_genericity(S2, PSI2)
    assert v.is_lattice
    assert v.generator == pytest.approx(LOG2, abs=1e-12)


def test_generic_bernoulli_weights():
    v = d_genericity(S3, PSI3)
    assert v.kind == "generic"


def test_golden_mean_constant_is_lattice():
    g = golden()
    psi = PotentialSpec.constant(g, -LOG2)
    v = d_genericity(g, psi)
    assert v.is_lattice and v.generator == pytest.approx(LOG2, abs=1e-12)


def test_periodic_values_oracle():
    vals = periodic_birkhoff_values(S2, PSI2, 3)
    # periods 1, 2, 3 on the full 2-shift: 2 + 4 + 8 words, all values n*log2
    assert sorted(set(np.round(-vals / LOG2).astype(int))) == [1, 2, 3]


def test_periodic_scan_budget_checked_before_scanning():
    # 120 letters, periods <= 8: about 4.3e16 words against a 1e7 budget
    S = SymbolicSystem.full_shift(120)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        d_genericity(S, PotentialSpec.constant(S, -1.0))
    assert time.perf_counter() - t0 < 0.1


def _periodic_values_scan(S, psi, max_period):
    """Every cyclic admissible word of period <= max_period, in scan order."""
    out = []
    for n in range(1, max_period + 1):
        for w in itertools.product(range(1, S.alphabet_size + 1), repeat=n):
            if all(S.allows(w[i], w[(i + 1) % n]) for i in range(n)):
                ext = tuple(w[i % n] for i in range(n + psi.depth))
                out.append(sum(psi.values[ext[j: j + psi.depth]] for j in range(n)))
    return np.array(out)


def _random_potential(incidence, depth):
    S = SymbolicSystem(np.array(incidence))
    rng = np.random.default_rng(depth * 10 + S.alphabet_size)
    return S, PotentialSpec(depth, {w: -rng.uniform(0.5, 3.0) for w in S.cylinder_words(depth)})


@pytest.mark.parametrize("system, max_period", [
    (lambda: (golden(), PotentialSpec.constant(golden(), -LOG2)), 6),
    (lambda: (S3, PSI3), 6),
    (lambda: _random_potential(np.ones((2, 2)), 1), 8),
    (lambda: _random_potential(np.ones((3, 3)), 2), 7),
    (lambda: _random_potential([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2), 8),
    (lambda: _random_potential(np.ones((4, 4)), 1), 6),
], ids=["golden", "bernoulli3", "full2-depth1", "full3-depth2", "cycle3-depth2",
        "full4-depth1"])
def test_periodic_values_in_budget_unchanged(system, max_period):
    # every value to the bit, in the word loop's order
    S, psi = system()
    vals = periodic_birkhoff_values(S, psi, max_period)
    assert vals.tobytes() == _periodic_values_scan(S, psi, max_period).tobytes()


def test_d_genericity_on_six_letters_is_fast():
    # 2.0M cyclic words of period <= 8; the word loop took 13.5 s
    S = SymbolicSystem.full_shift(6)
    psi = PotentialSpec.from_letter_values(S, {a: -math.log(a + 1) for a in range(1, 7)})
    t0 = time.perf_counter()
    v = d_genericity(S, psi)
    assert time.perf_counter() - t0 < 2.0
    assert v.kind == "generic" and v.n_values == 2015538


def test_lattice_verdict_direct():
    assert lattice_verdict([LOG2, 2 * LOG2, 5 * LOG2]).is_lattice
    assert lattice_verdict([LOG2, LOG3]).kind == "generic"


# ---------------------------------------------------------------------------
# modulus of continuity in s
# ---------------------------------------------------------------------------

def test_holder_modulus_constant_potential():
    C, eps = holder_modulus_in_s(S2, PSI2, 0.0)
    assert eps >= 0.99
    assert np.isfinite(C)


def test_holder_modulus_gauss_like():
    S, psi = gauss_like()
    psi = calibrate(S, psi)
    C0, eps0 = holder_modulus_in_s(S, psi, 0.0)
    assert eps0 >= 0.45
    C1, eps1 = holder_modulus_in_s(S, psi, 1.0)
    assert np.isfinite(C1) and C1 > 0


def test_holder_modulus_frozen_on_criterion_13_system():
    # D = L_t - L_s is rank one on this system, so every probe's image is
    # constant; the values are those of the full O(n^2) Hoelder-norm scan
    S, psi = gauss_like()
    psi = calibrate(S, psi)
    assert holder_modulus_in_s(S, psi, 0.0) == \
        (0.391701126441528, 0.9969180226662055)


@st.composite
def _holder_inputs(draw):
    """A complex vector (constant, with repeats, or spread out, at a scale
    from subnormal to large), a letter table of depth 1-3 and alpha."""
    depth = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    letters = np.array(draw(st.lists(st.lists(st.integers(1, 3), min_size=depth,
                                              max_size=depth), min_size=n, max_size=n)))
    part = st.floats(-1e6, 1e6)
    z = st.builds(complex, part, part)
    kind = draw(st.sampled_from(["constant", "repeats", "spread"]))
    if kind == "constant":
        vec = [draw(z)] * n
    elif kind == "repeats":
        pool = draw(st.lists(z, min_size=1, max_size=3))
        vec = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                              min_size=n, max_size=n))]
    else:
        vec = draw(st.lists(z, min_size=n, max_size=n))
    scale = 2.0 ** draw(st.integers(-1080, 64))
    return np.array(vec, dtype=complex) * scale, letters, draw(st.floats(0.1, 2.0))


@given(_holder_inputs())
@settings(max_examples=300, deadline=None)
def test_holder_norm_equals_the_full_scan(inputs):
    vec, letters, alpha = inputs
    wmat = _holder_norm_data(letters, alpha)
    full = float(np.max(np.abs(vec)) + np.max(np.abs(vec[:, None] - vec[None, :]) * wmat))
    assert _holder_norm(vec, wmat) == full


# ---------------------------------------------------------------------------
# peripheral-spectrum dichotomy
# ---------------------------------------------------------------------------

def test_peripheral_dichotomy():
    # lattice: at a = 2 pi / generator the spectral radius returns to lambda(1)
    v = d_genericity(S2, PSI2)
    a = 2 * np.pi / v.generator
    d = spectral_data(S2, PSI2, 1.0 + 1j * a)
    assert abs(abs(d.lam) - 1.0) < 1e-6
    # generic: strictly inside at every tested frequency
    for a in (2 * np.pi / LOG2, 2 * np.pi / LOG3, 5.0):
        d = spectral_data(S3, PSI3, 1.0 + 1j * a)
        assert abs(d.lam) < 1.0 - 1e-6
