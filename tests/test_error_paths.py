"""Named failure modes: budgets, gap loss, poles, divergence."""

import math

import numpy as np
import pytest

from innerdyn.blaschke import BlaschkeMap, boundary_preimages_batch, eval_and_deriv
from innerdyn.counting import enumerate_orbit
from innerdyn.errors import (BudgetExceeded, DivergentSeries, GapLost,
                             PoleProximity, TailBoundExceeded)
from innerdyn.observables import COS
from innerdyn.parabolic import build_parabolic, kac_check, parabolic_count
from innerdyn.shift import PotentialSpec, SymbolicSystem, count_words, poincare_eta
from innerdyn.transfer import pressure_and_derivs
from periodic_oracle import periodic_points


def test_pole_proximity():
    # a zero hugging the circle puts its pole just outside; points in the
    # admissible closed disk can come within 1e-12 of it
    a = 1.0 - 1e-10
    F = BlaschkeMap((0j, a + 0j))
    pole = 1.0 / a
    with pytest.raises(PoleProximity):
        eval_and_deriv(F, pole - 5e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_preimage_target_is_refused(bad):
    # a NaN once ran 60 Newton sweeps before NoConvergence
    with pytest.raises(ValueError, match="finite"):
        boundary_preimages_batch(BlaschkeMap((0j, 0.5 + 0j)), np.array([0.3, bad]))


def test_periodic_point_budget():
    with pytest.raises(BudgetExceeded):
        periodic_points(BlaschkeMap.monomial(4), 12)   # 4^12 - 1 > 1e7


def test_enumerate_budget_refusal():
    F = BlaschkeMap((0j, 0.5 + 0j))
    with pytest.raises(BudgetExceeded):
        enumerate_orbit(F, 0.0, 20.0)


def test_eta_pole_at_one():
    S = SymbolicSystem.full_shift(2)
    psi = PotentialSpec.constant(S, -math.log(2))
    with pytest.raises(DivergentSeries):
        poincare_eta(S, psi, None, 1.0, (1, 1))


def test_count_words_budget():
    S = SymbolicSystem.full_shift(2)
    psi = PotentialSpec.constant(S, -math.log(2))
    with pytest.raises(BudgetExceeded):
        count_words(S, psi, (1, 1), 30.0, node_budget=10**5)


def test_gap_lost_weighted_operator():
    # subleading eigenvalue |F'(0)| = 0.97 exceeds the 0.95 gap ceiling at
    # the first pressure stencil node
    F = BlaschkeMap((0j, 0.97 + 0j))
    with pytest.raises(GapLost, match="at node t = -0.02"):
        pressure_and_derivs(F, COS, 128)


def test_kac_tail_bound_exceeded():
    boole = build_parabolic([(0.0, 1.0)])
    with pytest.raises(TailBoundExceeded):
        kac_check(boole, 5, tail_frac=1e-4, cap0=1000, cap_max=2000)


def test_parabolic_count_budget():
    boole = build_parabolic([(0.0, 1.0)])
    with pytest.raises(BudgetExceeded):
        parabolic_count(boole, 0.5, 20.0, [(-1.0, 1.0)], N=1)


def test_encode_consistency_thousand_points():
    # coding semiconjugacy at depth 12 over 1000 deterministic seeds
    from innerdyn.blaschke import angle_map
    from innerdyn.coding import build_partition, encode
    from innerdyn.errors import ExceptionalPoint
    from innerdyn.rng import uniform_stream
    F = BlaschkeMap((0j, 0.5 + 0j))
    P = build_partition(F, 0.0)
    xs = 2 * np.pi * uniform_stream(99, 1000)
    checked = 0
    for x in xs:
        try:
            w1 = encode(P, float(x), 12)
            w2 = encode(P, float(angle_map(F, float(x))), 11)
        except ExceptionalPoint:
            continue
        assert w1[1:] == w2
        checked += 1
    assert checked > 990
