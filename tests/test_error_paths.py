"""Named failure modes: budgets, gap loss, poles, divergence, refused inputs."""

import math

import numpy as np
import pytest

from innerdyn.blaschke import (BlaschkeMap, angle_map, boundary_preimages_batch, disk_preimages,
                               eval_and_deriv)
from innerdyn.circle import Arc
from innerdyn.cli import main
from innerdyn.coding import build_partition, encode
from innerdyn.counting import enumerate_orbit
from innerdyn.errors import (BudgetExceeded, DivergentSeries, ExceptionalPoint, GapLost,
                             PoleProximity, TailBoundExceeded)
from innerdyn.observables import COS, get_observable
from innerdyn.parabolic import (ParabolicMap, boundary_orbit, build_parabolic, kac_check,
                                induced_cycle_multipliers, parabolic_count, real_markov_partition)
from innerdyn.rng import uniform_stream
from innerdyn.shift import PotentialSpec, SymbolicSystem, count_words, poincare_eta
from innerdyn.stochastic import check_sample_size
from innerdyn.transfer import assemble_operator, pressure_and_derivs
from periodic_oracle import periodic_points

FH, BOOLE = BlaschkeMap((0j, 0.5 + 0j)), build_parabolic([(0.0, 1.0)])
S2, GOLDEN = SymbolicSystem.full_shift(2), SymbolicSystem(np.array([[1, 1], [1, 0]]))
PSI2 = PotentialSpec.constant(S2, -math.log(2))
Z2, PAR = '{"kind":"monomial","d":2}', '{"kind":"parabolic","poles":[[0,1]]}'

# name: (error class, message, call), or (exit code 2, stderr text, CLI argv);
# {tmp} in an argv is the test's directory, which holds a JSON list
REFUSALS = {
    "no-zeros": (ValueError, "one zero", lambda: BlaschkeMap(())),
    "no-zero-at-0": (ValueError, "must be 0", lambda: BlaschkeMap((0.5,))),
    "zero-on-circle": (ValueError, "too close", lambda: BlaschkeMap((0j, 1.0 + 0j))),
    "monomial-0": (ValueError, "degree must", lambda: BlaschkeMap.monomial(0)),
    "eval-outside-disk": (ValueError, "outside", lambda: eval_and_deriv(FH, 1.5 + 0j)),
    "preimages-w-0": (ValueError, "0 < .w. < 1", lambda: disk_preimages(FH, 0j)),
    "preimages-w-1.5": (ValueError, "0 < .w. < 1", lambda: disk_preimages(FH, 1.5 + 0j)),
    "arc-0": (ValueError, "arc length", lambda: Arc(0.0, 0.0)),
    "arc-7": (ValueError, "arc length", lambda: Arc(0.0, 7.0)),
    "partition-d1": (ValueError, "degree >= 2", lambda: build_partition(BlaschkeMap((0j,)), 0)),
    "encode-depth-0": (ValueError, "depth", lambda: encode(build_partition(FH, 0.0), 0.3, 0)),
    "cesaro-0": (ValueError, "positive", lambda: enumerate_orbit(FH, 0.0, 2.0).cesaro_average(0)),
    "rotation": (ValueError, "rotations", lambda: enumerate_orbit(BlaschkeMap((0j,), 0.3), 0, 2)),
    "observable": (KeyError, "unknown observable", lambda: get_observable("nope")),
    "no-poles": (ValueError, "one pole", lambda: ParabolicMap(())),
    "level-0": (ValueError, "level must", lambda: real_markov_partition(BOOLE, 0)),
    "orbit-length": (BudgetExceeded, "long", lambda: boundary_orbit(BOOLE, "+", 2 * 10**6 + 1)),
    "cycle-n-1": (ValueError, "n >= 2", lambda: induced_cycle_multipliers(BOOLE, [1])),
    "seed-off-core": (ValueError, "core", lambda: parabolic_count(BOOLE, 9, 5, [(0, .5)], N=1)),
    "kac-cap0-below-level": (ValueError, "cap0", lambda: kac_check(BOOLE, 5, cap0=3)),
    "kac-cap0-at-level": (ValueError, "cap0", lambda: kac_check(BOOLE, 5, cap0=5)),
    "kac-cap0-above-max": (ValueError, "cap0", lambda: kac_check(BOOLE, 5, cap0=5000, cap_max=4000)),
    # one level above cap0 / 8: the tail fit had no slope and the ratio read 0.59
    "kac-cap0-one-fit-level": (ValueError, "tail fit 1 of the 8", lambda: kac_check(
        BOOLE, 2, tail_frac=0.5, cap0=3, cap_max=64)),
    "kac-tail-0": (ValueError, "tail_frac", lambda: kac_check(BOOLE, 5, tail_frac=0.0)),
    "kac-tail-negative": (ValueError, "tail_frac", lambda: kac_check(BOOLE, 5, tail_frac=-0.01)),
    "kac-tail-nan": (ValueError, "tail_frac", lambda: kac_check(BOOLE, 5, tail_frac=math.nan)),
    "not-square": (ValueError, "square", lambda: SymbolicSystem(np.ones((2, 3)))),
    "cylinder-depth-0": (ValueError, "depth", lambda: S2.cylinder_table(0)),
    "basis-1e6": (BudgetExceeded, "1e6", lambda: SymbolicSystem.full_shift(11).cylinder_table(6)),
    "potential-0": (ValueError, "negative", lambda: PotentialSpec(1, {(1,): 0.0, (2,): -1.0})),
    "eta-seed-short": (ValueError, "2 letters", lambda: poincare_eta(
        S2, PotentialSpec(2, dict.fromkeys(S2.cylinder_words(2), -1.5)), None, 2.0, (1,))),
    "eta-seed-inadmissible": (ValueError, "not admissible", lambda: poincare_eta(
        GOLDEN, PotentialSpec.constant(GOLDEN, -1.0), None, 2.0, (2, 2))),
    "words-seed-short": (ValueError, "too short", lambda: count_words(S2, PSI2, (1,), 3.0)),
    "modes-100": (ValueError, "power of two", lambda: assemble_operator(FH, 1.0, None, 100)),
    "step-budget": (ValueError, "1e9", lambda: check_sample_size(10**5, 10**5)),
    "cli-no-kind": (2, "'kind'", ["spectrum", "--map", '{"d":2}']),
    "cli-rotation": (2, "rotation", ["spectrum", "--map", Z2[:-1] + ',"rotation":"x"}']),
    "cli-spectrum-parabolic": (2, "not a circle map", ["spectrum", "--map", PAR]),
    "cli-spectrum-modes-100": (2, "power of two", ["spectrum", "--map", Z2, "--modes", "100"]),
    "cli-pressure-modes-100": (2, "power of two", ["pressure", "--map", Z2, "--modes", "100"]),
    "cli-kac-circle": (2, "not a parabolic map", ["kac", "--map", Z2]),
    "cli-system-list": (2, "must be an object", ["d-generic", "--system", "{tmp}/list.json"]),
    "cli-random-w-no-seed": (2, "--seed", ["nevanlinna", "--map", Z2, "--random-w", "3"]),
    "cli-no-point": (2, "--w", ["nevanlinna", "--map", Z2]),
    "cli-no-interval": (2, "--interval", ["parabolic-count", "--map", PAR, "--T", "3", "--x", "0"]),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal(case, tmp_path, capsys):
    expected, message, action = REFUSALS[case]
    if expected != 2:
        with pytest.raises(expected, match=message):
            action()
        return
    (tmp_path / "list.json").write_text("[1, 2]")
    assert main([a.replace("{tmp}", str(tmp_path)) for a in action]) == 2
    assert message in capsys.readouterr().err


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
        boundary_preimages_batch(FH, np.array([0.3, bad]))


def test_periodic_point_budget():
    with pytest.raises(BudgetExceeded):
        periodic_points(BlaschkeMap.monomial(4), 12)   # 4^12 - 1 > 1e7


def test_enumerate_budget_refusal():
    with pytest.raises(BudgetExceeded):
        enumerate_orbit(FH, 0.0, 20.0)


def test_eta_pole_at_one():
    with pytest.raises(DivergentSeries):
        poincare_eta(S2, PSI2, None, 1.0, (1, 1))


def test_count_words_budget():
    with pytest.raises(BudgetExceeded):
        count_words(S2, PSI2, (1, 1), 30.0, node_budget=10**5)


def test_gap_lost_weighted_operator():
    # subleading eigenvalue |F'(0)| = 0.97 at s = 1 exceeds the 0.95 gap
    # ceiling, which is read off the zeros before any stencil node is solved
    F = BlaschkeMap((0j, 0.97 + 0j))
    with pytest.raises(GapLost, match=r"\|F'\(0\)\| = 0.970 at s = 1"):
        pressure_and_derivs(F, COS, 128)


def test_kac_tail_bound_exceeded():
    with pytest.raises(TailBoundExceeded):
        kac_check(BOOLE, 5, tail_frac=1e-4, cap0=1000, cap_max=2000)


def test_parabolic_count_budget():
    with pytest.raises(BudgetExceeded):
        parabolic_count(BOOLE, 0.5, 20.0, [(-1.0, 1.0)], N=1)


def test_encode_consistency_thousand_points():
    # coding semiconjugacy at depth 12 over 1000 deterministic seeds
    P = build_partition(FH, 0.0)
    xs = 2 * np.pi * uniform_stream(99, 1000)
    checked = 0
    for x in xs:
        try:
            w1 = encode(P, float(x), 12)
            w2 = encode(P, float(angle_map(FH, float(x))), 11)
        except ExceptionalPoint:
            continue
        assert w1[1:] == w2
        checked += 1
    assert checked > 990
