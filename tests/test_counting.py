"""Backward-orbit counting: exactness, lattice ledgers, coded equivalence."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innerdyn.blaschke import BlaschkeMap, boundary_preimages
from innerdyn.circle import Arc, FULL_CIRCLE, arcs_contain
from innerdyn.coding import build_partition
from innerdyn.cli import main
from innerdyn.counting import (CountingLedger, _monomial_level_count_in_arc,
                               _prefix_sums, backward_orbit, coded_count, enumerate_orbit,
                               ratio_amplitude)
from innerdyn.errors import BudgetExceeded
from innerdyn.parabolic import build_parabolic, parabolic_count
from innerdyn.shift import PotentialSpec, SymbolicSystem, count_words
from cylinder_oracle import cylinder_arc

F2 = BlaschkeMap.monomial(2)
FH = BlaschkeMap((0j, 0.5 + 0j))
DEG3 = BlaschkeMap((0j, 0.4 + 0.3j, -0.3 - 0.5j), 0.7)
FH_JSON = '{"kind":"blaschke","zeros":[[0,0],[0.5,0]],"rotation":0}'
LOG2 = np.log(2)
LYAP_FH = np.log((2 + np.sqrt(3)) / 2)


def _located(F, x, T):
    """The enumerated ledger of every event, for comparison with the
    aggregated ledger that enumerate_orbit builds for a monomial."""
    locs, vals, _ = zip(*backward_orbit(F, x, T))
    return CountingLedger.from_events(np.concatenate(vals), locations=np.concatenate(locs))


def test_binary_count_exact():
    led = enumerate_orbit(F2, 0.3, 5.0)
    assert led.locations is None                       # aggregated at every T
    assert led.count(5.0, strict=False) == 255          # floor(5/log 2) = 7 levels
    assert led.count(5.0, strict=True) == 255           # no event at exactly 5
    assert enumerate_orbit(F2, 0.3, 0.0).count(0.0, strict=False) == 1
    assert enumerate_orbit(F2, 0.3, -1.0).total == 0


def test_nan_horizon_is_refused_by_every_walk():
    # no value is <= NaN, so a walk would return an empty tree as if T < 0
    S = SymbolicSystem.full_shift(2)
    psi = PotentialSpec.constant(S, -LOG2)
    walks = [lambda T: enumerate_orbit(FH, 0.0, T),
             lambda T: list(backward_orbit(F2, 0.3, T)),
             lambda T: count_words(S, psi, (1, 1), T),
             lambda T: parabolic_count(build_parabolic([(0.0, 1.0)]), 0.5, T, [(-1.0, 1.0)])]
    for walk in walks:
        with pytest.raises(ValueError, match="NaN"):
            walk(math.nan)


def test_strict_vs_closed_at_lattice_points():
    # aggregated lattice ledger holds exact level values n * log2, so the
    # two query conventions differ by whole levels at the jumps
    led = enumerate_orbit(F2, 0.3, 40.0)
    assert led.locations is None
    assert led.count(3 * LOG2, strict=False) == 15
    assert led.count(3 * LOG2, strict=True) == 7


def test_restrict_equispaced_levels():
    B = [Arc.from_endpoints(0.0, np.pi)]
    # z^2 level-n preimages are equispaced: exactly 2^{n-1} in any half circle
    want = 1 + sum(2 ** (n - 1) for n in range(1, 8))   # trivial event at 0.3
    assert enumerate_orbit(F2, 0.3, 5.0, B).count(5.0, strict=False) == want
    assert enumerate_orbit(F2, 0.3, 5.0, [FULL_CIRCLE]).count(5.0, strict=False) == 255
    empty = enumerate_orbit(F2, 0.3, 5.0, [Arc(0.0, 1e-9)])
    assert empty.count(5.0, strict=False) == 0
    # the aggregated ledger has no locations: it is restricted when built
    with pytest.raises(ValueError, match=r"enumerate_orbit\(\.\.\., arcs\)"):
        enumerate_orbit(F2, 0.3, 5.0).restricted(B)


def test_restrict_additivity():
    led = enumerate_orbit(FH, 0.3, 8.0)
    # an enumerated event weighs 1 byte: its membership in the target
    assert led.weights.dtype == led.restricted([Arc(0.0, 2.0)]).weights.dtype == bool
    B1 = [Arc.from_endpoints(0.0, 2.0)]
    B2 = [Arc.from_endpoints(2.0, 4.5)]
    both = [Arc.from_endpoints(0.0, 2.0), Arc.from_endpoints(2.0, 4.5)]
    n1 = led.restricted(B1).count(8.0, strict=False)
    n2 = led.restricted(B2).count(8.0, strict=False)
    assert led.restricted(both).count(8.0, strict=False) == n1 + n2


def test_monotonicity_and_trivial_event():
    led = enumerate_orbit(FH, 1.0, 6.0)
    grid = np.linspace(0.0, 6.0, 47)
    counts = [led.count(t, strict=False) for t in grid]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[0] == 1                                 # the trivial event
    first = np.min(led.values[led.values > 0])
    assert led.count(first * 0.99, strict=False) == 1


def test_budget_refusal_generic_map():
    with pytest.raises(BudgetExceeded):
        enumerate_orbit(FH, 0.0, 18.0)


def test_aggregated_ledger_matches_exact():
    # the lattice fast path and the explicit tree agree wherever both run
    exact = _located(F2, 0.3, 10.0)
    agg = enumerate_orbit(F2, 0.3, 40.0)
    assert agg.locations is None
    for t in np.linspace(0.5, 10.0, 13):
        assert agg.count(t, strict=False) == exact.count(t, strict=False)
    B = [Arc.from_endpoints(0.0, np.pi)]
    agg = enumerate_orbit(F2, 0.3, 40.0, B)
    for t in np.linspace(0.5, 10.0, 7):
        assert agg.count(t, strict=False) == exact.restricted(B).count(t, strict=False)


def test_aggregated_ledger_rotated_monomial():
    # arc restriction of the lattice ledger handles a nonzero rotation:
    # level-n preimages shift by rot (d^n - 1)/(d - 1)
    F = BlaschkeMap.monomial(2, rotation=0.7)
    exact = _located(F, 0.3, 10.0)
    B = [Arc.from_endpoints(1.0, 4.0)]
    agg = enumerate_orbit(F, 0.3, 40.0, B)
    assert agg.locations is None
    for t in np.linspace(0.5, 10.0, 7):
        assert agg.count(t, strict=False) == exact.restricted(B).count(t, strict=False)


def _exact_level_counts(x, d, T, arcs):
    """Python-int level sizes of e^{0i} z^d from x below T, summed over arcs
    by `_monomial_level_count_in_arc` (all levels when arcs is None)."""
    levels = [n for n in range(200) if n * math.log(d) < T]
    if arcs is None:
        return [d**n for n in levels]
    return [sum(_monomial_level_count_in_arc(x, d, 0.0, n, a) for a in arcs) for n in levels]


@pytest.mark.parametrize("d,T,arc", [(2, 45.0, Arc(0.0, 1.0)), (3, 40.0, Arc(1.0, 1.0))])
def test_aggregated_counts_are_exact_integers(d, T, arc):
    # level sizes beyond 2^53: float weights rounded z^3's count(40) by 7 and
    # read z^2's total as 2^65 instead of 2^65 - 1
    led = enumerate_orbit(BlaschkeMap.monomial(d), 0.3, T)
    assert led.locations is None
    want = _exact_level_counts(0.3, d, T, None)
    assert led.count(T) == sum(want)
    assert led.total == sum(want)                 # no level sits at T itself
    sub = enumerate_orbit(BlaschkeMap.monomial(d), 0.3, T, [arc])
    want_arc = _exact_level_counts(0.3, d, T, [arc])
    assert sub.count(T) == sum(want_arc)
    assert sub.count(T / 2) == sum(want_arc[:math.ceil(T / 2 / math.log(d))])


def test_second_restriction_intersects_on_aggregated_ledgers():
    # the z^2 events as a located ledger; the aggregated one is restricted
    # only when it is built
    located = _located(F2, 0.3, 12.0)
    assert located.locations is not None
    A, B = Arc(0.0, 1.0), Arc(3.0, 1.0)
    assert located.restricted([A]).restricted([B]).total == 0


@st.composite
def _arc_union(draw):
    """One arc, or two disjoint arcs, at a drawn start."""
    start = draw(st.floats(0.0, 2 * np.pi, exclude_max=True))
    parts = [draw(st.floats(1e-3, 1.0)) for _ in range(4)]
    lengths = [2 * np.pi * p / sum(parts) for p in parts]
    arcs = [Arc(start, lengths[0])]
    if draw(st.booleans()):
        arcs.append(Arc(start + lengths[0] + lengths[1], lengths[2]))
    return arcs


_LOCATED_FH = enumerate_orbit(FH, 0.3, 8.0)
_LOCATED_Z2 = _located(F2, 0.3, 12.0)


@given(_arc_union(), _arc_union())
@settings(max_examples=60, deadline=None)
def test_restriction_composes_on_circle_ledgers(A, B):
    # restricting a located ledger to A and then to B keeps the events in
    # both, and the aggregated z^2 ledger built for A counts as the located
    # ledger restricted to A below T = 12
    locs = _LOCATED_FH.locations
    twice = _LOCATED_FH.restricted(A).restricted(B)
    assert np.array_equal(twice.weights, arcs_contain(A, locs) & arcs_contain(B, locs))
    agg = enumerate_orbit(F2, 0.3, 30.0, A)
    located = _LOCATED_Z2.restricted(A)
    assert all(agg.count(t) == located.count(t) for t in (3.0, 7.5, 12.0))


def _cylinder_meet(A, B):
    """The cylinders of the intersection of two cylinder unions: [u] meets
    [w] in the longer word when one is a prefix of the other, else not."""
    return [max(u, w, key=len) for u in A for w in B if u[:len(w)] == w[:len(u)]]


_WORDS = st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
                  min_size=1, max_size=3)
_S3 = SymbolicSystem.full_shift(3)
_PSI3 = PotentialSpec.from_letter_values(_S3, {1: -LOG2, 2: -math.log(3), 3: -math.log(6)})


@given(_WORDS, _WORDS)
@settings(max_examples=60, deadline=None)
def test_restriction_composes_on_the_shift_ledger(A, B):
    # the shift ledger restricts by cylinders: its members for A, then for
    # B, are its members for the cylinders of A & B
    def members(cylinders):
        return count_words(_S3, _PSI3, (1, 2), 6.0, cylinders).weights

    both = _cylinder_meet(A, B)
    want = members(A) & members(B)
    assert np.array_equal(members(both), want) if both else not want.any()


def test_lattice_ratio_oscillates():
    led = enumerate_orbit(F2, 0.3, 30.0)
    amp = ratio_amplitude(led, LOG2, 1.0, 20.0, 30.0)
    assert amp >= 0.2


def test_cesaro_exact_values():
    led = enumerate_orbit(F2, 0.3, 30.0)
    # exact piecewise integral: levels contribute 1 - 2^{-k-1} each
    K = int(np.floor(30.0 / LOG2))
    exact = sum(1 - 2.0 ** (-k - 1) for k in range(K))
    exact += (2 ** (K + 1) - 1) * (np.exp(-K * LOG2) - np.exp(-30.0))
    assert led.cesaro_average(30.0) == pytest.approx(exact / 30.0, rel=1e-12)
    # the Hardy-Littlewood limit is approached at the 1/T rate; at T = 80
    # the relative gap is below 1 percent
    led80 = enumerate_orbit(F2, 0.3, 80.0)
    assert led80.cesaro_average(80.0) == pytest.approx(1 / LOG2, rel=1e-2)


def test_cesaro_small_T_limit():
    led = enumerate_orbit(FH, 1.0, 0.2)
    T = 1e-4
    assert led.cesaro_average(T) == pytest.approx(1.0, abs=1e-4)


def test_fh_asymptotic_ratio():
    led = enumerate_orbit(FH, 0.0, 12.0)
    assert abs(led.count(12.0, strict=True) * np.exp(-12.0) * LYAP_FH - 1.0) <= 0.10
    ces = led.cesaro_average(12.0)
    assert abs(ces * LYAP_FH - 1.0) <= 0.05
    B = [Arc.from_endpoints(0.0, np.pi)]
    NB = led.restricted(B).count(12.0, strict=True)
    assert abs(NB * np.exp(-12.0) * LYAP_FH / 0.5 - 1.0) <= 0.10


def test_seed_robustness():
    l1 = enumerate_orbit(FH, 0.4, 12.0)
    l2 = enumerate_orbit(FH, 3.9, 12.0)
    r = l1.count(12.0, strict=False) / l2.count(12.0, strict=False)
    assert 0.9 < r < 1.1


def test_stieltjes_identity_lattice():
    led = enumerate_orbit(F2, 0.3, 30.0)
    # ledger Laplace transform converges to the symbolic eta as T grows
    from innerdyn.shift import poincare_eta
    S2 = SymbolicSystem.full_shift(2)
    psi = PotentialSpec.constant(S2, -LOG2)
    eta = poincare_eta(S2, psi, None, 2.0, (1, 1)).series.real
    stieltjes = float(np.sum(led.weights * np.exp(-2.0 * led.values)))
    assert stieltjes == pytest.approx(eta, abs=1e-8)


def test_level_structure_lattice_verdict():
    # values accumulated by the walker, not the exact levels of the aggregate
    led = _located(F2, 0.3, 8.0)
    lv = np.round(led.values / LOG2)
    assert np.max(np.abs(led.values - lv * LOG2)) < 1e-9
    from innerdyn.shift import lattice_verdict
    v = lattice_verdict(led.values[led.values > 0])
    assert v.is_lattice and v.generator == pytest.approx(LOG2, abs=1e-9)


# ---------------------------------------------------------------------------
# coded-system equivalence
# ---------------------------------------------------------------------------

def test_coded_count_bitexact_equivalence():
    P = build_partition(FH, 0.0)
    for seed in (0.3, 2.7):
        le = enumerate_orbit(FH, seed, 8.0)
        lc = coded_count(P, seed, 8.0, [])
        assert le.total == lc.total
        assert np.array_equal(np.sort(le.values), np.sort(lc.values))
        for t in np.linspace(0.4, 8.0, 11):
            assert le.count(t, strict=False) == lc.count(t, strict=False)
            assert le.count(t, strict=True) == lc.count(t, strict=True)


def test_coded_cylinder_count_equals_arc_restriction():
    P = build_partition(FH, 0.0)
    tau = (1, 2)
    lc = coded_count(P, 0.3, 7.0, [tau])
    la = enumerate_orbit(FH, 0.3, 7.0).restricted([cylinder_arc(P, tau)])
    assert lc.total == la.total
    for t in np.linspace(0.4, 7.0, 9):
        assert lc.count(t, strict=False) == la.count(t, strict=False)


def test_table_shift_count_matches_circle_for_binary():
    # genuinely independent dual route: pure-python word DFS on the exact
    # depth-1 table equals the vectorized angle tree for z -> z^2
    S2 = SymbolicSystem.full_shift(2)
    psi = PotentialSpec.constant(S2, -LOG2)
    lw = count_words(S2, psi, (2, 2, 2), 9.0)
    lz = _located(F2, 0.3, 9.0)
    for t in np.linspace(0.5, 9.0, 17):
        assert lw.count(t, strict=False) == lz.count(t, strict=False)


# ---------------------------------------------------------------------------
# the budget rule and the prefix-sum queries
# ---------------------------------------------------------------------------

@given(st.lists(st.builds(complex, st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
                min_size=1, max_size=2),
       st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi), st.floats(-0.5, 5.0))
@settings(max_examples=40, deadline=None)
def test_backward_orbit_budget_is_the_event_count(zeros, rotation, x, T):
    # the walk refuses exactly when there are more events than it allows
    F = BlaschkeMap((0j,) + tuple(zeros), rotation)
    n = sum(len(v) for _, v, _ in backward_orbit(F, x, T))
    assert sum(len(v) for _, v, _ in backward_orbit(F, x, T, node_budget=n)) == n
    if n:
        with pytest.raises(BudgetExceeded):
            list(backward_orbit(F, x, T, node_budget=n - 1))


def test_refused_circle_walk_stays_within_the_budget():
    # FH at T = 30 has about 4e12 events; the walk stops after the chunk
    # that passes the budget and never holds a level much larger than it
    budget = 500
    list(backward_orbit(FH, 0.3, 1.0))           # the lift table, outside the peak
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            for _ in backward_orbit(FH, 0.3, 30.0, node_budget=budget):
                pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * budget


def _step_integral(values, weights, T):
    """int_0^T N(t) e^{-t} dt, one exact term w (e^{-v} - e^{-T}) per event."""
    return math.fsum(float(w) * math.exp(-v) * -math.expm1(v - T)
                     for v, w in zip(values, weights) if v <= T)


@given(st.integers(0, 2**32 - 1), st.integers(0, 200), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_prefix_queries_match_direct_sums(seed, n, float_weights, masked):
    # masked: a restricted enumerated ledger, whose weights are bools
    rng = np.random.default_rng(seed)
    values = np.sort(rng.integers(0, 48, n) / 8.0)         # ties on a 1/8 grid
    weights = rng.integers(1, 2**40, n)
    weights = weights.astype(np.float64) if float_weights else weights
    w = rng.random(n) < 0.6 if masked else weights
    led = CountingLedger(values=values, weights=w, locations=None)
    assert led.total == int(np.sum(w))
    for t in np.concatenate([values, np.arange(-1, 50) / 8.0 + 1 / 16]):
        assert led.count(t, strict=True) == int(np.sum(w[values < t]))
        assert led.count(t, strict=False) == int(np.sum(w[values <= t]))
    # off the grid, so that every term keeps at least e^{-T}(e^{1/16} - 1)
    for t in np.arange(0, 50) / 8.0 + 1 / 16:
        want = _step_integral(values, w, t) / t
        assert led.cesaro_average(t) == pytest.approx(want, rel=1e-13, abs=0.0)


def _five_temporary_prefix_sums(x):
    """The TwoSum-corrected float prefix sums, written with a temporary per
    operation: the reference for the in-place arithmetic of _prefix_sums."""
    out = np.zeros(len(x) + 1)
    s = np.cumsum(x, out=out[1:])
    step = s - out[:-1]
    err = out[:-1] - (s - step)
    err += x - step
    s += np.cumsum(err, out=err)
    return out


@given(st.integers(0, 2**32 - 1), st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_float_prefix_sums_keep_their_bits(seed, n):
    rng = np.random.default_rng(seed)
    x = np.exp(-rng.uniform(0.0, 40.0, n)) * (rng.random(n) < 0.7)
    assert _prefix_sums(x).tobytes() == _five_temporary_prefix_sums(x).tobytes()


# ---------------------------------------------------------------------------
# arc restriction while the walk streams
# ---------------------------------------------------------------------------

_TWO_ARCS = [Arc(0.5, 1.0), Arc(3.0, 2.0)]


@pytest.mark.parametrize("F,T,arcs", [
    (FH, 10.0, [Arc(0.0, np.pi)]), (FH, 10.0, _TWO_ARCS),
    (DEG3, 9.0, [Arc(0.0, np.pi)]), (DEG3, 9.0, _TWO_ARCS),
    (FH, 10.0, [Arc(1.0, 1e-12)]),                 # holds no event
], ids=["fh-half", "fh-two", "deg3-half", "deg3-two", "fh-empty"])
def test_streamed_restriction_answers_as_the_restricted_ledger(F, T, arcs):
    # events outside the arcs weigh 0 in the restricted ledger: they add 0
    # to the counts and +0.0 to every Laplace sum and its rounding error
    got = enumerate_orbit(F, 0.3, T, arcs)
    want = enumerate_orbit(F, 0.3, T).restricted(arcs)
    v = want.values
    grid = np.concatenate([v, 0.5 * (v[1:] + v[:-1]), [T + 1.0]])
    assert all(got.count(t) == want.count(t) for t in grid)
    assert all(got.count(t, strict=False) == want.count(t, strict=False) for t in grid)
    assert all(got.cesaro_average(t) == want.cesaro_average(t) for t in grid[grid > 0])
    assert got.total == len(got.values) < len(want.values)


def test_count_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "count.csv"
    assert main(["count", "--map", FH_JSON, "--T", "10", "--x", "0.3",
                 "--arc", "0,3.141592653589793", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "ccb7eb9d5a8270f58038921d2564418802c919e9acc052fe870b28bd8673a488"


def test_count_with_an_arc_never_holds_the_whole_tree(tmp_path):
    # 261,170 events; the tree, the event list and both ledgers held at once
    # peaked at 16.3 MiB
    boundary_preimages(FH, 0.3)                  # the lift table, outside the peak
    tracemalloc.start()
    try:
        assert main(["count", "--map", FH_JSON, "--T", "12", "--x", "0.3",
                     "--arc", "0,3.141592653589793", "--out", str(tmp_path / "c.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20
