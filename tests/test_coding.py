"""Markov partition, coding map and cylinder arcs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innerdyn.blaschke import BlaschkeMap, angle_map, circle_abs_deriv
from innerdyn.circle import TWO_PI, wrap_angle
from innerdyn.coding import build_partition, encode, word_from_str
from innerdyn.errors import ExceptionalPoint, NotFixed
from cylinder_oracle import backward_chain, cylinder_arc, cylinder_weight

F2 = BlaschkeMap.monomial(2)
F3 = BlaschkeMap.monomial(3)
FH = BlaschkeMap((0j, 0.5 + 0j))

P2 = build_partition(F2, 0.0)
P3 = build_partition(F3, 0.0)
PH = build_partition(FH, 0.0)


def test_partition_arcs():
    assert [(a.start, a.end) for a in P2.arcs()] == pytest.approx(
        [(0.0, np.pi), (np.pi, 0.0)])
    thirds = [(0.0, TWO_PI / 3), (TWO_PI / 3, 2 * TWO_PI / 3),
              (2 * TWO_PI / 3, 0.0)]
    got = [(a.start, a.end) for a in P3.arcs()]
    assert np.allclose(got, thirds, atol=1e-10)
    # F^{-1}(1) = {1, -1} for the degree-two product with zero 1/2
    assert [(a.start, a.end) for a in PH.arcs()] == pytest.approx(
        [(0.0, np.pi), (np.pi, 0.0)], abs=1e-10)


def test_partition_rejects_non_fixed_point():
    with pytest.raises(NotFixed):
        build_partition(F2, 1.0)


def test_encode_examples():
    # direct orbit arithmetic: 2pi/3 -> 4pi/3 -> 2pi/3
    assert encode(P2, 2 * np.pi / 3, 3) == (1, 2, 1)
    assert encode(P2, np.pi / 4, 2) == (1, 1)
    # orbit oracle: pi is fixed under z -> z^3 on angles (3*pi = pi mod 2pi),
    # and pi lies in the middle arc; frozen regression value
    assert encode(P3, np.pi, 2) == (2, 2)


def test_encode_exceptional():
    with pytest.raises(ExceptionalPoint):
        encode(P2, 0.0, 1)
    with pytest.raises(ExceptionalPoint):
        encode(P2, np.pi / 2, 3)   # orbit hits pi then 0


def test_cylinder_arcs_binary():
    c = cylinder_arc(P2, (1,))
    assert (c.start, c.end, c.measure) == pytest.approx((0.0, np.pi, 0.5))
    c = cylinder_arc(P2, (1, 2))
    assert (c.start, c.end, c.measure) == pytest.approx(
        (np.pi / 2, np.pi, 0.25), abs=1e-12)
    c = cylinder_arc(PH, (2,))
    assert (c.start, c.end, c.measure) == pytest.approx(
        (np.pi, 0.0, 0.5), abs=1e-10)


def test_cylinder_weight_matches_clark_mass():
    # the transfer weight of the cylinder [2] at angle 0 is the Clark mass
    # of the preimage -1, namely 3/4
    assert cylinder_weight(PH, (2,), 0.0) == pytest.approx(0.75, abs=1e-10)


def test_conformal_mass_sandwich():
    # exact sandwich: min_x w(x) <= m([w]) <= max_x w(x) for the Lebesgue
    # conformal measure, w(x) = 1/|(F^k)'| at the fiber point in the cylinder
    rng = np.random.default_rng(3)
    for word in [(1,), (2,), (1, 2), (2, 1), (1, 1, 2)]:
        arc = cylinder_arc(PH, word)
        weights = [cylinder_weight(PH, word, x)
                   for x in rng.uniform(0.05, TWO_PI - 0.05, 40)]
        assert min(weights) - 1e-12 <= arc.measure <= max(weights) + 1e-12


def test_conformal_mass_against_operator_weights():
    # the dual eigenvector of the s = 1 operator is the conformal measure on
    # the grid; its mass on a cylinder arc matches the arc measure up to the
    # grid resolution
    from innerdyn.spectral import leading_spectral_data
    from innerdyn.transfer import assemble_operator
    N = 256
    data = leading_spectral_data(assemble_operator(FH, 1.0, None, N).matrix)
    grid = np.arange(N) * TWO_PI / N
    for word in [(1,), (2,), (1, 2)]:
        arc = cylinder_arc(PH, word)
        mass = float(np.sum(data.weights.real[arc.contains(grid)]))
        assert abs(mass - arc.measure) <= 2.0 / N


@given(st.floats(0.01, TWO_PI - 0.01))
@settings(max_examples=60, deadline=None)
def test_coding_semiconjugates_the_shift(x):
    try:
        w1 = encode(PH, x, 12)
        w2 = encode(PH, float(angle_map(FH, x)), 11)
    except ExceptionalPoint:
        return
    assert w1[1:] == w2


@pytest.mark.parametrize("P,d", [(P2, 2), (PH, 2), (P3, 3)])
def test_cylinders_nest_and_tile(P, d):
    for depth in (1, 2, 3):
        total = sum(cylinder_arc(P, w).length
                    for w in itertools.product(range(1, d + 1), repeat=depth))
        assert total == pytest.approx(TWO_PI, abs=1e-9)
    # nesting and geometric decay
    min_deriv = 1.0 / np.min(circle_abs_deriv(P.map, np.linspace(0, TWO_PI, 4096)))
    for w in itertools.product(range(1, d + 1), repeat=2):
        outer = cylinder_arc(P, w[:1])
        inner = cylinder_arc(P, w)
        rel = (inner.start - outer.start) % TWO_PI
        assert rel + inner.length <= outer.length + 1e-10
        assert inner.length <= outer.length * min_deriv + 1e-10


def test_encode_matches_cylinder_membership():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(0, TWO_PI)
        try:
            w = encode(PH, x, 4)
        except ExceptionalPoint:
            continue
        assert cylinder_arc(PH, w).contains(x)


def test_cylinder_point_roundtrip():
    # the point at which cylinder_weight reads the derivative
    y = float(wrap_angle(backward_chain(PH, (1, 2, 2), 1.234)[0]))
    cur = y
    for _ in range(3):
        cur = float(angle_map(FH, cur))
    assert abs(np.exp(1j * cur) - np.exp(1j * 1.234)) < 1e-9
    assert cylinder_arc(PH, (1, 2, 2)).contains(y)


def test_word_serialization():
    assert word_from_str("1,2,1") == (1, 2, 1)
