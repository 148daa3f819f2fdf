"""Backward-orbit enumeration on the circle and counting ledgers.

The counting function N(T) = #{(n, y): F^n(y) = x, log|(F^n)'(y)| <= T} is
computed by exact breadth-first enumeration of the preimage tree; pruning at
T is valid because every edge adds at least log(min |F'|) > 0. One walker,
`_walk`, enumerates this tree, the word tree of `shift.count_words` and the
first-return tree of `parabolic.parabolic_count`. It yields one level at a
time and holds two, so a circle count, which keeps only the events in its
arcs, never holds the whole tree; a refused walk holds memory of the order
of the budget. Monomial maps z -> e^{i rot} z^d have all level-n events at
n log d, so their ledgers hold aggregated (value, multiplicity) levels at
every T, counted in the target arcs by the exact equispacing count when
they are built. An event's weight is its multiplicity inside the target
set; ledgers answer count and Cesaro queries by binary search in prefix
sums of their weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blaschke import (BlaschkeMap, boundary_preimages_batch, circle_abs_deriv,
                       lyapunov_exponent)
from .circle import TWO_PI, Arc, arcs_contain, as_angle
from .coding import encode
from .errors import BudgetExceeded

_NODE_BUDGET = 10**7       # events of one walk, also the parabolic and shift budgets
_SAFETY = 4.0
_RATIO_SAMPLES = 512
_CHUNK = 1 << 14


@dataclass
class CountingLedger:
    """Sorted event stream (value, weight, location) with count queries.

    values are the log-derivatives of the events; weights are their
    multiplicities inside the target set: bool for enumerated events (False
    outside the target), and for aggregated monomial ledgers the level
    sizes in the target as exact Python ints in an object array, since d^n
    outgrows every integer dtype. locations are circle angles or real
    positions, or None for aggregated and shift ledgers, which are built
    for their target. Counts are exact; only the Cesaro average converts
    weights to float.
    """

    values: np.ndarray
    weights: np.ndarray
    locations: np.ndarray | None

    @staticmethod
    def from_events(values, locations=None, member_mask=None):
        """Ledger of unit events, weighted 0 where member_mask is False."""
        values = np.asarray(values, dtype=float)
        order = np.argsort(values, kind="stable")
        weights = (np.ones(len(values), dtype=bool) if member_mask is None
                   else np.asarray(member_mask, dtype=bool)[order])
        if locations is not None:
            locations = np.asarray(locations, dtype=float)[order]
        return CountingLedger(values=values[order], weights=weights, locations=locations)

    @functools.cached_property
    def _counts(self):
        """Prefix sums W_i = sum_{j<i} w_j, built on the first query; exact
        for integer weights."""
        return _prefix_sums(self.weights)

    @functools.cached_property
    def _laplace(self):
        """Float prefix sums S_i = sum_{j<i} w_j e^{-v_j}."""
        x = np.negative(self.values)
        return _prefix_sums(np.multiply(np.exp(x, out=x), self.weights.astype(float), out=x))

    def count(self, T: float, strict: bool = True) -> int:
        """N(T) with the strict '<' convention by default; closed uses '<='."""
        idx = np.searchsorted(self.values, T, side="left" if strict else "right")
        return int(self._counts[idx])

    @property
    def total(self) -> int:
        return int(self._counts[-1])

    def restricted(self, arcs) -> "CountingLedger":
        """Ledger re-weighted to the events whose location lies in the arc union."""
        if self.locations is None:
            raise ValueError("a ledger without locations is restricted when it is built, "
                             "through enumerate_orbit(..., arcs) or count_words(..., B=...)")
        return CountingLedger(values=self.values, locations=self.locations,
                              weights=self.weights * arcs_contain(arcs, self.locations))

    def cesaro_average(self, T: float) -> float:
        """(1/T) int_0^T N(t) e^{-t} dt = (S - W e^{-T}) / T over events v <= T."""
        if T <= 0:
            raise ValueError("T must be positive")
        W, S = self._counts, self._laplace
        idx = np.searchsorted(self.values, T, side="right")
        return float(S[idx] - float(W[idx]) * np.exp(-T)) / T if idx else 0.0


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """[0, x_0, x_0 + x_1, ...]; exact for integers (bools summed as int64,
    Python ints in an object array). A float sum adds back each step's
    rounding error, recovered exactly by TwoSum, so it stays within a few
    ulps."""
    out = np.zeros(len(x) + 1, dtype=np.result_type(x, np.int64))
    s = np.cumsum(x, out=out[1:])
    if s.dtype.kind == "f":
        step = np.subtract(s, out[:-1])
        err = np.subtract(s, step)
        np.subtract(out[:-1], err, out=err)
        err += np.subtract(x, step, out=step)
        s += np.cumsum(err, out=err)
    return out


def _monomial_level_count_in_arc(x: float, d: int, rotation: float, n: int,
                                 arc: Arc) -> int:
    """Exact number of level-n preimages of x under e^{i rot} z^d inside arc.

    The level-n preimages are d^n equispaced angles; counting reduces to
    ceil arithmetic on the offset of the progression.
    """
    if n == 0:
        return int(arc.contains(x))
    K = d**n
    # F^n(z) = e^{i rot_n} z^{d^n} with rot_n = rot * (d^n - 1)/(d - 1), d >= 2
    rot_n = rotation * (d**n - 1) / (d - 1)
    delta = TWO_PI / K
    phi = float(np.mod((x - rot_n) / K, delta))
    # the points phi + j*delta, j in [0, K), shifted to start at 0
    lo = float(np.mod(arc.start - phi, TWO_PI))
    return (int(np.ceil((lo + arc.length) / delta - 1e-15))
            - int(np.ceil(lo / delta - 1e-15)))


def _walk(root, children, T: float, node_budget: int, fanout: int):
    """Yield (nodes, values, parents), level by level from the root, of every
    node with value <= T of a tree whose values grow along its edges.

    The root has value 0 and parent -1; parents index the previous level.
    children(nodes, acc) returns (owner, child_nodes, child_values) for a
    chunk of one level, owner indexing the chunk. A chunk holds
    min(node_budget, 2^14) // fanout nodes, fanout being the usual number of
    children. Only the level being expanded and the one being built are
    alive; BudgetExceeded is raised after the chunk that takes the total
    past node_budget, so a refused walk holds memory of the order of the
    budget. The last level is empty. A NaN T is refused with ValueError.
    """
    if math.isnan(T):
        raise ValueError("T is NaN")
    total = int(T >= 0.0)
    nodes, acc, parents = np.full(total, root), np.zeros(total), np.full(total, -1, dtype=np.int64)
    chunk = max(1, min(node_budget, _CHUNK) // fanout)
    while total <= node_budget:
        yield nodes, acc, parents
        if not len(nodes):
            return
        level = []
        for lo in range(0, len(nodes), chunk):
            owner, kid, val = children(nodes[lo:lo + chunk], acc[lo:lo + chunk])
            keep = val <= T
            total += int(np.count_nonzero(keep))
            if total > node_budget:
                break
            level.append((kid[keep], val[keep], owner[keep] + lo))
        else:
            nodes, acc, parents = (np.concatenate(c) for c in zip(*level))
    raise BudgetExceeded(f"enumeration exceeded the node budget of {node_budget} events")


def _prefix_member(levels, letter, pad, cylinders):
    """Yield (nodes, values, member) per level of a walk: whether each
    event's word starts with one of the cylinders.

    The word of a level-n event is the letters of its n nodes up the parent
    links, itself first, then the pad word, then zeros; letter(nodes) gives
    one letter per node. The heads of level n come from those of level
    n - 1. cylinders None admits every event.
    """
    width = max(map(len, cylinders or ()), default=0)
    pad = np.array((tuple(pad) + (0,) * width)[:width], dtype=np.int64)
    head = None
    for nodes, values, parents in levels:
        if cylinders is None:
            yield nodes, values, np.ones(len(nodes), dtype=bool)
            continue
        head = (np.tile(pad, (len(nodes), 1)) if head is None else
                np.column_stack([letter(nodes), head[parents, :-1]])[:, :width])
        member = np.zeros(len(nodes), dtype=bool)
        for t in cylinders:
            member |= np.all(head[:, :len(t)] == np.array(t, dtype=np.int64), axis=1)
        yield nodes, values, member


def backward_orbit(F: BlaschkeMap, x, T: float, node_budget: int = _NODE_BUDGET):
    """The levels (angles, accumulated log-derivatives, parent links) of the
    preimage tree up to log-derivative T, as `_walk` yields them.

    Every edge adds log|F'| >= log m, m = `F.min_boundary_deriv()`, so a
    node whose value exceeds T - log m has no child <= T; such nodes are not
    solved (1e-12 of slack covers the rounding of log|F'|). The tree, its
    order and its parent links are those of solving every node.
    """
    d = F.degree
    live = T - math.log(F.min_boundary_deriv()) + 1e-12

    def children(angles, acc):
        owner = np.flatnonzero(acc <= live)
        Y = boundary_preimages_batch(F, angles[owner])     # (m, d)
        vals = acc[owner, None] + np.log(circle_abs_deriv(F, Y))
        return np.repeat(owner, d), Y.ravel(), vals.ravel()

    return _walk(as_angle(x), children, T, node_budget, d)


def refuse_oversize(T: float, measure: float, lyapunov: float, node_budget: int) -> None:
    """Refuse a walk whose predicted size 4 * measure * e^T / lyapunov
    exceeds the node budget, before it starts."""
    if T > math.log(node_budget * lyapunov / (_SAFETY * measure)):
        raise BudgetExceeded("predicted event count exceeds the node budget; "
                             "a truncated count would bias the limit, so refuse")


def enumerate_orbit(F: BlaschkeMap, x, T: float, arcs=()) -> CountingLedger:
    """Exact ledger of the backward-orbit events up to log-derivative T in
    the arc union (every event when arcs is empty).

    Monomial maps get the aggregated per-level ledger at every T (lattice
    structure, exact multiplicity d^n at value n log d, or its exact count
    in the arcs), refused with BudgetExceeded when its unrestricted total
    does not fit the double that the growth ratio and the Cesaro average
    convert it to. Other maps keep the events in the arcs level by level,
    refused, never truncated, over budget.
    """
    if F.is_rotation:
        raise ValueError("rotations have no expanding counting theory")
    x = as_angle(x)
    if F.is_monomial:
        d = F.degree
        # capped, since d^1024 already exceeds every double
        n_max = int(np.floor(min(T / np.log(d) + 1e-12, 1024.0)))
        weights = [d**n for n in range(n_max + 1)]
        if sum(weights) > float(np.finfo(float).max):
            raise BudgetExceeded(f"z^{d} has more events up to T = {T} than a double holds")
        if arcs:
            weights = [sum(_monomial_level_count_in_arc(x, d, F.rotation, n, a) for a in arcs)
                       for n in range(n_max + 1)]
        return CountingLedger(values=np.arange(n_max + 1) * np.log(d),
                              weights=np.array(weights, dtype=object), locations=None)
    refuse_oversize(T, 1.0, lyapunov_exponent(F), _NODE_BUDGET)
    locs, vals = [], []
    for nodes, values, _ in backward_orbit(F, x, T):
        keep = arcs_contain(arcs, nodes) if arcs else slice(None)
        locs.append(nodes[keep])
        vals.append(values[keep])
    return CountingLedger.from_events(np.concatenate(vals), locations=np.concatenate(locs))


def coded_count(partition, x, T: float, cylinders) -> CountingLedger:
    """Counting on the coded system: events filtered by itinerary prefix.

    Runs the same backward-orbit engine and reads each event's leading
    letters up the parent links, padded by the seed's own itinerary; an
    event's infinite word starts with tau exactly when its first |tau|
    letters match, which reproduces the symbolic count of the pulled-back
    potential bit for bit. An empty list of cylinders admits every event.
    """
    cylinders = [tuple(t) for t in cylinders]
    width = max(map(len, cylinders), default=0)
    pad = encode(partition, x, width) if width else ()
    locs, vals, member = zip(*_prefix_member(backward_orbit(partition.map, x, T),
                                             partition.letter, pad, cylinders or None))
    return CountingLedger.from_events(np.concatenate(vals), locations=np.concatenate(locs),
                                      member_mask=np.concatenate(member))


def cesaro_average(L: CountingLedger, T: float) -> float:
    return L.cesaro_average(T)


def ratio_amplitude(L: CountingLedger, lyapunov: float, mB: float,
                    T_lo: float, T_hi: float) -> float:
    """Oscillation (max - min) of the normalized ratio (N(T) e^{-T}) / (m(B) /
    Lyapunov) at 512 points of a T window."""
    pred = mB / lyapunov
    ratios = np.array([L.count(T, strict=True) * np.exp(-T) / pred
                       for T in np.linspace(T_lo, T_hi, _RATIO_SAMPLES)])
    return float(np.max(ratios) - np.min(ratios))
