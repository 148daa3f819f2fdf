"""Backward-orbit enumeration on the circle and counting ledgers.

The counting function N(T) = #{(n, y): F^n(y) = x, log|(F^n)'(y)| <= T} is
computed by exact breadth-first enumeration of the preimage tree; pruning at
T is valid because every edge adds at least log(min |F'|) > 0. One walker,
`_walk`, enumerates this tree, the word tree of `shift.count_words` and the
first-return tree of `parabolic.parabolic_count`; it raises BudgetExceeded
exactly when there are more events than the node budget, checked after
every expanded chunk, so a refused walk holds memory of the order of the
budget. Monomial maps z -> e^{i rot} z^d have all level-n events at n log d,
so for large T their ledgers hold aggregated (value, multiplicity) levels
and arc restriction uses the exact equispacing count. Ledgers answer count
and Cesaro queries by binary search in prefix sums of their member weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .blaschke import (BlaschkeMap, boundary_preimages_batch, circle_abs_deriv,
                       lyapunov_exponent)
from .circle import TWO_PI, Arc, arcs_contain, as_angle
from .coding import encode
from .errors import BudgetExceeded

_NODE_BUDGET = 10**7       # events of one walk, also the parabolic and shift budgets
_SAFETY = 4.0
_RATIO_SAMPLES = 512
_CHUNK = 1 << 16


@dataclass
class CountingLedger:
    """Sorted event stream (value, weight, location) with count queries.

    values are the log-derivatives of the events; weights are integer
    multiplicities (1 for enumerated events, level sizes for aggregated
    monomial ledgers). locations are circle angles or real positions, or
    None for aggregated ledgers. member_mask marks events inside the target
    set when the ledger was built against one.
    """

    values: np.ndarray
    weights: np.ndarray
    locations: np.ndarray | None
    member_mask: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @staticmethod
    def from_events(values, locations=None, weights=None, member_mask=None, meta=None):
        values = np.asarray(values, dtype=float)
        order = np.argsort(values, kind="stable")
        values = values[order]
        weights = (np.ones(len(values), dtype=np.int64) if weights is None
                   else np.asarray(weights, dtype=np.int64)[order])
        if locations is not None:
            locations = np.asarray(locations, dtype=float)[order]
        if member_mask is not None:
            member_mask = np.asarray(member_mask, dtype=bool)[order]
        return CountingLedger(values=values, weights=weights, locations=locations,
                              member_mask=member_mask, meta=meta or {})

    @functools.cached_property
    def _sums(self):
        """Member weights w and their prefix sums W_i = sum_{j<i} w_j and
        S_i = sum_{j<i} w_j e^{-v_j}, built on the first query."""
        w = (self.weights if self.member_mask is None
             else np.where(self.member_mask, self.weights, 0))
        return w, _prefix_sums(w), _prefix_sums(w * np.exp(-self.values))

    def count(self, T: float, strict: bool = True) -> int:
        """N(T) with the strict '<' convention by default; closed uses '<='."""
        idx = np.searchsorted(self.values, T, side="left" if strict else "right")
        return int(self._sums[1][idx])

    @property
    def total(self) -> int:
        return int(self._sums[1][-1])

    def restricted(self, arcs) -> "CountingLedger":
        """Ledger filtered to events whose location lies in the arc union."""
        if self.locations is None:
            return _restrict_aggregated(self, arcs)
        mask = arcs_contain(arcs, self.locations)
        return CountingLedger(values=self.values, weights=self.weights, locations=self.locations,
                              member_mask=mask if self.member_mask is None
                              else (mask & self.member_mask),
                              meta=dict(self.meta))

    def cesaro_average(self, T: float) -> float:
        """(1/T) int_0^T N(t) e^{-t} dt = (S - W e^{-T}) / T over events v <= T."""
        if T <= 0:
            raise ValueError("T must be positive")
        _, W, S = self._sums
        idx = np.searchsorted(self.values, T, side="right")
        return float(S[idx] - W[idx] * np.exp(-T)) / T if idx else 0.0

    def stieltjes(self, s: complex) -> complex:
        """sum over events of e^{-s * value}, the Laplace transform of dN."""
        return complex(np.sum(self._sums[0] * np.exp(-complex(s) * self.values)))


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """[0, x_0, x_0 + x_1, ...]; a float sum adds back each step's rounding
    error, recovered exactly by TwoSum, so it stays within a few ulps."""
    out = np.zeros(len(x) + 1, dtype=x.dtype)
    s = np.cumsum(x, out=out[1:])
    if s.dtype.kind == "f":
        step = s - out[:-1]
        err = out[:-1] - (s - step)
        err += x - step
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


def _restrict_aggregated(L: CountingLedger, arcs) -> CountingLedger:
    x = L.meta["seed_angle"]
    d = L.meta["degree"]
    rot = L.meta["rotation"]
    # entry n of an aggregated ledger is level n
    new_w = np.array([sum(_monomial_level_count_in_arc(x, d, rot, n, a) for a in arcs)
                      for n in range(len(L.values))], dtype=float)
    return CountingLedger(values=L.values, weights=new_w, locations=None,
                          member_mask=None, meta=dict(L.meta))


@dataclass
class LevelTree:
    """Per level n: the nodes, their accumulated values and the parent links
    (indices into level n - 1, -1 at the roots)."""

    nodes: list
    values: list
    parents: list

    def events(self) -> tuple[np.ndarray, np.ndarray]:
        """All nodes and their values, level after level."""
        return np.concatenate(self.nodes), np.concatenate(self.values)


def _walk(root, children, T: float, node_budget: int, fanout: int) -> LevelTree:
    """Every node with value <= T of a tree whose values grow along its edges.

    The root has value 0. children(nodes, acc) returns (owner, child_nodes,
    child_values) for a chunk of one level, owner indexing the chunk. A
    chunk holds min(node_budget, 2^16) // fanout nodes, fanout being the
    usual number of children, and BudgetExceeded is raised after the chunk
    that takes the total past node_budget; the last level is empty.
    """
    total = int(T >= 0.0)
    tree = LevelTree([np.full(total, root)], [np.zeros(total)],
                     [np.full(total, -1, dtype=np.int64)])
    chunk = max(1, min(node_budget, _CHUNK) // fanout)
    while len(tree.nodes[-1]) and total <= node_budget:
        nodes, acc = tree.nodes[-1], tree.values[-1]
        level = []
        for lo in range(0, len(nodes), chunk):
            if total > node_budget:
                break
            owner, kid, val = children(nodes[lo:lo + chunk], acc[lo:lo + chunk])
            keep = val <= T
            total += int(np.count_nonzero(keep))
            level.append((kid[keep], val[keep], owner[keep] + lo))
        kids, vals, parents = (np.concatenate(c) for c in zip(*level))
        tree.nodes.append(kids)
        tree.values.append(vals)
        tree.parents.append(parents)
    if total > node_budget:
        raise BudgetExceeded(f"enumeration exceeded the node budget of {node_budget} events")
    return tree


def _prefix_member(tree: LevelTree, letter, pad, cylinders) -> np.ndarray:
    """Whether each event's word starts with one of the cylinders.

    The word of a level-n event is the letters of its n nodes up the parent
    links, itself first, then the pad word, then zeros; letter(nodes) gives
    one letter per node. cylinders None admits every event.
    """
    if cylinders is None:
        return np.ones(sum(map(len, tree.nodes)), dtype=bool)
    width = max(map(len, cylinders), default=0)
    pad = np.array((tuple(pad) + (0,) * width)[:width], dtype=np.int64)
    heads = [np.tile(pad, (len(tree.nodes[0]), 1))]
    for nodes, parents in zip(tree.nodes[1:], tree.parents[1:]):
        heads.append(np.column_stack([letter(nodes), heads[-1][parents, :-1]])[:, :width])
    head = np.concatenate(heads)
    member = np.zeros(len(head), dtype=bool)
    for t in cylinders:
        member |= np.all(head[:, :len(t)] == np.array(t, dtype=np.int64), axis=1)
    return member


def backward_orbit(F: BlaschkeMap, x, T: float,
                   node_budget: int = _NODE_BUDGET) -> LevelTree:
    """All preimage-tree nodes (angles) with accumulated log-derivative <= T."""
    d = F.degree

    def children(angles, acc):
        Y = boundary_preimages_batch(F, angles)            # (m, d)
        owner = np.repeat(np.arange(len(angles)), d)
        return owner, Y.ravel(), (acc[:, None] + np.log(circle_abs_deriv(F, Y))).ravel()

    return _walk(as_angle(x), children, T, node_budget, d)


def refuse_oversize(T: float, measure: float, lyapunov: float, node_budget: int) -> None:
    """Refuse a walk whose predicted size 4 * measure * e^T / lyapunov
    exceeds the node budget, before it starts."""
    if T > math.log(node_budget * lyapunov / (_SAFETY * measure)):
        raise BudgetExceeded("predicted event count exceeds the node budget; "
                             "a truncated count would bias the limit, so refuse")


def enumerate_orbit(F: BlaschkeMap, x, T: float) -> CountingLedger:
    """Exact ledger of all backward-orbit events up to log-derivative T.

    Monomial maps whose predicted event count exceeds the budget switch to
    the aggregated per-level ledger (lattice structure, exact multiplicity
    d^n at value n log d); enumeration is refused, never truncated, for
    other maps over budget.
    """
    if F.is_rotation:
        raise ValueError("rotations have no expanding counting theory")
    x = as_angle(x)
    if F.is_monomial:
        d = F.degree
        n_max = int(np.floor(T / np.log(d) + 1e-12))
        if sum(d**n for n in range(n_max + 1)) > _NODE_BUDGET:
            vals = np.arange(n_max + 1) * np.log(d)
            # float64 weights: level sizes d^n exceed any integer dtype for
            # large T; counts beyond 2^53 are then correctly rounded, which
            # is harmless for the ratio and Cesaro functionals
            weights = np.power(float(d), np.arange(n_max + 1, dtype=np.float64))
            return CountingLedger(values=vals, weights=weights, locations=None,
                                  meta={"map": F.label(), "seed_angle": x,
                                        "degree": d, "rotation": F.rotation,
                                        "aggregated": True})
    else:
        refuse_oversize(T, 1.0, lyapunov_exponent(F), _NODE_BUDGET)
    locs, vals = backward_orbit(F, x, T).events()
    return CountingLedger.from_events(vals, locations=locs,
                                      meta={"map": F.label(), "seed_angle": x})


def coded_count(partition, x, T: float, cylinders) -> CountingLedger:
    """Counting on the coded system: events filtered by itinerary prefix.

    Runs the same backward-orbit engine and reads each event's leading
    letters up the parent links, padded by the seed's own itinerary; an
    event's infinite word starts with tau exactly when its first |tau|
    letters match, which reproduces the symbolic count of the pulled-back
    potential bit for bit. An empty list of cylinders admits every event.
    """
    F = partition.map
    tree = backward_orbit(F, x, T)
    cylinders = [tuple(t) for t in cylinders]
    width = max(map(len, cylinders), default=0)
    pad = encode(partition, x, width) if width else ()
    member = _prefix_member(tree, partition.letter, pad, cylinders or None)
    locs, vals = tree.events()
    return CountingLedger.from_events(
        vals, locations=locs, member_mask=member,
        meta={"map": F.label(), "seed_angle": as_angle(x), "coded": True})


@dataclass
class AsymptoticRow:
    T: float
    N: int
    scaled: float       # N(T) e^{-T}
    predicted: float    # m(B) / Lyapunov
    ratio: float


def asymptotic_report(L: CountingLedger, lyapunov: float, mB: float,
                      T_grid) -> list[AsymptoticRow]:
    """Rows (T, N, N e^{-T}, prediction, ratio); consumed by tests and CLI."""
    pred = mB / lyapunov
    rows = []
    for T in T_grid:
        N = L.count(T, strict=True)
        scaled = N * np.exp(-T)
        rows.append(AsymptoticRow(T=float(T), N=N, scaled=float(scaled),
                                  predicted=pred,
                                  ratio=float(scaled / pred) if pred > 0 else np.nan))
    return rows


def cesaro_average(L: CountingLedger, T: float) -> float:
    return L.cesaro_average(T)


def ratio_amplitude(L: CountingLedger, lyapunov: float, mB: float,
                    T_lo: float, T_hi: float) -> float:
    """Oscillation (max - min) of the normalized ratio at 512 points of a T window."""
    grid = np.linspace(T_lo, T_hi, _RATIO_SAMPLES)
    rows = asymptotic_report(L, lyapunov, mB, grid)
    ratios = np.array([r.ratio for r in rows])
    return float(np.max(ratios) - np.min(ratios))
