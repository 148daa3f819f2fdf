"""Backward-orbit enumeration on the circle and counting ledgers.

The counting function N(T) = #{(n, y): F^n(y) = x, log|(F^n)'(y)| <= T} is
computed by exact breadth-first enumeration of the preimage tree; pruning at
T is valid because every edge adds at least log(min |F'|) > 0. Monomial maps
z -> e^{i rot} z^d have all level-n events at the single value n log d, so
for large T their ledgers hold aggregated (value, multiplicity) levels and
arc restriction uses the exact equispacing count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import (BlaschkeMap, boundary_preimages_batch, circle_abs_deriv,
                       lyapunov_exponent)
from .circle import TWO_PI, Arc, arcs_contain, as_angle
from .errors import BudgetExceeded

_NODE_BUDGET = 10**7
_SAFETY = 4.0


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
    T_max: float
    space: str = "circle"
    member_mask: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @staticmethod
    def from_events(values, locations=None, weights=None, member_mask=None,
                    T_max=np.inf, space="circle", meta=None):
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
                              T_max=float(T_max), space=space, member_mask=member_mask,
                              meta=meta or {})

    def _effective_weights(self) -> np.ndarray:
        if self.member_mask is None:
            return self.weights
        return np.where(self.member_mask, self.weights, 0)

    def count(self, T: float, strict: bool = True) -> int:
        """N(T) with the strict '<' convention by default; closed uses '<='."""
        side = "left" if strict else "right"
        idx = np.searchsorted(self.values, T, side=side)
        return int(np.sum(self._effective_weights()[:idx]))

    @property
    def total(self) -> int:
        return int(np.sum(self._effective_weights()))

    def restricted(self, arcs) -> "CountingLedger":
        """Ledger filtered to events whose location lies in the arc union."""
        if self.locations is None:
            return _restrict_aggregated(self, arcs)
        mask = arcs_contain(arcs, self.locations)
        return CountingLedger(values=self.values, weights=self.weights,
                              locations=self.locations, T_max=self.T_max, space=self.space,
                              member_mask=mask if self.member_mask is None
                              else (mask & self.member_mask),
                              meta=dict(self.meta))

    def cesaro_average(self, T: float) -> float:
        """(1/T) int_0^T N(t) e^{-t} dt, exactly (N is a step function)."""
        if T <= 0:
            raise ValueError("T must be positive")
        w = self._effective_weights()
        sel = self.values <= T
        v = self.values[sel]
        cum = np.cumsum(w[sel])
        if len(v) == 0:
            return 0.0
        edges = np.concatenate([v, [T]])
        integral = float(np.sum(cum * (np.exp(-edges[:-1]) - np.exp(-edges[1:]))))
        return integral / T

    def stieltjes(self, s: complex) -> complex:
        """sum over events of e^{-s * value}, the Laplace transform of dN."""
        w = self._effective_weights()
        return complex(np.sum(w * np.exp(-complex(s) * self.values)))


def _monomial_level_count_in_arc(x: float, d: int, rotation: float, n: int,
                                 arc: Arc) -> int:
    """Exact number of level-n preimages of x under e^{i rot} z^d inside arc.

    The level-n preimages are d^n equispaced angles; counting reduces to
    ceil arithmetic on the offset of the progression.
    """
    if n == 0:
        return int(arc.contains(x))
    K = d**n
    # F^n(z) = e^{i rot_n} z^{d^n} with rot_n = rot * (d^n - 1)/(d - 1)
    rot_n = rotation * (d**n - 1) / (d - 1) if d > 1 else rotation * n
    delta = TWO_PI / K
    phi = float(np.mod((x - rot_n) / K, delta))
    lo = float(np.mod(arc.start - phi, TWO_PI))
    hi = lo + arc.length

    def count_below(t):
        return int(np.ceil((t - 0.0) / delta - 1e-15))

    # points at phi + j*delta for j in [0, K); shift so the progression starts at 0
    return count_below(hi) - count_below(lo)


def _restrict_aggregated(L: CountingLedger, arcs) -> CountingLedger:
    x = L.meta["seed_angle"]
    d = L.meta["degree"]
    rot = L.meta["rotation"]
    new_w = np.zeros_like(L.weights)
    for i, v in enumerate(L.values):
        n = int(round(v / np.log(d))) if v > 0 else 0
        new_w[i] = sum(_monomial_level_count_in_arc(x, d, rot, n, a) for a in arcs)
    return CountingLedger(values=L.values, weights=new_w, locations=None,
                          T_max=L.T_max, space=L.space, member_mask=None,
                          meta=dict(L.meta))


@dataclass
class BackwardOrbit:
    """Level-synchronous backward orbit of x: angles, values, parent links."""

    angles: list          # level n -> ndarray of preimage angles
    values: list          # level n -> ndarray of accumulated log-derivatives
    parents: list         # level n -> ndarray of indices into level n-1

    @property
    def depth(self) -> int:
        return len(self.angles) - 1


def backward_orbit(F: BlaschkeMap, x, T: float,
                   node_budget: int = _NODE_BUDGET) -> BackwardOrbit:
    """All preimage-tree nodes with accumulated log-derivative <= T."""
    x = as_angle(x)
    angles = [np.array([x])]
    values = [np.array([0.0])]
    parents = [np.array([-1], dtype=np.int64)]
    nodes = 1
    d = F.degree
    while len(angles[-1]) > 0:
        cur_a = angles[-1]
        cur_v = values[-1]
        Y = boundary_preimages_batch(F, cur_a)            # (m, d)
        inc = np.log(circle_abs_deriv(F, Y))
        child_v = cur_v[:, None] + inc
        keep = child_v <= T
        if not np.any(keep):
            angles.append(np.array([]))
            values.append(np.array([]))
            parents.append(np.array([], dtype=np.int64))
            break
        par = np.broadcast_to(np.arange(len(cur_a))[:, None], (len(cur_a), d))
        angles.append(Y[keep])
        values.append(child_v[keep])
        parents.append(par[keep])
        nodes += int(np.sum(keep))
        if nodes > node_budget:
            raise BudgetExceeded(f"backward orbit exceeded {node_budget} nodes")
    return BackwardOrbit(angles=angles, values=values, parents=parents)


def estimate_nodes(F: BlaschkeMap, T: float) -> float:
    """Predicted event count e^T / Lyapunov with a safety margin."""
    lam = lyapunov_exponent(F)
    return _SAFETY * np.exp(T) / lam


def enumerate_orbit(F: BlaschkeMap, x, T: float,
                    node_budget: int = _NODE_BUDGET) -> CountingLedger:
    """Exact ledger of all backward-orbit events up to log-derivative T.

    Monomial maps whose predicted event count exceeds the budget switch to
    the aggregated per-level ledger (lattice structure, exact multiplicity
    d^n at value n log d); enumeration is refused, never truncated, for
    other maps over budget.
    """
    if F.is_rotation:
        raise ValueError("rotations have no expanding counting theory")
    x = as_angle(x)
    if T < 0:
        return CountingLedger.from_events(np.array([]), locations=np.array([]),
                                          T_max=T, meta={"map": F.label()})
    if F.is_monomial:
        d = F.degree
        n_max = int(np.floor(T / np.log(d) + 1e-12))
        if sum(d**n for n in range(n_max + 1)) > node_budget:
            vals = np.arange(n_max + 1) * np.log(d)
            # float64 weights: level sizes d^n exceed any integer dtype for
            # large T; counts beyond 2^53 are then correctly rounded, which
            # is harmless for the ratio and Cesaro functionals
            weights = np.power(float(d), np.arange(n_max + 1, dtype=np.float64))
            return CountingLedger(values=vals, weights=weights,
                                  locations=None, T_max=float(T), space="circle",
                                  meta={"map": F.label(), "seed_angle": x,
                                        "degree": d, "rotation": F.rotation,
                                        "aggregated": True})
    elif estimate_nodes(F, T) > node_budget:
        raise BudgetExceeded("predicted event count exceeds the node budget; "
                             "a truncated count would bias the limit, so refuse")
    orbit = backward_orbit(F, x, T, node_budget)
    vals = np.concatenate(orbit.values)
    locs = np.concatenate(orbit.angles)
    return CountingLedger.from_events(vals, locations=locs, T_max=float(T),
                                      meta={"map": F.label(), "seed_angle": x})


def coded_count(partition, x, T: float, cylinders,
                node_budget: int = _NODE_BUDGET) -> CountingLedger:
    """Counting on the coded system: events filtered by itinerary prefix.

    Runs the same backward-orbit engine and assigns each event its leading
    letters by walking the parent links; an event's infinite word starts
    with tau exactly when its first |tau| letters match, which reproduces
    the symbolic count of the pulled-back potential bit for bit.
    """
    F = partition.map
    orbit = backward_orbit(F, x, T, node_budget)
    cylinders = [tuple(t) for t in cylinders]
    max_tau = max(len(t) for t in cylinders) if cylinders else 0
    all_vals = []
    all_mask = []
    all_locs = []
    for n in range(len(orbit.angles)):
        ang = orbit.angles[n]
        if len(ang) == 0:
            continue
        letters = np.empty((len(ang), 0), dtype=np.int64)
        if max_tau > 0:
            cols = []
            level = n
            cur_idx = np.arange(len(ang))
            for _ in range(min(max_tau, n)):
                cols.append(partition.letter(orbit.angles[level][cur_idx]))
                cur_idx = orbit.parents[level][cur_idx]
                level -= 1
            # pad with the seed's own itinerary when the word is shorter than tau
            if n < max_tau:
                pad = _seed_letters(partition, x, max_tau - n)
                for p in pad:
                    cols.append(np.full(len(ang), p, dtype=np.int64))
            letters = np.stack(cols, axis=1) if cols else letters
        mask = np.zeros(len(ang), dtype=bool)
        if cylinders:
            for tau in cylinders:
                t = np.array(tau, dtype=np.int64)
                mask |= np.all(letters[:, : len(t)] == t[None, :], axis=1)
        else:
            mask[:] = True
        all_vals.append(orbit.values[n])
        all_mask.append(mask)
        all_locs.append(ang)
    vals = np.concatenate(all_vals)
    return CountingLedger.from_events(
        vals, locations=np.concatenate(all_locs),
        member_mask=np.concatenate(all_mask), T_max=float(T), space="circle",
        meta={"map": F.label(), "seed_angle": as_angle(x), "coded": True})


def _seed_letters(partition, x, count: int) -> list[int]:
    from .coding import encode
    return list(encode(partition, x, count))


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
                    T_lo: float, T_hi: float, samples: int = 512) -> float:
    """Oscillation (max - min) of the normalized ratio over a T window."""
    grid = np.linspace(T_lo, T_hi, samples)
    rows = asymptotic_report(L, lyapunov, mB, grid)
    ratios = np.array([r.ratio for r in rows])
    return float(np.max(ratios) - np.min(ratios))
