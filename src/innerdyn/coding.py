"""Markov partition of the circle from a boundary fixed point, and the coding.

The preimages of a boundary fixed point p cut the circle into d half-open
arcs, each mapped bijectively onto the circle minus p. Itineraries over the
arc labels 1..d code circle points; half-open membership gives every point
off a finite exceptional set exactly one code.

Everything backward goes through `blaschke.lift_inverse`. With L the
continuous lift of the map and L(p) = p + 2*pi*m, the cuts are
L^{-1}(p + 2*pi*(m + j)), j = 0..d, and the inverse branch into arc j + 1 is
tau -> L^{-1}(tau + 2*pi*(m + j)) on the lifted circle [p, p + 2*pi].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeMap, angle_map, lift_inverse
from .circle import TWO_PI, Arc, as_angle, wrap_angle
from .errors import ExceptionalPoint, NotFixed

_ENDPOINT_TOL = 1e-12

Word = tuple  # letters are 1-based ints


def word_from_str(s: str) -> Word:
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


@dataclass(frozen=True)
class MarkovPartition:
    """d half-open arcs between consecutive preimages of a fixed point p.

    cuts holds the lifted endpoints: cuts[0] = p <= cuts[1] < ... and
    cuts[d] = p + 2*pi, so arc i (1-based) is [cuts[i-1], cuts[i]) in the
    lifted coordinate. turns is the integer m with L(p) = p + 2*pi*m for the
    lift L of `blaschke.lift_inverse`.
    """

    map: BlaschkeMap
    base_point: float
    cuts: np.ndarray
    turns: int

    @property
    def degree(self) -> int:
        return len(self.cuts) - 1

    def arcs(self) -> list[Arc]:
        return [Arc.from_endpoints(self.cuts[i], wrap_angle(self.cuts[i + 1]))
                for i in range(self.degree)]

    def lift(self, theta) -> np.ndarray:
        """Representative of theta in [p, p + 2*pi)."""
        p = self.base_point
        return p + wrap_angle(np.asarray(theta, dtype=float) - p)

    def letter(self, theta):
        """1-based arc index containing theta (half-open convention)."""
        lifted = self.lift(theta)
        idx = np.searchsorted(self.cuts, lifted, side="right")
        return np.clip(idx, 1, self.degree).astype(int) if np.ndim(theta) else \
            int(min(max(idx, 1), self.degree))

    def endpoint_distance(self, theta) -> float:
        return float(np.min(np.abs(self.cuts - self.lift(theta))))


def build_partition(F: BlaschkeMap, p) -> MarkovPartition:
    """Partition arcs from the boundary fixed point p (counterclockwise)."""
    if F.degree < 2:
        raise ValueError("partitions need degree >= 2")
    p = as_angle(p)
    image = angle_map(F, p)
    gap = abs(np.exp(1j * image) - np.exp(1j * p))
    if gap > 1e-10:
        raise NotFixed(f"|F(p) - p| = {gap:.2e} exceeds 1e-10")
    # L^{-1}(p + 2*pi*j) = p + 2*pi*q for one j in 0..d-1; then m = j - d*q
    rel = lift_inverse(F, p + TWO_PI * np.arange(F.degree)) - p
    j = int(np.argmin(np.abs(np.angle(np.exp(1j * rel)))))
    m = j - F.degree * round(rel[j] / TWO_PI)
    inner = lift_inverse(F, p + TWO_PI * (m + np.arange(1, F.degree)))
    cuts = np.concatenate([[p], inner, [p + TWO_PI]])
    return MarkovPartition(map=F, base_point=float(p), cuts=cuts, turns=m)


def encode(P: MarkovPartition, x, depth: int) -> Word:
    """Arc itinerary of x under the first `depth` iterates.

    Raises ExceptionalPoint when the orbit passes within 1e-12 of an arc
    endpoint, where the coding is ambiguous.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    y = as_angle(x)
    letters = []
    for _ in range(depth):
        if P.endpoint_distance(y) < _ENDPOINT_TOL:
            raise ExceptionalPoint(f"orbit hits a partition endpoint at angle {y}")
        letters.append(P.letter(y))
        y = float(angle_map(P.map, y))
    return tuple(letters)
