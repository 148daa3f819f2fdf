"""Angles, arcs and quadrature grids on the unit circle.

Angles live in [0, 2*pi). Arcs are half-open [start, end) going
counterclockwise, which resolves membership ties deterministically when a
point lands exactly on an endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(theta):
    """Reduce an angle (scalar or array) to [0, 2*pi)."""
    out = np.mod(theta, TWO_PI)  # exactly 2*pi for a tiny negative angle
    return np.where(out == TWO_PI, 0.0, out)[()]


def as_angle(x) -> float:
    """A float angle reduced to [0, 2*pi)."""
    return float(wrap_angle(float(x)))


@dataclass(frozen=True)
class Arc:
    """Half-open arc [start, end) with an explicit length in (0, 2*pi].

    The stored length disambiguates the full circle (start == end,
    length == 2*pi). The normalized Lebesgue measure is length / (2*pi).
    """

    start: float
    length: float

    def __post_init__(self):
        if not 0.0 < self.length <= TWO_PI:
            raise ValueError(f"arc length must lie in (0, 2*pi], got {self.length}")
        object.__setattr__(self, "start", float(wrap_angle(self.start)))
        object.__setattr__(self, "length", float(self.length))

    @property
    def end(self) -> float:
        return float(wrap_angle(self.start + self.length))

    @property
    def measure(self) -> float:
        return self.length / TWO_PI

    def contains(self, theta):
        """Half-open membership test; works on scalars and arrays."""
        rel = wrap_angle(np.asarray(theta, dtype=float) - self.start)
        out = rel < self.length
        if np.ndim(theta) == 0:
            return bool(out)
        return out

    @staticmethod
    def from_endpoints(start, end) -> "Arc":
        start = as_angle(start)
        end = as_angle(end)
        length = wrap_angle(end - start)
        if length == 0.0:
            length = TWO_PI
        return Arc(start, length)


FULL_CIRCLE = Arc(0.0, TWO_PI)


def arcs_contain(arcs, theta):
    """Membership of angles in a finite union of arcs (boolean, vectorized)."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape, dtype=bool)
    for arc in arcs:
        out |= arc.contains(theta)
    return out


def arcs_measure(arcs) -> float:
    """Total normalized measure of pairwise disjoint arcs.

    The sum counts an overlap twice, so the CLI refuses counting targets
    that overlap in more than an endpoint.
    """
    return float(sum(a.measure for a in arcs))


def circle_grid(n: int) -> np.ndarray:
    """Uniform angles 2*pi*j/n, the nodes of the periodic trapezoid rule."""
    return TWO_PI * np.arange(n) / n
