"""Named observables on the circle.

Restricted to trigonometric polynomials: they are smooth enough for every
spectral argument used here and can be evaluated from z = e^{i*theta} without
trigonometric calls where that matters for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Observable:
    """A real observable on angles, with its bandwidth (the largest
    frequency it holds) and an optional evaluator on z."""

    name: str
    fn: Callable
    bandwidth: int
    fn_z: Callable | None = None

    def __call__(self, theta):
        return self.fn(theta)

    def on_circle(self, z):
        if self.fn_z is not None:
            return self.fn_z(z)
        return self.fn(np.angle(z))


def cos_k(k: int) -> Observable:
    # for k = 1, z.real gives the bytes of (z**1).real without the power
    return Observable(f"cos{k if k != 1 else ''}",
                      lambda t, _k=k: np.cos(_k * np.asarray(t)), k,
                      (lambda z: z.real) if k == 1 else (lambda z, _k=k: (z**_k).real))


def sin_k(k: int) -> Observable:
    return Observable(f"sin{k if k != 1 else ''}",
                      lambda t, _k=k: np.sin(_k * np.asarray(t)), k,
                      (lambda z: z.imag) if k == 1 else (lambda z, _k=k: (z**_k).imag))


def constant(c: float) -> Observable:
    return Observable(f"const({c:g})",
                      lambda t, _c=c: np.full(np.shape(t), _c, dtype=float), 0,
                      lambda z, _c=c: np.full(np.shape(z), _c, dtype=float))


COS = cos_k(1)
SIN = sin_k(1)

_REGISTRY = {"cos": COS, "sin": SIN, "cos2": cos_k(2), "sin2": sin_k(2)}


def get_observable(name: str) -> Observable:
    """Look up a named observable; supports cos, sin, cosK, sinK, const:C."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name.startswith("cos") and name[3:].isdigit():
        return cos_k(int(name[3:]))
    if name.startswith("sin") and name[3:].isdigit():
        return sin_k(int(name[3:]))
    if name.startswith("const:"):
        return constant(float(name.split(":", 1)[1]))
    raise KeyError(f"unknown observable {name!r}")
