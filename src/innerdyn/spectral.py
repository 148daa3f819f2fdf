"""Dominant-eigenvalue machinery shared by the circle and shift operators.

Power iteration with Rayleigh quotients for the leading pair, transpose
iteration for the dual (conformal) weights, rank-one deflation for the
subleading modulus and for the resolvent, which is one linear solve. The
deflated projection realizes the spectral projection of a simple isolated
eigenvalue, so no contour integrals are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NonDecaying
from .rng import uniform_stream

_MAX_ITER = 100_000
_STALL_WINDOW = 1_000
_WINDOW = 64            # even, so an alternating pair of ratios averages out


@dataclass
class SpectralData:
    """Leading eigendata of a positive transfer operator discretization.

    lam: leading eigenvalue; rho: eigenfunction with integral 1 against the
    conformal weights; weights: dual eigenvector normalized to total mass 1;
    gap: |lambda_2| / |lambda|; residual: sup-norm eigen-equation defect.
    """

    lam: complex
    rho: np.ndarray
    weights: np.ndarray
    gap: float
    residual: float
    peripheral: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def subleading(self) -> float:
        return self.gap * abs(self.lam)


def _start_vector(n: int, seed: int = 0) -> np.ndarray:
    """Constant vector plus a small seeded perturbation.

    The perturbation guards against starting exactly orthogonal to the
    dominant eigenvector; the fixed seed keeps every run reproducible.
    """
    return 1.0 + 1e-3 * (uniform_stream(seed, n) - 0.5)


def power_leading(mat: np.ndarray, tol: float = 1e-13, seed: int = 0):
    """Power iteration; returns (lam, vector, residual, iterations).

    Runs until both the Rayleigh quotient stabilizes below tol and the
    eigen-equation residual drops below 1e-10 * max(1, |lam|) (the vector
    converges more slowly than the value for non-normal operators). Raises
    NoConvergence when that has not happened within 100,000 steps, or as
    soon as the residual checks have set no new minimum for 1,000 steps: an
    equal-modulus pair such as [[0, 1], [1, 0]] settles the Rayleigh
    quotient at once while its residual never drops.
    """
    if tol < 1e-16:
        raise ValueError("tol too small")
    v = _start_vector(mat.shape[0], seed).astype(complex)
    v /= np.linalg.norm(v)
    lam_prev = None
    hits = 0
    best_res, best_it = np.inf, 0
    for it in range(1, _MAX_ITER + 1):
        w = mat @ v
        nw = np.linalg.norm(w)
        if nw < 1e-300:
            return 0.0 + 0j, v, 0.0, it
        lam = complex(np.vdot(v, w))  # Rayleigh quotient, ||v|| = 1
        v = w / nw
        if lam_prev is not None and abs(lam - lam_prev) < tol * max(1.0, abs(lam)):
            hits += 1
            if hits >= 3:
                res = float(np.max(np.abs(mat @ v - lam * v)) / max(np.max(np.abs(v)), 1e-300))
                if res < 1e-10 * max(1.0, abs(lam)):
                    return lam, v, res, it
                if res < best_res:
                    best_res, best_it = res, it
                elif it - best_it >= _STALL_WINDOW:
                    raise NoConvergence(
                        f"power iteration residual stalled at {best_res:.3e}: no "
                        f"new minimum in the {it - best_it} steps after step {best_it}")
                hits = 0
        else:
            hits = 0
        lam_prev = lam
    raise NoConvergence(f"power iteration stalled after {_MAX_ITER} iterations")


def deflated_subleading(mat: np.ndarray, lam: complex, rho: np.ndarray,
                        dual: np.ndarray, tol: float = 1e-10, seed: int = 1,
                        mode: str = "accurate") -> float:
    """|lambda_2| by power iteration on M - lam * rho (x) dual.

    dual must be scaled so that dual . rho = 1; the rank-one removal then
    annihilates the leading eigenspace. Returns 0.0 when the deflated
    iterates collapse to numerical zero (nilpotent remainder).

    mode="accurate" returns once five consecutive norm ratios, or the
    geometric means of the last two 64-step windows (a non-normal pair +-r
    makes the ratios alternate forever), agree to tol, and raises
    NoConvergence after 100,000 steps; mode="estimate" returns the last
    window's mean after 512 steps, which is what gap monitors need when the
    remainder spectrum drives transient oscillations.
    """
    scale = np.dot(dual, rho)
    if abs(scale) < 1e-300:
        raise NoConvergence("dual vector is orthogonal to the eigenfunction")
    dual = dual / scale

    def apply(u):
        return mat @ u - lam * rho * np.dot(dual, u)

    def geometric_mean(ratios):
        return float(np.exp(np.mean(np.log(ratios))))

    budget = _MAX_ITER if mode == "accurate" else 512
    collapse = 1e-8 * max(1.0, abs(lam))
    v = _start_vector(mat.shape[0], seed).astype(complex)
    v = apply(v)  # kill the leading component before measuring
    nv = np.linalg.norm(v)
    if nv < collapse:
        return 0.0
    v /= nv
    hits = 0
    ratios = []                 # |v| = 1, so |apply(v)| is the norm ratio
    for _ in range(budget):
        w = apply(v)
        nw = np.linalg.norm(w)
        if nw < collapse:
            # the remainder acts nilpotently at this resolution: iterates
            # contract to rounding noise and then regenerate, so no modulus
            # above noise level exists
            return 0.0
        ratios.append(nw)
        v = w / nw
        settled = len(ratios) > 1 and abs(nw - ratios[-2]) < tol * max(1.0, nw)
        hits = hits + 1 if settled else 0
        if hits >= 5:
            return float(nw)
        if mode == "accurate" and len(ratios) % _WINDOW == 0 and len(ratios) > _WINDOW:
            last = geometric_mean(ratios[-_WINDOW:])
            before = geometric_mean(ratios[-2 * _WINDOW:-_WINDOW])
            if abs(last - before) < tol * max(1.0, last):
                return last
    if mode == "estimate":
        return geometric_mean(ratios[-_WINDOW:])
    raise NoConvergence("deflated iteration stalled; spectrum may be gapless")


def leading_spectral_data(mat: np.ndarray, tol: float = 1e-13,
                          want_gap: bool = True) -> SpectralData:
    """Leading pair, dual weights and subleading ratio for a dense operator.

    For a real positive operator the outputs are real with rho > 0 and
    nonnegative weights summing to 1; complex inputs are returned as-is with
    the same normalizations applied.
    """
    lam, rho, res, _ = power_leading(mat, tol=tol, seed=0)
    lam_d, dual, _, _ = power_leading(mat.T, tol=tol, seed=7)
    # clean up phase/sign for the real nonnegative case
    for vec in (rho, dual):
        j = int(np.argmax(np.abs(vec)))
        vec *= np.exp(-1j * np.angle(vec[j]))
    real_case = abs(lam.imag) < 1e-9 * max(1.0, abs(lam)) and \
        np.max(np.abs(rho.imag)) < 1e-6 * np.max(np.abs(rho.real)) and \
        np.max(np.abs(dual.imag)) < 1e-6 * np.max(np.abs(dual.real))
    if real_case:
        rho = rho.real.astype(float)
        dual = dual.real.astype(float)
        if np.sum(rho) < 0:
            rho = -rho
        if np.sum(dual) < 0:
            dual = -dual
    mass = np.sum(dual)
    if abs(mass) < 1e-300:
        raise NoConvergence("dual weights have zero total mass")
    weights = dual / mass
    pairing = np.dot(weights, rho)
    if abs(pairing) < 1e-300:
        raise NoConvergence("eigenfunction orthogonal to the conformal weights")
    rho = rho / pairing
    gap = 0.0
    if want_gap:
        sub = deflated_subleading(mat, lam, rho, weights, tol=1e-8,
                                  seed=13, mode="estimate")
        gap = float(sub / abs(lam)) if abs(lam) > 0 else 0.0
    return SpectralData(lam=lam, rho=rho, weights=weights, gap=gap, residual=res)


def deflated_resolvent(mat: np.ndarray, lam: complex, rho: np.ndarray,
                       weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_{n >= 0} (mat - lam * rho (x) weights)^n v by one linear solve.

    With weights . rho = 1 and (lam, rho, weights) the leading eigendata of
    mat, the rank-one term removes the leading eigenvalue, so the series
    converges whenever the rest of the spectrum lies inside the unit disk;
    its sum is the solution x of (I - mat + lam * rho (x) weights) x = v.
    NonDecaying is raised when LAPACK reports the matrix singular or the
    solve leaves a residual above 1e-10 * ||v||.
    """
    A = np.eye(len(v)) - mat + lam * np.outer(rho, weights)
    try:
        x = np.linalg.solve(A, v)
    except np.linalg.LinAlgError:
        raise NonDecaying("deflated resolvent of the transfer operator is singular") from None
    res = float(np.linalg.norm(A @ x - v))
    if not res <= 1e-10 * np.linalg.norm(v):
        raise NonDecaying(f"resolvent solve residual {res:.3e} exceeds 1e-10 * ||v||")
    return x
