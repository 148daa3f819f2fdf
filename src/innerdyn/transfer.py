"""Fourier-collocation transfer operators on the circle and their spectra.

The weighted operator with parameter s and observable g sends
u(x) -> sum_{F(y)=x} |F'(y)|^{-s} e^{s g(y)} u(y). Functions are represented
by their values at N equispaced collocation angles; u is evaluated at the
preimages through its trigonometric interpolant, which is spectrally accurate
because everything in sight is analytic for finite Blaschke products.

The interpolant on the nodes x_j = 2*pi*j/N is the symmetric one: the
frequencies |k| < N/2 plus the Nyquist mode split as cos(N x/2). Its
cardinal function is real (Henrici 1979; Trefethen, Spectral Methods in
MATLAB, 2000, ch. 3), K_j(y) = sin(N t/2) cot(t/2) / N with t = y - x_j, so
each matrix row costs O(N) instead of a dense DFT and the matrix is the
weights times a real kernel. The numerator is evaluated as
(-1)^(j0+j) sin(N delta/2) with delta = y - x_j0 the offset from the nearest
node, which stays accurate at large N*y and at near-hits; a row whose
preimage is exactly a node is that node's unit vector.

The matrix is assembled in row blocks of about 2 MB straight into one
preallocated array: the per-row data of each branch is computed once, then
each block's kernel is filled in a scratch block, scaled, and written (first
branch) or added (later branches) in branch order. Every entry takes the
same float operations whatever the block size, so the matrix does not depend
on it, and the assembly peak is the matrix plus one block. A float64 matrix
with N <= 512 is one block.

The matrix is float64 exactly when s has zero imaginary part and g is real;
then every solve in `spectral` runs in real arithmetic. Complex s keeps
complex weights on the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import (BlaschkeMap, angle_map, boundary_preimages_batch, circle_abs_deriv,
                       circle_grid)
from .circle import TWO_PI
from .errors import GapLost
from .spectral import (SpectralData, deflated_subleading, leading_spectral_data,
                       operator_parameter)

_GAP_CEILING = 0.95
_BLOCK_BYTES = 1 << 21  # bytes of one row block of the matrix during assembly
_PRESSURE_TOL = 1e-14   # Arnoldi tolerance at the pressure stencil nodes
_INVARIANCE_MODES = 8   # trigonometric moments |n| <= 8 of the invariance defect


@dataclass
class OperatorMatrix:
    """Dense collocation matrix of a weighted transfer operator."""

    matrix: np.ndarray
    grid: np.ndarray
    preimages: np.ndarray   # shape (N, d), angles
    weights: np.ndarray     # shape (N, d), |F'|^{-s} e^{s g}
    s: complex
    meta: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.grid)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    def unit_mass_defect(self) -> float:
        """sup-norm of M*1 - 1; zero for s = 1 with no observable."""
        one = np.ones(self.dimension)
        return float(np.max(np.abs(self.matrix @ one - 1.0)))


def _row_data(y: np.ndarray, w: np.ndarray, grid: np.ndarray):
    """Per-row data of one branch: the preimages moved into range, the
    nearest node j0, the row factor w (-1)^j0 sin(N delta/2) / N, the hit
    mask and the hit value w (-1)^j0.

    y is moved into [-pi/N, 2*pi - pi/N), so that the one small denominator
    of a row is at its nearest node j0, where numerator and denominator
    share delta = y - x_j0; a row with delta == 0 is an exact hit.
    """
    N = len(grid)
    y = np.where(y >= TWO_PI - np.pi / N, y - TWO_PI, y)
    j0 = np.clip(np.rint(y * (N / TWO_PI)).astype(np.int64), 0, N - 1)
    delta = y - grid[j0]
    sign = np.where(j0 % 2 == 0, 1.0, -1.0)
    return y, j0, w * sign * np.sin(0.5 * N * delta) / N, delta == 0.0, w * sign


def _interpolation_rows(out: np.ndarray, lo: int, data, grid: np.ndarray,
                        buf: np.ndarray, first: bool) -> None:
    """Write (first branch) or add w_i K_j(y_i) (-1)^j for the row block
    out = rows lo, lo + 1, ... of the matrix, before the column sign (-1)^j.

    The kernel cot((y_i - x_j)/2) is filled in buf, or in out itself for a
    real first branch, and scaled by the row factor from `_row_data`; an
    exact-hit row is the unit vector w (-1)^j0 e_j0.
    """
    y, j0, rows, hits, corner = (a[lo:lo + len(out)] for a in data)
    real = not np.iscomplexobj(rows)
    R = out if first and real else buf[:len(out)]
    np.subtract.outer(y, grid, out=R)
    R *= 0.5
    np.tan(R, out=R)
    hit = np.nonzero(hits)[0]
    R[hit] = 1.0  # exact hits: the row is a unit vector, set below
    np.divide(1.0, R, out=R)
    if real:
        R *= rows[:, None]
    else:
        R = np.multiply(R, rows[:, None], out=out if first else None)
    R[hit, j0[hit]] = corner[hit]
    if not first:
        out += R


def assemble_operator(F: BlaschkeMap, s: complex = 1.0, g=None, N: int = 256) -> OperatorMatrix:
    """Collocation matrix for the weight |F'|^{-s} e^{s g} on N grid values.

    float64 when s has zero imaginary part and g is real, else complex.
    """
    if N < 32 or N > 4096 or N & (N - 1):
        raise ValueError("N must be a power of two in [32, 4096]")
    s = complex(s)
    p = operator_parameter(s)
    grid = circle_grid(N)
    Y = boundary_preimages_batch(F, grid)
    W = circle_abs_deriv(F, Y) ** (-p)
    if g is not None:
        W = W * np.exp(p * np.asarray(g(Y)))
    branches = [_row_data(Y[:, l], W[:, l], grid) for l in range(F.degree)]
    mat = np.empty((N, N), dtype=W.dtype)
    step = max(1, _BLOCK_BYTES // (N * mat.itemsize))
    buf = np.empty((min(step, N), N))
    for lo in range(0, N, step):
        block = mat[lo:lo + step]
        for l, data in enumerate(branches):
            _interpolation_rows(block, lo, data, grid, buf, first=(l == 0))
        block[:, 1::2] *= -1.0
    meta = {"map": F.label(), "s": s,
            "observable": getattr(g, "name", None) if g is not None else None}
    return OperatorMatrix(matrix=mat, grid=grid, preimages=Y, weights=W, s=s, meta=meta)


def leading_eigen(M: OperatorMatrix, tol: float = 1e-13) -> SpectralData:
    """Leading eigenvalue, eigenfunction and conformal weights of M.

    The eigenfunction is normalized to integral 1 against the conformal
    weights, which themselves sum to 1; the gap field holds |lambda_2/lambda|
    from the Arnoldi solve on the deflated operator.
    """
    data = leading_spectral_data(M.matrix, tol=tol)
    data.meta.update(M.meta)
    return data


def subleading_modulus(M: OperatorMatrix, S: SpectralData) -> float:
    """|lambda_2| of M given its leading spectral data."""
    return float(deflated_subleading(M.matrix, S.lam, S.rho, S.weights))


@dataclass
class PressureReport:
    """Pressure curve data at 0 and its first two derivatives.

    mean_prediction and variance_prediction are the independent checks:
    the observable's Lebesgue mean and its Green-Kubo asymptotic variance.
    """

    p0: float
    dp: float
    ddp: float
    mean_prediction: float
    variance_prediction: float
    min_gap: float
    nodes: dict


def pressure_and_derivs(F: BlaschkeMap, g, h: float = 1e-2, N: int = 256) -> PressureReport:
    """log lambda of the perturbed operator and central-difference derivatives.

    P(t) = log lambda(|F'|^{-1} e^{t g}) is evaluated on the five-point
    stencil {0, +-h, +-2h}; fourth-order (Richardson-refined) differences give
    P'(0) and P''(0). A gap monitor guards the perturbation smallness.
    """
    if not 1e-4 <= h <= 1e-2:
        raise ValueError("step h must lie in [1e-4, 1e-2]")
    tvals = (-2 * h, -h, 0.0, h, 2 * h)
    pvals = {}
    min_gap = 1.0
    for t in tvals:
        def gt(theta, _t=t):
            return _t * np.asarray(g(theta), dtype=float)
        M = assemble_operator(F, 1.0, gt if t != 0.0 else None, N)
        data = leading_eigen(M, tol=_PRESSURE_TOL)
        if data.gap > _GAP_CEILING:
            raise GapLost(f"subleading ratio {data.gap:.3f} at node t = {t}")
        min_gap = min(min_gap, 1.0 - data.gap)
        pvals[t] = float(np.log(data.lam.real))
    p_m2, p_m1, p_0, p_1, p_2 = (pvals[t] for t in tvals)
    dp = (-p_2 + 8 * p_1 - 8 * p_m1 + p_m2) / (12 * h)
    ddp = (-p_2 + 16 * p_1 - 30 * p_0 + 16 * p_m1 - p_m2) / (12 * h * h)
    grid = circle_grid(4096)
    mean_pred = float(np.mean(np.asarray(g(grid), dtype=float)))
    from .stochastic import green_kubo_variance  # local import, avoids a cycle
    var_pred = green_kubo_variance(F, g)
    return PressureReport(p0=p_0, dp=dp, ddp=ddp, mean_prediction=mean_pred,
                          variance_prediction=var_pred, min_gap=min_gap, nodes=pvals)


def conformal_equilibrium(F: BlaschkeMap, g, N: int = 256) -> SpectralData:
    """Spectral data for the weight e^{g} |F'|^{-1}.

    The returned weights are the conformal measure on the grid; the product
    rho * weights is the invariant equilibrium measure, checked by the tests
    via the invariance of trigonometric moments.
    """
    M = assemble_operator(F, 1.0, g, N)
    data = leading_eigen(M)
    if data.gap > _GAP_CEILING:
        raise GapLost(f"subleading ratio {data.gap:.3f} for the weighted operator")
    return data


def equilibrium_invariance_defect(F: BlaschkeMap, data: SpectralData, grid: np.ndarray) -> float:
    """max over 0 < |n| <= 8 of |int e_n o F dmu - int e_n dmu| for mu = rho m."""
    mu = data.weights * data.rho
    n = np.r_[-_INVARIANCE_MODES:0, 1:_INVARIANCE_MODES + 1][:, None]
    moments = np.exp(1j * n * angle_map(F, grid)) - np.exp(1j * n * grid)
    return float(np.max(np.abs(moments @ mu)))
