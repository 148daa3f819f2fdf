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
complex weights on the same kernel. `spectral` owns the solvers run on a
matrix: the leading data, the dense spectrum that `circle_spectrum` reads
the gap from, and the Green-Kubo variance.

The dense matrix serves the LAPACK consumers: the coarse grids of
`circle_spectrum`, Green-Kubo and the circle variance. An N-mode operator
that is only applied, as in `spectrum` and `pressure`, is never assembled:
`nufft_operator` keeps the same preimages and weights and applies the same
interpolant by a non-uniform FFT, in O(N log N + N d q) time and O(N d q)
memory for a stencil of q = 32 points, where the matrix takes N^2.

`circle_spectrum` reads an N-mode operator on two grids. Near z^d the
operator is close to the nilpotent shift e^{ikx} -> e^{i(k/d)x}, whose
discretized Jordan chains of length log_d N spread rounding to about
eps^(1/log_d N) (Trefethen and Embree, Spectra and Pseudospectra, 2005), so
a finer grid can give a worse lambda_2. The gap |lambda_2 / lambda| is
therefore read from the dense spectrum of the smallest grid N_c that
resolves the operator, with the change from N_c to 2 N_c as its bound; at
s = 1 it is |F'(0)| when F(0) = 0 (Slipantschuk, Bandtlow and Just,
Nonlinearity 2013). lambda stays the N-mode eigenvalue, from an Arnoldi
solve of the matrix-free operator started at the coarse eigenfunction and
accepted, like every leading solve, relative to |lambda| (`spectral`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeMap, boundary_preimages_batch, circle_abs_deriv, circle_grid
from .circle import TWO_PI
from .errors import GapLost
from .spectral import dense_leading, green_kubo, operator_parameter, power_leading

_GAP_CEILING = 0.95
_BLOCK_BYTES = 1 << 21  # bytes of one row block of the matrix during assembly
_PRESSURE_STEP = 1e-2   # step h of the five-point pressure stencil
_COARSE_MIN = 32        # smallest coarse grid of `circle_spectrum`
_COARSE_MAX = 512       # largest coarse grid: a dense eigensolve at 2 x 512 takes 0.5 s
_TAIL_ROUNDING = 1e-13  # Fourier tail of rho at which a grid resolves the operator
_OVERSAMPLE = 2         # the NUFFT apply's fine FFT grid has 2 N points
_SPREAD = 16            # Gaussian stencil points on each side of a preimage: 32 in all
_TWO_PI_HI = float(np.float32(TWO_PI))  # 2 pi in 24 bits: m * _TWO_PI_HI is exact for m < 2^29
_TWO_PI_LO = (TWO_PI - _TWO_PI_HI) + 2.4492935982947064e-16  # the rest of 2 pi, past TWO_PI


@dataclass
class OperatorMatrix:
    """Dense collocation matrix of a weighted transfer operator, with the
    preimages and weights it was assembled from."""

    matrix: np.ndarray
    preimages: np.ndarray   # shape (N, d), angles
    weights: np.ndarray     # shape (N, d), |F'|^{-s} e^{s g}


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


def _preimage_weights(F: BlaschkeMap, s: complex, g, N: int):
    """The N nodes, their preimages, shape (N, d), and the weights
    |F'|^{-s} e^{s g} there; float64 weights when s has zero imaginary part
    and g is real, else complex. N must be a power of two in [32, 4096]."""
    if N < 32 or N > 4096 or N & (N - 1):
        raise ValueError("N must be a power of two in [32, 4096]")
    p = operator_parameter(s)
    grid = circle_grid(N)
    Y = boundary_preimages_batch(F, grid)
    W = circle_abs_deriv(F, Y) ** (-p)
    if g is not None:
        W = W * np.exp(p * np.asarray(g(Y)))
    return grid, Y, W


def assemble_operator(F: BlaschkeMap, s: complex = 1.0, g=None, N: int = 256) -> OperatorMatrix:
    """Collocation matrix for the weight |F'|^{-s} e^{s g} on N grid values.

    float64 when s has zero imaginary part and g is real, else complex.
    """
    grid, Y, W = _preimage_weights(F, s, g, N)
    branches = [_row_data(Y[:, l], W[:, l], grid) for l in range(F.degree)]
    mat = np.empty((N, N), dtype=W.dtype)
    step = max(1, _BLOCK_BYTES // (N * mat.itemsize))
    buf = np.empty((min(step, N), N))
    for lo in range(0, N, step):
        block = mat[lo:lo + step]
        for l, data in enumerate(branches):
            _interpolation_rows(block, lo, data, grid, buf, first=(l == 0))
        block[:, 1::2] *= -1.0
    return OperatorMatrix(matrix=mat, preimages=Y, weights=W)


@dataclass
class NufftOperator:
    """Matrix-free N-mode operator: op @ u equals the collocation matrix of
    the same preimages and weights times u, to the NUFFT's rounding.

    deconvolve holds 1 / (N ghat_k) for k = 0..N/2, halved at the Nyquist
    mode; index and stencil, shape (N, d * 2 _SPREAD), hold each row's fine
    grid points and the weight times the Gaussian at them.
    """

    shape: tuple[int, int]
    dtype: np.dtype
    deconvolve: np.ndarray
    index: np.ndarray
    stencil: np.ndarray

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(u):
            return self @ u.real + 1j * (self @ u.imag)
        fine = np.fft.irfft(np.fft.rfft(u) * self.deconvolve, _OVERSAMPLE * len(u))
        return np.einsum("ij,ij->i", self.stencil, fine[self.index])


def nufft_operator(preimages: np.ndarray, weights: np.ndarray) -> NufftOperator:
    """The operator u -> sum_l weights[:, l] I[u](preimages[:, l]) on N nodes,
    applied by a type-2 non-uniform FFT with Gaussian gridding (Dutt and
    Rokhlin, SISC 1993; Greengard and Lee, SIAM Review 2004).

    I[u] = sum_k c_k e^{iky} is the symmetric interpolant of `_refine`, its
    Nyquist mode split between +-N/2. The periodic Gaussian
    G(x) = sum_l exp(-(x - 2 pi l)^2 / (4 tau)) has Fourier coefficients
    ghat_k = sqrt(tau / pi) exp(-k^2 tau), so I[u] is the convolution of G
    with h = sum_k (c_k / ghat_k) e^{ikx}. One inverse real FFT gives h on
    the n = 2 N point grid x_m = 2 pi m / n, and I[u](y) is the trapezoid
    sum (1/n) sum_m h(x_m) G(y - x_m) over the 32 points x_m nearest y.
    tau = pi _SPREAD / (N^2 R (R - 1/2)) with R = _OVERSAMPLE, Greengard
    and Lee's choice, balances the aliasing and truncation errors at about
    exp(-2 pi _SPREAD / 3), 3e-15. The offsets y - x_m are taken against
    2 pi in two parts, so a rounded node does not shift a mode of frequency
    N/2 by N eps / 2. On random vectors at N = 512 to 2048 the apply is
    within 2e-15 of the exact interpolant (a long-double cardinal sum),
    where the dense kernel of `assemble_operator` is 1e-13 to 3e-13 off.

    The plan holds 2 N d _SPREAD stencil weights and indices, 2 MB at
    N = 2048, d = 2, and an apply costs two real FFTs and one gather.
    """
    N, d = preimages.shape
    n = _OVERSAMPLE * N
    tau = np.pi * _SPREAD / (N * N * _OVERSAMPLE * (_OVERSAMPLE - 0.5))
    y = preimages.reshape(-1, 1)
    m = np.floor(y * (n / TWO_PI)).astype(np.int64) + np.arange(1 - _SPREAD, _SPREAD + 1)
    delta = (y - m * _TWO_PI_HI / n) - m * _TWO_PI_LO / n
    stencil = np.exp(delta * delta / (-4.0 * tau)) * weights.reshape(-1, 1)
    k = np.arange(N // 2 + 1)
    deconvolve = np.sqrt(np.pi / tau) / N * np.exp(k * k * tau)
    deconvolve[-1] *= 0.5
    return NufftOperator(shape=(N, N), dtype=stencil.dtype, deconvolve=deconvolve,
                         index=(m % n).reshape(N, -1), stencil=stencil.reshape(N, -1))


@dataclass
class CircleSpectrum:
    """Leading eigenvalue of an N-mode operator and its resolved gap.

    lam, residual: the N-mode leading eigenvalue and the sup-norm residual
    of its unit eigenvector, at most 1e-10 |lam|; gap: |lambda_2 / lambda|
    of the dense spectrum on the coarse grid N_c; gap_bound: how far that
    gap moves from N_c to 2 N_c.
    """

    lam: float | complex
    gap: float
    gap_bound: float
    residual: float


def _fourier_tail(rho: np.ndarray) -> float:
    """Largest Fourier coefficient of rho in the top quarter of the
    frequencies, |k| >= 3N/8, against the largest of all."""
    n = len(rho)
    c = np.abs(np.fft.fft(rho))
    return float(np.max(c[3 * n // 8:n - 3 * n // 8 + 1]) / np.max(c))


def _refine(v: np.ndarray, n: int) -> np.ndarray:
    """The symmetric trigonometric interpolant of v at n equispaced nodes:
    v's spectrum zero-padded to n >= m, its Nyquist mode split between
    +-m/2 (which are one mode again when n == m)."""
    m = len(v)
    c = np.fft.fft(v) * (n / m)
    pad = np.zeros(n, dtype=c.dtype)
    pad[:m // 2] = c[:m // 2]
    pad[n - m // 2 + 1:] = c[m // 2 + 1:]
    pad[m // 2] += 0.5 * c[m // 2]
    pad[n - m // 2] += 0.5 * c[m // 2]
    u = np.fft.ifft(pad)
    return u if np.iscomplexobj(v) else u.real


def circle_spectrum(F: BlaschkeMap, s: complex, g, N: int) -> CircleSpectrum:
    """lambda and the gap of the N-mode operator with weight |F'|^{-s} e^{s g}.

    Coarse grids N_c = 32, 64, ... up to max(32, N/2), and at most 512, are
    assembled and solved densely (`spectral.dense_leading`) until the
    leading eigenfunction's Fourier tail (`_fourier_tail`) is at rounding,
    1e-13. The gap is that grid's dense |lambda_2 / lambda|, 0.0 when its
    remainder is nilpotent, and gap_bound is the distance to the gap at
    2 N_c; when no grid resolves the operator, the gap is read at 2 N_c
    with the same bound. The N-mode operator is never assembled: its
    preimages and weights make a `nufft_operator`, and the coarse
    eigenfunction, interpolated to N nodes (`_refine`), starts its Arnoldi
    solve (`spectral.power_leading`), which usually accepts after two
    matvecs. No dual solve is made: the caller reads lam and the gap.
    """
    _, Y, W = _preimage_weights(F, s, g, N)
    top = min(max(_COARSE_MIN, N // 2), _COARSE_MAX)
    n = _COARSE_MIN
    while True:
        _, rho, gap = dense_leading(assemble_operator(F, s, g, n).matrix)
        resolved = _fourier_tail(rho) <= _TAIL_ROUNDING
        if resolved or n == top:
            break
        n *= 2
    partner = dense_leading(assemble_operator(F, s, g, 2 * n).matrix, want_rho=False)[2]
    bound = abs(gap - partner)
    lam, _, res = power_leading(nufft_operator(Y, W), start=_refine(rho, N))[:3]
    return CircleSpectrum(lam=lam, gap=gap if resolved else partner, gap_bound=bound,
                          residual=res)


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


def pressure_and_derivs(F: BlaschkeMap, g, N: int = 256) -> PressureReport:
    """log lambda of the perturbed operator and central-difference derivatives.

    P(t) = log lambda(|F'|^{-1} e^{t g}) is evaluated on the five-point
    stencil {0, +-h, +-2h} with h = 1e-2; fourth-order (Richardson-refined)
    differences give P'(0) and P''(0). Each node is read by `circle_spectrum`,
    and its resolved gap guards the perturbation smallness (GapLost above
    0.95). The node t = 0 is the weightless operator, which fixes
    Lebesgue measure (rho = 1, weights 1/N), and `spectral.green_kubo` reads
    the variance prediction off its dense matrix, the one N x N matrix that
    this function assembles.
    """
    h = _PRESSURE_STEP
    tvals = (-2 * h, -h, 0.0, h, 2 * h)
    pvals = {}
    min_gap = 1.0
    for t in tvals:
        def gt(theta, _t=t):
            return _t * np.asarray(g(theta), dtype=float)
        g_t = gt if t != 0.0 else None
        data = circle_spectrum(F, 1.0, g_t, N)
        if data.gap > _GAP_CEILING:
            raise GapLost(f"subleading ratio {data.gap:.3f} at node t = {t}")
        min_gap = min(min_gap, 1.0 - data.gap)
        pvals[t] = float(np.log(data.lam.real))
        if t == 0.0:
            M = assemble_operator(F, 1.0, None, N).matrix
            gv = np.asarray(g(circle_grid(N)), dtype=float)
            var_pred = green_kubo(M, np.ones(N), np.full(N, 1.0 / N), gv)
    p_m2, p_m1, p_0, p_1, p_2 = (pvals[t] for t in tvals)
    dp = (-p_2 + 8 * p_1 - 8 * p_m1 + p_m2) / (12 * h)
    ddp = (-p_2 + 16 * p_1 - 30 * p_0 + 16 * p_m1 - p_m2) / (12 * h * h)
    grid = circle_grid(4096)
    mean_pred = float(np.mean(np.asarray(g(grid), dtype=float)))
    return PressureReport(p0=p_0, dp=dp, ddp=ddp, mean_prediction=mean_pred,
                          variance_prediction=var_pred, min_gap=min_gap, nodes=pvals)
