"""Fourier-collocation transfer operators on the circle and their spectra.

The weighted operator with parameter s and observable g sends
u(x) -> sum_{F(y)=x} |F'(y)|^{-s} e^{s g(y)} u(y). Functions are represented
by their values at N equispaced collocation angles; u is evaluated at the
preimages through its trigonometric interpolant, which is spectrally accurate
because everything in sight is analytic for finite Blaschke products.

The interpolant on the nodes x_j = 2*pi*j/N is the symmetric one: the
frequencies |k| < N/2 plus the Nyquist mode split as cos(N x/2) (Henrici
1979; Trefethen, Spectral Methods in MATLAB, 2000, ch. 3). It is evaluated
one way, by a type-2 non-uniform FFT with Gaussian gridding
(`nufft_operator`), within 2e-15 of the exact interpolant at every
preimage, a preimage on a node included. An operator that is only applied,
the N-mode operator of `spectrum` and `pressure`, keeps the plan, in
O(N log N + N d q) time and O(N d q) memory for a stencil of q = 32 points,
where the matrix takes N^2. The LAPACK consumers, the coarse grids of
`circle_spectrum` and of `stochastic.green_kubo_variance` (and that
solver's N-node fallback when its corrections do not certify), take the
plan's dense matrix (`NufftOperator.dense`, `assemble_operator`), built in
row blocks straight into one preallocated array, so that the assembly peak
is the matrix, the plan and one block. `_refine` moves a grid function
between grids both ways: zero-padding up, Fourier truncation down.

The matrix is float64 exactly when s has zero imaginary part and g is real;
then every solve in `spectral` runs in real arithmetic. Complex s keeps
complex weights on the same stencil. `spectral` owns the solvers run on a
matrix: the leading data and the dense spectrum that `circle_spectrum` reads
the gap from.

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

from .blaschke import BlaschkeMap, boundary_preimages_batch, circle_abs_deriv
from .circle import TWO_PI, circle_grid
from .errors import GapLost, NoConvergence
from .spectral import dense_leading, operator_parameter, power_leading

_GAP_CEILING = 0.95
_MAX_MODES = 4096       # largest collocation grid
_BLOCK_BYTES = 1 << 18  # bytes of the fine grid of one row block of `NufftOperator.dense`
_PRESSURE_STEP = 1e-2   # step h of the five-point pressure stencil
_COARSE_MIN = 32        # smallest coarse grid of `circle_spectrum`; the Green-Kubo coarse grid
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


def _preimage_weights(F: BlaschkeMap, s: complex, g, N: int):
    """The preimages of the N nodes, shape (N, d), and the weights
    |F'|^{-s} e^{s g} there; float64 weights when s has zero imaginary part
    and g is real, else complex. N must be a power of two in [32, 4096]."""
    if N < 32 or N > _MAX_MODES or N & (N - 1):
        raise ValueError(f"N must be a power of two in [32, {_MAX_MODES}]")
    p = operator_parameter(s)
    Y = boundary_preimages_batch(F, circle_grid(N))
    W = circle_abs_deriv(F, Y) ** (-p)
    if g is not None:
        W = W * np.exp(p * np.asarray(g(Y)))
    return Y, W


def assemble_operator(F: BlaschkeMap, s: complex = 1.0, g=None, N: int = 256) -> OperatorMatrix:
    """Collocation matrix for the weight |F'|^{-s} e^{s g} on N grid values,
    the dense form of the same preimages' `nufft_operator`.

    float64 when s has zero imaginary part and g is real, else complex.
    """
    Y, W = _preimage_weights(F, s, g, N)
    return OperatorMatrix(matrix=nufft_operator(Y, W).dense(), preimages=Y, weights=W)


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

    def dense(self) -> np.ndarray:
        """The N x N matrix of the apply, row by row its adjoint: the row's
        stencil spread onto the fine grid, a real FFT, the deconvolution with
        the +-N/2 modes folded into one, and an inverse real FFT onto the N
        nodes, scaled by N / 2N. Rows go in blocks whose fine grid takes
        _BLOCK_BYTES; a complex stencil makes the real and imaginary parts
        of each block in two passes.
        """
        N = self.shape[0]
        n, q = _OVERSAMPLE * N, 2 * _SPREAD
        scale = np.zeros(n // 2 + 1, dtype=complex)   # an irfft to N nodes reads k <= N/2
        scale[:N // 2 + 1] = self.deconvolve * (N / n)
        scale[N // 2] *= 2.0
        mat = np.empty(self.shape, self.dtype)
        step = max(1, _BLOCK_BYTES // (8 * n))
        fine = np.empty((min(step, N), n))
        spec = np.empty((min(step, N), n // 2 + 1), dtype=complex)
        parts = [(self.stencil.real, mat.real)]
        if np.iscomplexobj(mat):
            parts.append((self.stencil.imag, mat.imag))
        for lo in range(0, N, step):
            hi = min(lo + step, N)
            rows = np.arange(hi - lo)[:, None]
            for part, out in parts:
                f = fine[:hi - lo]
                f.fill(0.0)
                # branch by branch: two branches may share a fine point,
                # which one fancy-indexed += would add only once
                for c in range(0, self.index.shape[1], q):
                    f[rows, self.index[lo:hi, c:c + q]] += part[lo:hi, c:c + q]
                coef = np.fft.rfft(f, out=spec[:hi - lo])
                coef *= scale
                np.fft.irfft(coef, N, out=out[lo:hi])
        return mat


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
    within 2e-15 of the exact interpolant (a long-double cardinal sum).

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
    """The symmetric trigonometric interpolant of v at n equispaced nodes.

    For n >= m, v's spectrum zero-padded to n, its Nyquist mode split
    between +-m/2 (which are one mode again when n == m). For n < m, the
    restriction by Fourier truncation: the modes |k| <= n/2 of v, the two
    modes +-n/2 folded into the one Nyquist mode of n nodes.
    """
    m = len(v)
    c = np.fft.fft(v) * (n / m)
    k = min(m, n) // 2
    pad = np.zeros(n, dtype=c.dtype)
    pad[:k] = c[:k]
    pad[n - k + 1:] = c[m - k + 1:]
    if n < m:
        pad[k] = c[k] + c[m - k]
    else:
        pad[k] += 0.5 * c[k]
        pad[n - k] += 0.5 * c[k]
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
    matvecs. No dual solve is made: the caller reads lam and the gap. A
    rotation has no dominant eigenvalue and is refused with NoConvergence.
    """
    if F.is_rotation:
        raise NoConvergence("a rotation has no dominant eigenvalue: its spectrum is on the circle")
    Y, W = _preimage_weights(F, s, g, N)
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

    mean_prediction is the independent check of dp: the observable's
    Lebesgue mean. The check of ddp, the Green-Kubo asymptotic variance, is
    `stochastic.green_kubo_variance`.
    """

    p0: float
    dp: float
    ddp: float
    mean_prediction: float
    min_gap: float
    nodes: dict


def pressure_and_derivs(F: BlaschkeMap, g, N: int = 256) -> PressureReport:
    """log lambda of the perturbed operator and central-difference derivatives.

    P(t) = log lambda(|F'|^{-1} e^{t g}) is evaluated on the five-point
    stencil {0, +-h, +-2h} with h = 1e-2; fourth-order (Richardson-refined)
    differences give P'(0) and P''(0). Each node is read by `circle_spectrum`,
    and its resolved gap, first |F'(0)| = prod_{i>0} |a_i| at s = 1 before
    any solve, guards the perturbation smallness (GapLost above 0.95); no
    N x N matrix is assembled. An observable of bandwidth K is refused
    before any work unless N > 2K resolves it.
    """
    if 2 * g.bandwidth >= N:
        raise ValueError(f"observable bandwidth {g.bandwidth} needs more than "
                         f"{2 * g.bandwidth} modes, got {N}")
    gap = abs(np.prod(F.zeros[1:]))
    if not F.is_rotation and gap > _GAP_CEILING:
        raise GapLost(f"subleading ratio |F'(0)| = {gap:.3f} at s = 1 exceeds {_GAP_CEILING}")
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
    p_m2, p_m1, p_0, p_1, p_2 = (pvals[t] for t in tvals)
    dp = (-p_2 + 8 * p_1 - 8 * p_m1 + p_m2) / (12 * h)
    ddp = (-p_2 + 16 * p_1 - 30 * p_0 + 16 * p_m1 - p_m2) / (12 * h * h)
    grid = circle_grid(4096)
    mean_pred = float(np.mean(np.asarray(g(grid), dtype=float)))
    return PressureReport(p0=p_0, dp=dp, ddp=ddp, mean_prediction=mean_pred,
                          min_gap=min_gap, nodes=pvals)
