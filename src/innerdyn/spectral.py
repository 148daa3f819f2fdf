"""Dominant-eigenvalue machinery shared by the circle and shift operators.

One explicitly restarted Arnoldi iteration finds the leading pair, and the
dual (conformal) weights as the leading pair of the transpose. A Krylov
space converges at a rate set by the whole spectrum, not by
|lambda_2 / lambda_1| alone (Saad, Numerical Methods for Large Eigenvalue
Problems, 2011), which matters for the slowly mixing maps where that ratio
is near 1. Every leading solve, on the circle and on the shift, is accepted
by one rule, relative to |lambda|, at one tolerance, _LEADING_TOL, so a
lambda far below 1 (a large s) keeps as many digits as one near 1. The
resolvent is one linear solve. The deflated projection realizes the
spectral projection of a simple isolated eigenvalue, so no contour
integrals are needed. The Green-Kubo variance of an observable is read off
the same resolvent (`green_kubo`), for the circle and the shift alike; the
caller hands it the solve, dense on the shift, on two grids on the circle.

The spectral gap has one route, `transfer.circle_spectrum`: the resolved
|lambda_2 / lambda_1| of the dense LAPACK spectrum (`dense_leading`) on
the smallest coarse grid N_c that resolves the operator, with its change
from N_c to 2 N_c as a bound. Its lambda is the N-mode Arnoldi eigenvalue
(`power_leading`) of the matrix-free `transfer.nufft_operator`, started
from the coarse eigenfunction, with no dual solve.

Arithmetic follows the dtype of the operator: a float64 matrix (real s, see
`operator_parameter`) gets a real Krylov basis, real eigendata and a real
resolvent solve, at half the memory and about half the time per matvec of
complex ones. A real matrix is never multiplied by a complex vector, which
numpy does by copying the matrix on every call; a complex-conjugate Ritz
pair is handled by applying the operator to the real and imaginary parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonDecaying
from .rng import uniform_stream

_KRYLOV_DIM = 128       # basis vectors per Arnoldi cycle: 4 MB at N = 2048
_RITZ_EVERY = 8         # an eig every step would cost more than the matvecs at N = 512
_MATVEC_BUDGET = 16 * _KRYLOV_DIM
_EQUAL_MODULUS = 1e-8   # relative distance below which two Ritz moduli are one
_LEADING_TOL = 1e-14    # Arnoldi tolerance of every leading solve, relative to |lambda|
_SUBLEADING_TOL = 1e-10  # Arnoldi tolerance of `deflated_subleading`
_SUBLEADING_SEED = 1    # start vector seed of `deflated_subleading`
_COLLAPSE = 1e-8        # one-step fall of the deflated iterates, relative to |lambda|,
                        # below which the remainder is nilpotent at this resolution
_RANK_ONE_BLOCKS = 16   # row blocks of the resolvent's rank-one term: N^2 / 16 entries each


@dataclass
class SpectralData:
    """Leading eigendata of a positive transfer operator discretization.

    lam: leading eigenvalue; rho: eigenfunction with integral 1 against the
    conformal weights; weights: dual eigenvector normalized to total mass 1;
    residual: sup-norm eigen-equation defect.
    """

    lam: complex
    rho: np.ndarray
    weights: np.ndarray
    residual: float
    peripheral: bool = False


def operator_parameter(s: complex) -> float | complex:
    """s as a float when its imaginary part is zero, else as a complex.

    The weights of an operator are computed with this value, so a real s
    gives a float64 matrix and real arithmetic everywhere downstream,
    whether it arrives as 1.5 or as complex(1.5).
    """
    s = complex(s)
    return s.real if s.imag == 0 else s


def _start_vector(n: int, seed: int = 0) -> np.ndarray:
    """Constant vector plus a small seeded perturbation.

    The perturbation guards against starting exactly orthogonal to the
    dominant eigenvector; the fixed seed keeps every run reproducible.
    """
    return 1.0 + 1e-3 * (uniform_stream(seed, n) - 0.5)


def _eigenvector(h: np.ndarray, theta) -> np.ndarray:
    """Unit eigenvector of the small matrix h for its eigenvalue theta.

    Two steps of inverse iteration with the shift moved off theta by a few
    ulps of |theta| (of max |h|, or of 1, when theta is 0); cheaper than the
    eigenvectors of a full eig, of which only this one is read. Real for
    real h and theta. A pivot that still comes out exactly zero moves the
    shift 16x further off. An offset of a few ulps of 1 would swamp a theta
    far below eps: the full shift with weights 2^-60, 3^-60 and 6^-60 read
    lambda = -1.1e-19 for 8.7e-19.
    """
    offset = 4 * np.finfo(float).eps * (abs(theta) or float(np.max(np.abs(h))) or 1.0)
    while True:
        a = h - (theta + offset) * np.eye(len(h))
        y = np.ones(len(h), dtype=a.dtype)
        try:
            for _ in range(2):
                y = np.linalg.solve(a, y)
                y /= np.linalg.norm(y)
            return y
        except np.linalg.LinAlgError:
            offset *= 16


def _arnoldi(apply, v: np.ndarray, tol: float):
    """Ritz pair of largest modulus of the linear map `apply`.

    Returns (theta, x, res, matvecs, runner_up). A cycle builds an
    orthonormal Krylov basis from v, stored as rows, by two-pass classical
    Gram-Schmidt. Every _RITZ_EVERY steps, at _KRYLOV_DIM rows and at
    breakdown (always by step len(v)), the eigenvalues of the Hessenberg
    matrix H are the Ritz values. The one of largest modulus, theta, with
    unit eigenvector y of H (`_eigenvector`), has the residual estimate
    beta |y_k|. Once that is at most tol * |theta|, or at breakdown, where
    it is exact, the Ritz vector x costs one true matvec: theta becomes the
    Rayleigh quotient and the pair is returned if the sup-norm residual
    |Ax - theta x| / |x| is at most max(tol, 1e-10) * |theta|: both tests
    are relative to theta, and a zero theta passes only with a zero
    residual. Otherwise, and at a full basis, the next cycle starts from x.
    runner_up is the modulus of the second Ritz value of the accepting
    space, 0.0 when it is one-dimensional.

    V and H take the dtype of v. A real v means a real map, which is only
    ever applied to real vectors, since numpy copies a real matrix to
    multiply it by a complex vector. Its top Ritz value may still be one of
    a complex-conjugate pair; then x is complex, applied as
    apply(x.real) + 1j * apply(x.imag) (two matvecs), and a restart starts
    from the real part of x, its phase fixed at its largest entry.

    After a restarted cycle that follows one ended at a full basis, the
    cycles still needed are projected from the drop of the Ritz residual
    estimate over the last cycle; when they exceed what is left of the
    budget, NoConvergence is raised at once, naming the top Ritz modulus.
    On a ring of equal-modulus eigenvalues r * exp(2 pi i j / n) (a deflated
    cyclic shift) the estimate falls only about 3.5x per restart, and the
    budget would be spent before it certifies.
    NoConvergence is raised after _MATVEC_BUDGET matvecs.
    """
    n = len(v)
    m = min(_KRYLOV_DIM, n)
    real = not np.iscomplexobj(v)
    V = np.empty((m + 1, n), dtype=v.dtype)
    H = np.zeros((m + 1, m), dtype=v.dtype)

    def product(f, x):
        """f(x) for a map linear over the reals, keeping real operands real."""
        if real and np.iscomplexobj(x):
            return f(x.real) + 1j * f(x.imag)
        return f(x)

    matvecs = 0
    last_est = None
    while matvecs < _MATVEC_BUDGET:
        v = v / np.linalg.norm(v)
        V[0] = v
        for j in range(m):
            w = apply(V[j])
            matvecs += 1
            h = (V[:j + 1] @ w.conj()).conj()
            w -= h @ V[:j + 1]
            h2 = (V[:j + 1] @ w.conj()).conj()
            w -= h2 @ V[:j + 1]
            H[:j + 1, j] = h + h2
            beta = float(np.linalg.norm(w))
            H[j + 1, j] = beta
            k = j + 1
            breakdown = k == n or beta <= 1e-12 * float(np.linalg.norm(H[:k + 1, j]))
            if breakdown or k == m or k % _RITZ_EVERY == 0:
                theta = np.linalg.eigvals(H[:k, :k])
                order = np.argsort(-np.abs(theta), kind="stable")
                top = theta[order[0]]
                if real and top.imag == 0:
                    top = top.real
                y = _eigenvector(H[:k, :k], top)
                est = beta * abs(y[-1]) / abs(top) if top else math.inf
                converged = breakdown or est <= tol
                if converged or k == m:
                    x = product(lambda c: c @ V[:k], y)
                    x /= np.linalg.norm(x)
                    if converged:
                        ax = product(apply, x)
                        matvecs += 1 + (real and np.iscomplexobj(x))
                        lam = np.vdot(x, ax).item()
                        res = float(np.max(np.abs(ax - lam * x)) / np.max(np.abs(x)))
                        if res <= max(tol, 1e-10) * abs(lam):
                            runner_up = float(abs(theta[order[1]])) if k > 1 else 0.0
                            return lam, x, res, matvecs, runner_up
                    break
            V[k] = w / beta
        if last_est is not None and est > tol:
            drop = last_est / est
            left = (_MATVEC_BUDGET - matvecs) / m
            if drop <= 1.0 or math.log(est / tol) > left * math.log(drop):
                raise NoConvergence(
                    f"top Ritz modulus {abs(top):.6g}: the Ritz residual estimate "
                    f"{est:.2e} falls {drop:.3g}x per restart, too slowly to reach "
                    f"{tol:.0e} within {_MATVEC_BUDGET} matvecs ({matvecs} spent)")
        last_est = est if est > tol else None    # else the true residual failed
        if real and np.iscomplexobj(x):
            big = x[np.argmax(np.abs(x))]
            x = (x * (abs(big) / big)).real
        v = x
    raise NoConvergence(f"Arnoldi iteration not converged within {_MATVEC_BUDGET} matvecs")


def _collapses(apply, v: np.ndarray, floor: float) -> bool:
    """Whether the iterates of v under `apply` collapse below floor.

    True when ||v||, or the one-step fall ||apply(u)|| of a later unit
    iterate u, drops below floor within len(v).bit_length() + 1 steps: the
    nilpotency index of the remainder of z^d on N nodes is at most
    log2(N) + 1 for every d. The remainder then acts nilpotently at this
    resolution, and its eigenvalues are rounding noise of size
    eps^(1/log_d N), not lambda_2.
    """
    for _ in range(len(v).bit_length() + 1):
        ratio = float(np.linalg.norm(v))
        if ratio < floor:
            return True
        v = apply(v / ratio)
    return False


def power_leading(mat: np.ndarray, seed: int = 0, start: np.ndarray | None = None):
    """Leading eigenpair by restarted Arnoldi.

    mat is a matrix, or any operator with shape, dtype and `@` on vectors,
    such as `transfer.NufftOperator`.
    Returns (lam, vector, residual, matvecs). The pair is real (lam a float)
    when mat is real, complex otherwise. The iteration starts from `start`
    when given (a real start for a real mat), else from the seeded
    `_start_vector`; a start close to the leading eigenvector ends the first
    cycle in a breakdown within a step or two. The Ritz residual estimate
    must drop below _LEADING_TOL * |lam| and the sup-norm eigen-equation
    residual of the returned unit vector below 1e-10 * |lam| (`_arnoldi`),
    whatever the scale of mat. Raises NoConvergence at once when the two
    largest Ritz values of the converged space have equal modulus, as for
    [[0, 1], [1, 0]] or a complex-conjugate top pair of a real matrix, where
    no eigenvalue dominates, and when the matvec budget runs out.
    """
    v = _start_vector(mat.shape[0], seed) if start is None else start
    v = v.astype(np.result_type(mat.dtype, np.float64))
    lam, v, res, matvecs, runner_up = _arnoldi(lambda u: mat @ u, v, _LEADING_TOL)
    if lam != 0 and runner_up >= (1.0 - _EQUAL_MODULUS) * abs(lam):
        raise NoConvergence(f"no dominant eigenvalue: two Ritz values of equal modulus "
                            f"{abs(lam):.6g} and {runner_up:.6g}")
    return lam, v, res, matvecs


def deflated_subleading(mat: np.ndarray, lam: complex, rho: np.ndarray,
                        dual: np.ndarray) -> float:
    """|lambda_2| as the leading modulus of M - lam * rho (x) dual.

    dual must be scaled so that dual . rho = 1; the rank-one removal then
    annihilates the leading eigenspace. Equal-modulus pairs, such as a
    complex-conjugate pair or a non-normal block with eigenvalues +-r, are
    read like any other; with real inputs the solve stays real. Returns 0.0
    when the deflated iterates collapse below _COLLAPSE * |lam|
    (`_collapses`: a nilpotent remainder), as in `dense_leading`; else the
    Ritz residual estimate and the sup-norm residual must drop below
    _SUBLEADING_TOL * |lambda_2| (`_arnoldi`), or NoConvergence is raised.
    """
    scale = np.dot(dual, rho)
    if abs(scale) < 1e-300:
        raise NoConvergence("dual vector is orthogonal to the eigenfunction")
    dual = dual / scale

    def apply(u):
        return mat @ u - lam * rho * np.dot(dual, u)

    v = apply(_start_vector(mat.shape[0], _SUBLEADING_SEED))  # kill the leading component
    if _collapses(apply, v, _COLLAPSE * abs(lam)):
        return 0.0
    return float(abs(_arnoldi(apply, v, _SUBLEADING_TOL)[0]))


def dense_leading(mat: np.ndarray, want_rho: bool = True):
    """(lam, rho, gap) of a small dense operator, from its LAPACK spectrum.

    lam is the eigenvalue of largest modulus (a float when it is real), rho
    its unit eigenvector by inverse iteration (`_eigenvector`), or None when
    want_rho is False, and gap = |lambda_2| / |lambda| for the runner-up
    lambda_2 in modulus.

    The gap is 0.0 when the remainder is nilpotent at this resolution: the
    iterates mat^j v of v = (mat - lam) u, which has no component along
    rho, collapse below _COLLAPSE * |lam| (`_collapses`). The floor is
    relative to |lam|: against max(1, |lam|), the degree-3 benchmark map at
    s = 30, where |lam| = 1.4e-11, read gap 0 for 0.94. NoConvergence is
    raised when lambda_2 has the modulus of lam, as in `power_leading`.
    """
    ev = np.linalg.eigvals(mat)
    ev = ev[np.argsort(-np.abs(ev), kind="stable")]
    lam = ev[0].real if ev[0].imag == 0 else ev[0]
    if abs(ev[1]) >= (1.0 - _EQUAL_MODULUS) * abs(lam):
        raise NoConvergence(f"no dominant eigenvalue: two eigenvalues of equal modulus "
                            f"{abs(lam):.6g} and {abs(ev[1]):.6g}")
    rho = _eigenvector(mat, lam) if want_rho else None
    u = _start_vector(len(mat))
    if _collapses(lambda x: mat @ x, mat @ u - lam * u, _COLLAPSE * abs(lam)):
        return lam, rho, 0.0
    return lam, rho, float(abs(ev[1]) / abs(lam))


def leading_spectral_data(mat: np.ndarray) -> SpectralData:
    """Leading pair and dual weights of a dense operator.

    The outputs follow the dtype of mat: a real operator gives a float lam
    and real vectors, with rho > 0 and nonnegative weights when it is
    positive; a complex one gives complex outputs. Either way the weights sum
    to 1 and pair with rho to 1, which fixes the free scale of both vectors.
    """
    lam, rho, res = power_leading(mat)[:3]
    dual = power_leading(mat.T, seed=7)[1]
    mass = np.sum(dual)
    if abs(mass) < 1e-300:
        raise NoConvergence("dual weights have zero total mass")
    weights = dual / mass
    pairing = np.dot(weights, rho)
    if abs(pairing) < 1e-300:
        raise NoConvergence("eigenfunction orthogonal to the conformal weights")
    rho = rho / pairing
    return SpectralData(lam=lam, rho=rho, weights=weights, residual=res)


def deflated_resolvent(mat: np.ndarray, lam: complex, rho: np.ndarray,
                       weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_{n >= 0} (mat - lam * rho (x) weights)^n v by one linear solve.

    With weights . rho = 1 and (lam, rho, weights) the leading eigendata of
    mat, the rank-one term removes the leading eigenvalue, so the series
    converges whenever the rest of the spectrum lies inside the unit disk;
    its sum is the solution x of (I - mat + lam * rho (x) weights) x = v.
    NonDecaying is raised when LAPACK reports the matrix singular or the
    solve leaves a residual above 1e-10 * ||v||. The system is built in one
    N x N array, equal entry by entry to I - mat + lam * outer(rho, weights),
    with the rank-one term added in row blocks.
    """
    n = len(v)
    A = np.result_type(mat, lam, rho, weights).type(0) - mat
    A.flat[::n + 1] += 1
    step = -(-n // _RANK_ONE_BLOCKS)
    for lo in range(0, n, step):
        A[lo:lo + step] += lam * np.multiply.outer(rho[lo:lo + step], weights)
    try:
        x = np.linalg.solve(A, v)
    except np.linalg.LinAlgError:
        raise NonDecaying("deflated resolvent of the transfer operator is singular") from None
    res = float(np.linalg.norm(A @ x - v))
    if not res <= 1e-10 * np.linalg.norm(v):
        raise NonDecaying(f"resolvent solve residual {res:.3e} exceeds 1e-10 * ||v||")
    return x


def green_kubo(op, rho: np.ndarray, weights: np.ndarray, g: np.ndarray, solve) -> float:
    """Asymptotic variance <mu, phi^2> + 2 sum_{k>=1} <weights, phi op^k (rho phi)>.

    op (a matrix, or any operator with `@` on vectors) has leading
    eigenvalue 1 with eigenfunction rho and dual weights, weights . rho = 1,
    and mu = rho * weights is the invariant measure; phi = g - <mu, g> is
    centered. Since <weights, rho phi> = 0, the sum over k >= 0 of
    op^k (rho phi) is the deflated resolvent x, the solution of
    (I - op + rho (x) weights) x = rho phi, which solve(v) returns: a dense
    `deflated_resolvent` for the shift, a two-grid solve for the circle
    (`stochastic.green_kubo_variance`). The variance is
    <mu, phi^2> + 2 <weights, phi * op x>. The pairings are pairwise sums,
    so with uniform weights 1/N they are numpy means to the bit.
    NonDecaying comes from the solve.
    """
    mu = rho * weights
    mu = mu / np.sum(mu)
    phi = g - float(np.sum(mu * g))
    x = solve(rho * phi)
    return float(np.sum(mu * (phi * phi))) + 2.0 * float(np.sum(weights * (phi * (op @ x))))
