"""Thermodynamics of finite-truncation subshifts of finite type.

Letters are 1-based integers. Potentials are locally constant at a chosen
cylinder depth k, which makes every transfer operator an exact finite matrix
on depth-k cylinder indicators. A general Hoelder potential is approached by
raising k, and an infinite alphabet by truncation; neither remainder is
bounded here. A transfer operator is a plain matrix on the basis of
`SymbolicSystem.cylinder_table`; `spectral` owns everything read off it:
the leading data and the Green-Kubo variance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .counting import _NODE_BUDGET, CountingLedger, _prefix_member, _walk
from .errors import BudgetExceeded, DivergentSeries, NoConvergence, NotPrimitive
from .rng import uniform_stream
from .spectral import (SpectralData, deflated_resolvent, green_kubo, leading_spectral_data,
                       operator_parameter, power_leading)

Word = tuple

_PRESSURE_STEP = 1e-3      # step h of the one-sided pressure stencils
_ETA_TAIL_TOL = 1e-12      # relative change that ends the doubling series
_ETA_MAX_DOUBLINGS = 60
_MAX_PERIOD = 8            # longest period d_genericity scans
_WORD_CHUNK = 1 << 16      # words per chunk of the periodic-word scan
_LATTICE_TOL = 1e-9        # termination tolerance of the lattice cascade
_HOLDER_S0 = 1.0           # base point s0 on the critical line Re s = 1
_HOLDER_RADIUS = 0.5
_HOLDER_LEVELS = 8         # pairs t = s0 + i radius 2^-j, j = 1 .. levels
_HOLDER_PROBES = 32        # seeded random probe vectors
_HOLDER_SEED = 0           # stream seed of the probe vectors
_MAX_BASIS = 2048          # most cylinder words of a transfer matrix: 64 MB when complex
_HOLDER_MAX_BASIS = 512    # most words of holder_modulus_in_s: ~800 n^2 flops, 70 n^2 bytes


@dataclass(frozen=True)
class CylinderTable:
    """Admissible depth-k words (lexicographic basis, index, (n, k) letters)
    and predecessor edges basis[cols[e]] = (a,) + basis[rows[e]][:-1],
    sorted by row, then by a; transfer matrices and word counts read them."""

    basis: list
    index: dict
    letters: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


class SymbolicSystem:
    """Finite-alphabet subshift: alphabet {1..M} and a 0/1 incidence matrix.

    incidence[a-1][b-1] = 1 means the two-letter word "ab" is admissible.
    """

    def __init__(self, incidence: np.ndarray):
        A = np.asarray(incidence, dtype=np.uint8)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("incidence must be square")
        if np.any(A.sum(axis=1) == 0):
            raise ValueError("every letter needs an outgoing edge")
        self.incidence = A
        self.alphabet_size = A.shape[0]
        self._tables: dict[int, CylinderTable] = {}

    @staticmethod
    def full_shift(m: int) -> "SymbolicSystem":
        return SymbolicSystem(np.ones((m, m), dtype=np.uint8))

    @property
    def is_full(self) -> bool:
        return bool(np.all(self.incidence == 1))

    @functools.cached_property
    def is_primitive(self) -> bool:
        """Whether some power of the incidence matrix is strictly positive.

        Squares the 0/1 pattern in floating point, clipping back to 0/1, until
        the exponent passes Wielandt's bound (n-1)^2 + 1: a primitive matrix
        is positive at every power from its exponent on, which is at most
        that bound, and a matrix with a positive power is primitive.
        """
        n = self.alphabet_size
        P = (self.incidence > 0).astype(float)
        power = 1
        while not np.all(P > 0):
            if power >= (n - 1) ** 2 + 1:
                return False
            P = np.minimum(P @ P, 1.0)
            power *= 2
        return True

    def allows(self, a: int, b: int) -> bool:
        return bool(self.incidence[a - 1, b - 1])

    def word_admissible(self, w: Word) -> bool:
        return all(self.allows(w[i], w[i + 1]) for i in range(len(w) - 1))

    def cylinder_words(self, depth: int) -> list[Word]:
        """All admissible words of the given length, lexicographic order."""
        return self.cylinder_table(depth).basis

    def cylinder_table(self, depth: int) -> CylinderTable:
        """The depth-k table, built once; predecessors are found by their
        base-M codes, which the lexicographic basis keeps sorted."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth not in self._tables:
            m = self.alphabet_size
            if m**depth > 10**6:
                raise BudgetExceeded("cylinder basis would exceed 1e6 words")
            letters = np.arange(1, m + 1)[:, None]
            for _ in range(depth - 1):
                # row-major nonzero keeps the extended words lexicographic
                word, last = np.nonzero(self.incidence[letters[:, -1] - 1])
                letters = np.column_stack([letters[word], last + 1])
            codes = (letters - 1) @ m ** np.arange(depth - 1, -1, -1)
            rows, a = np.nonzero(self.incidence.T[letters[:, 0] - 1])
            cols = np.searchsorted(codes, a * m ** (depth - 1) + codes[rows] // m)
            basis = list(map(tuple, letters.tolist()))
            self._tables[depth] = CylinderTable(
                basis, {w: i for i, w in enumerate(basis)}, letters, rows, cols)
        return self._tables[depth]

    def label(self) -> str:
        kind = "full" if self.is_full else "sft"
        return f"{kind}[{self.alphabet_size}]"


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass
class PotentialSpec:
    """Locally constant potential on depth-k cylinders.

    values maps each admissible depth-k word to a real number; alpha is the
    Hoelder exponent of the variation norm in holder_modulus_in_s.
    """

    depth: int
    values: dict
    alpha: float = 1.0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"potential depth must be at least 1, got {self.depth}")
        self.values = {tuple(k): float(v) for k, v in self.values.items()}
        wrong = [w for w in self.values if len(w) != self.depth]
        if wrong:
            raise ValueError(f"potential of depth {self.depth} has a value on the "
                             f"length-{len(wrong[0])} word {wrong[0]}")
        if max(self.values.values()) >= 0:
            raise ValueError("potential must be negative: sup psi < 0")

    def vector(self, basis: list[Word]) -> np.ndarray:
        return np.array([self.values[w] for w in basis])

    def shifted(self, c: float) -> "PotentialSpec":
        return PotentialSpec(self.depth, {w: v + c for w, v in self.values.items()},
                             self.alpha)

    @staticmethod
    def constant(S: SymbolicSystem, value: float) -> "PotentialSpec":
        return PotentialSpec(1, {w: value for w in S.cylinder_words(1)})

    @staticmethod
    def from_letter_values(S: SymbolicSystem, per_letter: dict) -> "PotentialSpec":
        return PotentialSpec(1, {(a,): v for a, v in per_letter.items()})


def calibrate(S: SymbolicSystem, psi: PotentialSpec) -> PotentialSpec:
    """Shift the potential by a constant so that its pressure vanishes."""
    lam = spectral_data(S, psi, 1.0).lam.real
    return psi.shifted(-math.log(lam))


# ---------------------------------------------------------------------------
# transfer matrices on the cylinder basis
# ---------------------------------------------------------------------------

def cylinder_operator(S: SymbolicSystem, psi: PotentialSpec, s: complex = 1.0,
                      p: float = 0.0) -> np.ndarray:
    """Matrix of g -> sum_a psi^p e^{s psi}(a omega) g(a omega) on the depth-k
    cylinder indicators, in the order of `S.cylinder_table(k).basis`.

    For a word w, the predecessors are w' = a + w[:k-1]; the entry is the
    weight at w', which is exact because psi is locally constant at depth k.
    psi^p (|psi|^p for non-integer p) is Python's float power: numpy's power
    rounds differently in the last place. The matrix is float64 when s has
    zero imaginary part, complex otherwise; past 2048 words, BudgetExceeded.
    """
    tab = S.cylinder_table(psi.depth)
    if len(tab.basis) > _MAX_BASIS:
        raise BudgetExceeded(f"cylinder basis of {len(tab.basis)} words exceeds {_MAX_BASIS}")
    x = psi.vector(tab.basis)
    weight = np.exp(operator_parameter(s) * x)
    if p != 0:
        base = x if p == int(p) else np.abs(x)
        weight = np.array([b**p for b in base.tolist()]) * weight
    mat = np.zeros((len(tab.basis),) * 2, dtype=weight.dtype)
    mat[tab.rows, tab.cols] += weight[tab.cols]
    return mat


def _require_primitive(S: SymbolicSystem) -> None:
    if not S.is_primitive:
        raise NotPrimitive(f"incidence of {S.label()} has no positive power; "
                           "the leading eigenvalue is not isolated")


def spectral_data(S: SymbolicSystem, psi: PotentialSpec, s: complex = 1.0) -> SpectralData:
    """Leading eigendata of L_{s psi} on the cylinder basis.

    The incidence must be primitive (NotPrimitive otherwise), which makes
    the leading eigenvalue simple and isolated; for real s it is positive,
    and a lam <= 0 raises NoConvergence. For complex s the returned lam is
    the dominant eigenvalue found by restarted Arnoldi; `peripheral` flags a
    modulus matching the real-parameter eigenvalue at Re(s) within 1e-9, the
    signature of a lattice potential.
    """
    if complex(s).real < 1.0 - 1e-12:
        raise ValueError("spectral data is defined on the half-plane Re s >= 1")
    _require_primitive(S)
    M = cylinder_operator(S, psi, s, 0.0)
    data = leading_spectral_data(M)
    if complex(s).imag != 0:
        lam_ref = power_leading(cylinder_operator(S, psi, complex(s).real, 0.0))[0]
        data.peripheral = abs(abs(data.lam) - lam_ref) < 1e-9 * max(1.0, lam_ref)
    elif not data.lam > 0:
        raise NoConvergence(f"nonpositive leading eigenvalue {data.lam:.3g} on the real axis")
    return data


def equilibrium_cylinder_masses(S: SymbolicSystem,
                                psi: PotentialSpec) -> tuple[list, np.ndarray, SpectralData]:
    """(basis, mu([w]) for each w, spectral data at s = 1); mu = rho * m."""
    data = spectral_data(S, psi, 1.0)
    mu = (data.rho * data.weights).real
    mu = mu / np.sum(mu)
    return S.cylinder_words(psi.depth), mu, data


# ---------------------------------------------------------------------------
# pressure derivatives along real s
# ---------------------------------------------------------------------------

@dataclass
class ShiftPressureReport:
    dp: float
    ddp: float
    mean_integral: float        # int psi d(mu_1), the first-derivative prediction
    variance_gk: float          # Green-Kubo variance of psi - mean, second-derivative prediction


def pressure_derivs_shift(S: SymbolicSystem, psi: PotentialSpec) -> ShiftPressureReport:
    """One-sided derivatives of P(s) = log lambda_s at s = 1, with Richardson.

    Second-order one-sided stencils at steps h = 1e-3 and h/2 are combined to
    third order. The independent predictions (integral of psi and the Green-Kubo
    variance of its centered part, `spectral.green_kubo` on M_1 / lambda_1)
    ride along for cross-checking.
    """
    h = _PRESSURE_STEP
    basis, mu, data = equilibrium_cylinder_masses(S, psi)
    P = {sv: math.log(data.lam if sv == 1.0 else spectral_data(S, psi, sv).lam)
         for sv in (1.0, 1.0 + h / 2, 1.0 + h, 1.0 + 3 * h / 2, 1.0 + 2 * h, 1.0 + 3 * h)}

    def d1(step):
        return (-3 * P[1.0] + 4 * P[1.0 + step] - P[1.0 + 2 * step]) / (2 * step)

    def d2(step):
        return (2 * P[1.0] - 5 * P[1.0 + step] + 4 * P[1.0 + 2 * step]
                - P[1.0 + 3 * step]) / step**2

    dp = (4 * d1(h / 2) - d1(h)) / 3
    ddp = (4 * d2(h / 2) - d2(h)) / 3
    vals = psi.vector(basis)
    mean_integral = float(np.dot(mu, vals))
    M = cylinder_operator(S, psi, 1.0, 0.0) / data.lam
    var_gk = green_kubo(M, data.rho, data.weights, vals,
                        functools.partial(deflated_resolvent, M, 1, data.rho, data.weights))
    return ShiftPressureReport(dp=dp, ddp=ddp, mean_integral=mean_integral,
                               variance_gk=var_gk)


# ---------------------------------------------------------------------------
# Poincare series
# ---------------------------------------------------------------------------

@dataclass
class EtaResult:
    series: complex        # partial sums of L_s^n f_s at the seed
    resolvent: complex     # (1 - lam)^{-1} R f_s + sum Delta^n f_s at the seed
    terms: int

    @property
    def agreement(self) -> float:
        return abs(self.series - self.resolvent)


def _offset_vector(offset, basis) -> np.ndarray:
    if offset is None:
        return np.zeros(len(basis))
    if isinstance(offset, dict):
        return np.array([offset.get(w, 0.0) for w in basis])
    raise ValueError("offset must be None or a dict from words to values")


def poincare_eta(S: SymbolicSystem, psi: PotentialSpec, offset, s: complex,
                 xi: Word) -> EtaResult:
    """eta(s) at the seed xi, by operator partial sums and by the resolvent.

    offset phi, None (zero) or a dict from depth-k words to values (0 where
    a word is missing), gives f_s = e^{s phi}. The series route accumulates
    partial sums of L_s^n f_s at dyadic truncation lengths via the doubling
    identity sum_{n < 2K} M^n = (I + M^K) sum_{n < K} M^n, stopping once the
    last of at most 60 doublings changed the seed value by less than 1e-12
    relative. The resolvent route splits off the rank-one eigenprojection:
    (1 - lam_s)^{-1} R_s f_s plus the deflated resolvent of the remainder.
    Both values are returned; they must agree for a convergent series. A
    non-primitive incidence is refused with NotPrimitive before either runs.
    """
    _require_primitive(S)
    k = psi.depth
    if len(xi) < k:
        raise ValueError(f"seed must supply at least {k} letters")
    if not S.word_admissible(tuple(xi[: k + 1])):
        raise ValueError("seed word is not admissible")
    tab = S.cylinder_table(k)
    i_seed = tab.index[tuple(xi[:k])]
    M = cylinder_operator(S, psi, s, 0.0)
    f = np.exp(operator_parameter(s) * _offset_vector(offset, tab.basis))

    partial = f.copy()          # sum_{n < K} M^n f with K = 2^j
    power = M.copy()            # M^K
    terms = 1
    converged = False
    for _ in range(_ETA_MAX_DOUBLINGS):
        nxt = partial + power @ partial
        delta = abs(nxt[i_seed] - partial[i_seed])
        grew = np.max(np.abs(nxt)) > 1e6 * max(1.0, np.max(np.abs(f)))
        partial = nxt
        power = power @ power
        terms *= 2
        if grew:
            raise DivergentSeries("operator series grows; no spectral gap here")
        if delta < _ETA_TAIL_TOL * max(1.0, abs(partial[i_seed])):
            converged = True
            break
    if not converged:
        raise DivergentSeries("operator series failed to settle within budget")

    data = leading_spectral_data(M)
    lam = data.lam
    if abs(1.0 - lam) < 1e-14:
        raise DivergentSeries("leading eigenvalue is 1; eta has a pole here")
    rho, w = data.rho, data.weights
    proj = rho * np.dot(w, f)
    rest = deflated_resolvent(M, lam, rho, w, f - proj)
    res_total = proj[i_seed] / (1.0 - lam) + rest[i_seed]
    return EtaResult(complex(partial[i_seed]), complex(res_total), terms)


# ---------------------------------------------------------------------------
# counting on the shift
# ---------------------------------------------------------------------------

def count_words(S: SymbolicSystem, psi: PotentialSpec, xi: Word, T: float,
                B=None, node_budget: int = _NODE_BUDGET):
    """Exact count of prefix words with Birkhoff sum of -psi at most T.

    Events are pairs (S_{|w|}(-psi)(w xi), w); prepending a letter increases
    the sum by at least min(-psi) > 0, which prunes the tree. `counting._walk`
    walks it level by level: a node is the depth-k window of w xi, its
    children follow the window's predecessor edges, and its leading letters
    (padded by xi, then by 0) decide membership in the cylinders of B.
    BudgetExceeded is raised exactly when there are more than node_budget
    events, checked per expanded chunk, so a refused walk holds memory of
    the order of the budget. An inadmissible seed raises ValueError. Returns
    a ledger that weighs the events outside B 0; B None or empty admits
    every event, as in `counting.coded_count` and `parabolic.parabolic_count`.
    """
    k = psi.depth
    xi = tuple(xi)
    if len(xi) < max(1, k - 1) + 1:
        raise ValueError("seed too short for the potential depth")
    if not S.word_admissible(xi):
        raise ValueError("seed word is not admissible")
    tab = S.cylinder_table(k)
    inc = -psi.vector(tab.basis)                 # entering window j adds inc[j]
    ptr = np.searchsorted(tab.rows, np.arange(len(tab.basis) + 1))
    deg = np.diff(ptr)

    def children(win, acc):
        n = deg[win]
        owner = np.repeat(np.arange(len(win)), n)
        edge = np.arange(len(owner)) + np.repeat(ptr[win] - (np.cumsum(n) - n), n)
        child = tab.cols[edge]
        return owner, child, acc[owner] + inc[child]

    levels = _walk(tab.index[xi[:k]], children, T, node_budget, int(deg.max()))
    cylinders = [tuple(t) for t in B] if B else None
    _, values, member = zip(*_prefix_member(levels, lambda w: tab.letters[w, 0], xi, cylinders))
    return CountingLedger.from_events(np.concatenate(values), member_mask=np.concatenate(member))


# ---------------------------------------------------------------------------
# D-genericity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeVerdict:
    kind: str                 # "lattice" | "generic"
    generator: float | None
    n_values: int

    @property
    def is_lattice(self) -> bool:
        return self.kind == "lattice"


def periodic_birkhoff_values(S: SymbolicSystem, psi: PotentialSpec,
                             max_period: int) -> np.ndarray:
    """S_n(psi) over all cyclic admissible words of period n <= max_period.

    The scan visits sum_{n <= max_period} M**n words for M letters; that
    total is checked against the node budget of 1e7 before any word is
    visited. Period n's words are the base-M codes 0 .. M**n - 1, the order
    of `itertools.product`, in chunks; admissibility and the potential on
    each depth-k window are table lookups, summed left to right from 0.0.
    """
    m, k = S.alphabet_size, psi.depth
    if sum(m**n for n in range(1, max_period + 1)) > _NODE_BUDGET:
        raise BudgetExceeded("periodic-word scan exceeds the node budget")
    tab = S.cylinder_table(k)
    place = m ** np.arange(k - 1, -1, -1)
    value = np.zeros(m**k)
    value[(tab.letters - 1) @ place] = psi.vector(tab.basis)
    out = []
    for n in range(1, max_period + 1):
        for lo in range(0, m**n, _WORD_CHUNK):
            code = np.arange(lo, min(lo + _WORD_CHUNK, m**n))
            digits = code[:, None] // m ** np.arange(n - 1, -1, -1) % m
            digits = digits[np.all(S.incidence[digits, np.roll(digits, -1, axis=1)], axis=1)]
            total = np.zeros(len(digits))
            for j in range(n):
                total += value[digits[:, (j + np.arange(k)) % n] @ place]
            out.append(total)
    return np.concatenate(out)


def lattice_verdict(values) -> LatticeVerdict:
    """Decide whether the given Birkhoff values lie in a*Z for some a > 0.

    A floating-point Euclidean cascade extracts the candidate generator g.
    The verdict is lattice only when g stays on the scale of the values
    (g > 1e-4 * min value): for incommensurable values the cascade runs the
    continued-fraction expansion down to the cutoff instead, which is the
    rationality test. The cascade ends at the absolute tolerance 1e-9.
    """
    vals = np.sort(np.abs(np.asarray(values, dtype=float)))
    vals = vals[vals > 10 * _LATTICE_TOL]
    if len(vals) == 0:
        return LatticeVerdict("lattice", None, 0)
    scale = float(vals[0])
    floor = max(_LATTICE_TOL, 1e-4 * scale)

    def fold(a, b):
        while b > _LATTICE_TOL:
            r = math.fmod(a, b)
            r = min(r, abs(b - r))
            a, b = b, r
        return a

    g = scale
    for v in vals[1:]:
        g = fold(max(g, v), min(g, v))
        if g <= floor:
            return LatticeVerdict("generic", None, len(vals))
    mults = np.abs(vals / g - np.round(vals / g)) * g
    if np.all(mults < max(100 * _LATTICE_TOL, 1e-7 * scale)):
        return LatticeVerdict("lattice", float(g), len(vals))
    return LatticeVerdict("generic", None, len(vals))


def d_genericity(S: SymbolicSystem, psi: PotentialSpec) -> LatticeVerdict:
    """Lattice-or-generic verdict from the periodic Birkhoff values, periods <= 8."""
    return lattice_verdict(periodic_birkhoff_values(S, psi, _MAX_PERIOD))


# ---------------------------------------------------------------------------
# empirical Hoelder modulus of s -> L_{s,q}
# ---------------------------------------------------------------------------

def _holder_norm_data(letters: np.ndarray, alpha: float):
    """Pairwise weights 2^(alpha * common_prefix_length) for the variation."""
    same = np.ones((len(letters), len(letters)), dtype=bool)
    cp = np.zeros(same.shape)
    for col in letters.T:
        same &= col[:, None] == col[None, :]
        cp += same
    return 2.0 ** (alpha * cp)


def _holder_norm(vec, weight_mat) -> float:
    top = np.max(np.abs(vec))
    if np.all(vec == vec[0]):
        return float(top)   # every pair is 0, as for D g when D = L_t - L_s has rank one
    v = np.abs(vec[:, None] - vec[None, :]) * weight_mat
    return float(top + np.max(v))


def holder_modulus_in_s(S: SymbolicSystem, psi: PotentialSpec, q: float):
    """Fit ||L_{s,q} - L_{t,q}|| ~ C |s - t|^eps along the critical line.

    Pairs t = s0 + i * radius * 2^{-j}, j = 1 .. 8, with s0 = 1 and
    radius 0.5; the operator-norm estimate maximizes the Hoelder-norm
    amplification over cylinder indicators and 32 random probe vectors of
    stream seed 0, stacked into one n x K block: each level takes one block
    product (L_t - L_s) @ probes. Returns (C_fit, eps_fit) from the log-log
    least squares. A basis over 512 words is refused with BudgetExceeded
    before any work.
    """
    letters = S.cylinder_table(psi.depth).letters
    n = len(letters)
    if n > _HOLDER_MAX_BASIS:
        raise BudgetExceeded(f"cylinder basis of {n} words exceeds {_HOLDER_MAX_BASIS} "
                             "for the Hoelder modulus")
    base = cylinder_operator(S, psi, _HOLDER_S0, q)
    wmat = _holder_norm_data(letters, psi.alpha)
    probes = np.vstack([np.eye(min(n, 64), n)] +
                       [uniform_stream(_HOLDER_SEED, n, offset=i * n) - 0.5
                        for i in range(_HOLDER_PROBES)])
    norms = np.array([_holder_norm(g, wmat) for g in probes])
    keep = norms >= 1e-300
    probes, norms = probes[keep].T, norms[keep]
    gaps = []
    deltas = []
    for j in range(1, _HOLDER_LEVELS + 1):
        t = complex(_HOLDER_S0) + 1j * _HOLDER_RADIUS * 2.0 ** (-j)
        images = ((cylinder_operator(S, psi, t, q) - base) @ probes).T
        best = 0.0
        for img, ng in zip(images, norms):
            best = max(best, _holder_norm(img, wmat) / ng)
        gaps.append(_HOLDER_RADIUS * 2.0 ** (-j))
        deltas.append(max(best, 1e-300))
    logx = np.log(np.array(gaps))
    logy = np.log(np.array(deltas))
    eps_fit, logC = np.polyfit(logx, logy, 1)
    return float(np.exp(logC)), float(eps_fit)
