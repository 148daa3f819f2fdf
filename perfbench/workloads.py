"""The benchmark's workloads: innerdyn CLI requests and the check of each artifact.

Every workload is a fixed list of requests. The workload seed sets the
``clt --seed`` values, the ``count``/``cesaro`` base point x0 and the start of
their arc; nothing else depends on it, so every seed does the same amount of
work. Each check uses the tolerance of the acceptance criterion that covers
the request, an exact oracle computed here, or a reference value recorded
from the first benchmarked commit with a stated tolerance. An artifact's
``hash`` is reported as a fingerprint and never gated on.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

TWO_PI = 2.0 * math.pi
LOG2, LOG3, LOG6 = math.log(2), math.log(3), math.log(6)

FH = '{"kind":"blaschke","zeros":[[0,0],[0.5,0]]}'
A09 = '{"kind":"blaschke","zeros":[[0,0],[0.9,0]]}'
DEG3 = '{"kind":"blaschke","zeros":[[0,0],[0.4,0.3],[-0.3,-0.5]],"rotation":0.7}'
Z2 = '{"kind":"monomial","d":2}'
Z3 = '{"kind":"monomial","d":3}'
BOOLE = '{"kind":"parabolic","poles":[[0,1]]}'
TWO_POLE = '{"kind":"parabolic","poles":[[-1,0.5],[1,0.5]]}'


class CheckFailed(Exception):
    pass


def need(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Artifact:
    hash: str
    data: dict | None = None          # JSON artifacts
    rows: list | None = None          # CSV artifacts: one dict of floats per row


def read_artifact(path: str) -> Artifact:
    with open(path) as fh:
        text = fh.read()
    if text.startswith("# config:"):
        lines = text.splitlines()
        digest = lines[1].removeprefix("# hash: ")
        header = lines[2].split(",")
        rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[3:]]
        return Artifact(hash=digest, rows=rows)
    doc = json.loads(text)
    return Artifact(hash=doc["hash"], data=doc["data"])


@dataclass(frozen=True)
class Request:
    name: str
    argv: tuple
    check: Callable[[Artifact], str]   # returns a one-line summary or raises CheckFailed


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _row(art: Artifact, s: complex) -> dict:
    for r in art.rows:
        if r["s_re"] == s.real and r["s_im"] == s.imag:
            return r
    raise CheckFailed(f"no row for s = {s}")


def _spectrum_check(refs: dict):
    """Every row: residual <= 1e-8; at s = 1, |lam - 1| <= 1e-10 (criterion 1).
    At each s in refs: lam within 1e-9 relative and the gap within 1e-4 of
    the reference values."""
    def check(art: Artifact) -> str:
        for r in art.rows:
            lam = complex(r["lambda_re"], r["lambda_im"])
            need(r["residual"] <= 1e-8, f"residual {r['residual']:.2e} > 1e-8")
            if (r["s_re"], r["s_im"]) == (1.0, 0.0):
                need(abs(lam - 1.0) <= 1e-10, f"|lam(1)-1| = {abs(lam - 1):.2e} > 1e-10")
        for s, (lam_ref, gap_ref) in refs.items():
            r = _row(art, s)
            lam = complex(r["lambda_re"], r["lambda_im"])
            need(abs(lam - lam_ref) <= 1e-9 * abs(lam_ref), f"lam({s}) = {lam} vs {lam_ref}")
            need(abs(r["gap"] - gap_ref) <= 1e-4, f"gap({s}) = {r['gap']} vs {gap_ref}")
        return ", ".join(f"lam({r['s_re']:g}{r['s_im']:+g}j)={r['lambda_re']:.12f}"
                         f"{r['lambda_im']:+.12f}j gap={r['gap']:.6f}" for r in art.rows)
    return check


def check_pressure(art: Artifact) -> str:
    """Criterion 5: |P' - mean| <= 1e-6 and |P'' - Green-Kubo| <= 1e-3."""
    d = art.data
    e1 = abs(d["dp"] - d["mean_prediction"])
    e2 = abs(d["ddp"] - d["variance_prediction"])
    need(e1 <= 1e-6, f"|P'-mean| = {e1:.2e} > 1e-6")
    need(e2 <= 1e-3, f"|P''-GK| = {e2:.2e} > 1e-3")
    return f"|P'-mean|={e1:.1e} |P''-GK|={e2:.1e}"


def check_holder(art: Artifact) -> str:
    """Criterion 13: eps >= 0.45 at q = 0, with a finite positive constant."""
    eps, c = art.data["eps_fit"], art.data["C_fit"]
    need(eps >= 0.45, f"eps = {eps} < 0.45")
    need(math.isfinite(c) and c > 0, f"C = {c}")
    return f"eps={eps:.3f}"


def _count_ratio_check(ratio_tol: float):
    """Criterion 7 (criterion 12 for the induced system): the last row's
    N(T) e^{-T} lam / m(B) within ratio_tol of 1.

    Criterion 7's Cesaro leg is not gated: it carries a 1/T bias that depends
    on where the seeded point and arc sit. On FH at T = 12 with half-circle
    arcs it ranged over 0.84-1.00 across 40 seeds (the ratio leg over
    0.997-1.005). The exact Cesaro oracle of the z^3 request covers
    CountingLedger.cesaro_average instead."""
    def check(art: Artifact) -> str:
        ratio = art.rows[-1]["N_exp_ratio"]
        need(abs(ratio - 1) <= ratio_tol, f"count ratio {ratio:.4f} off by > {ratio_tol}")
        return f"ratio={ratio:.4f}"
    return check


def check_z2_count(art: Artifact) -> str:
    """Exact: z^2 has 2^n level-n preimages at value n log 2, so the strict
    N(t) is 2^(k+1) - 1 with k the last level below t. Rows whose t lies
    within 1e-9 of a level are skipped."""
    checked = 0
    for r in art.rows:
        t = r["T"]
        k = math.ceil(t / LOG2) - 1
        if min(abs(t - k * LOG2), abs(t - (k + 1) * LOG2)) < 1e-9:
            continue
        need(r["N"] == 2 ** (k + 1) - 1, f"N({t}) = {r['N']}, expected {2 ** (k + 1) - 1}")
        checked += 1
    return f"N(T)={int(art.rows[-1]['N'])} exact on {checked} rows"


def _cesaro_z3_check(x: float, arc_start: float, arc_len: float, T: float):
    """Exact oracle: the level-n preimages of x under z^3 are x/3^n + 2 pi j/3^n,
    so the arc count per level is a difference of ceilings; the Cesaro
    average (1/T) int_0^T N(t) e^{-t} dt of that step function must match
    within 1e-9 relative. The prediction m(B)/log 3 must be echoed."""
    def check(art: Artifact) -> str:
        levels = int(math.floor(T / LOG3 + 1e-12))
        cum, integral = 0, 0.0
        for n in range(levels + 1):
            delta = TWO_PI / 3**n
            phi = x / 3**n
            cum += (math.ceil((arc_start + arc_len - phi) / delta)
                    - math.ceil((arc_start - phi) / delta))
            v_next = (n + 1) * LOG3 if n < levels else T
            integral += cum * (math.exp(-n * LOG3) - math.exp(-v_next))
        want = integral / T
        got = art.data["cesaro"]
        need(abs(got - want) <= 1e-9 * abs(want), f"cesaro {got} vs oracle {want}")
        pred = arc_len / TWO_PI / LOG3
        need(abs(art.data["prediction"] - pred) <= 1e-9 * pred, "prediction is not m(B)/log 3")
        return f"cesaro={got:.6f} oracle={want:.6f}"
    return check


def check_bernoulli_count(art: Artifact) -> str:
    """Exact oracle for shift-count on the Bernoulli(1/2, 1/3, 1/6) shift with
    xi = 1,1,1,1 and cylinder [1]: the members are the empty word and the
    words starting with 1; a word with i, j, k letters 1, 2, 3 has the sum
    i log 2 + j log 3 + k log 6 and there are multinomial(i+j+k) of them.
    Rows with a sum within 1e-9 of t are skipped."""
    checked = 0
    for r in art.rows:
        t = r["T"]
        total, tie = 1, False
        for i in range(1, int(t / LOG2) + 2):
            for j in range(int(t / LOG3) + 2):
                for k in range(int(t / LOG6) + 2):
                    v = i * LOG2 + j * LOG3 + k * LOG6
                    tie = tie or abs(v - t) < 1e-9
                    if v <= t:
                        total += (math.factorial(i - 1 + j + k)
                                  // (math.factorial(i - 1) * math.factorial(j) * math.factorial(k)))
        if tie:
            continue
        need(r["N"] == total, f"N({t}) = {r['N']}, oracle {total}")
        checked += 1
    return f"N(T)={int(art.rows[-1]['N'])} exact on {checked} rows"


def check_kac(art: Artifact) -> str:
    """Criterion 12: Kac ratio in [0.99, 1.01]."""
    ratio = art.data["ratio"]
    need(0.99 <= ratio <= 1.01, f"kac ratio {ratio} outside [0.99, 1.01]")
    return f"ratio={ratio:.7f} cap={art.data['cap']}"


def _clt_check(variance: float, gk_tol: float, var_window: tuple | None = None):
    """The Green-Kubo variance against its closed form within gk_tol; the
    Monte-Carlo variance in var_window (criterion 6) or, by default, within
    6 standard errors sqrt(2/samples) of the Green-Kubo value; KS below the
    1e-6 Kolmogorov quantile 2.69/sqrt(samples) plus 0.005 for the finite-n
    distance to the Gaussian.

    Criterion 6's KS < 0.01 belongs to n = 4096. At n = 1024 with 1e5
    samples the z^2 KS averaged 0.0052 over 24 seeds (sampling alone gives
    0.0028) and one benchmark seed reached 0.0102, so the shorter orbits use
    the statistical bound (0.0135 there)."""
    def check(art: Artifact) -> str:
        d = art.data
        m = d["samples"]
        need(abs(d["sigma2_gk"] - variance) <= gk_tol,
             f"Green-Kubo {d['sigma2_gk']} vs closed form {variance}")
        if var_window is not None:
            need(var_window[0] <= d["sigma2_mc"] <= var_window[1],
                 f"variance {d['sigma2_mc']} outside {var_window}")
        else:
            dev = abs(d["sigma2_mc"] / d["sigma2_gk"] - 1)
            need(dev <= 6 * math.sqrt(2 / m), f"variance ratio off by {dev:.4f}")
        ks_lim = 2.69 / math.sqrt(m) + 0.005
        need(d["ks_stat"] < ks_lim, f"KS {d['ks_stat']:.4f} >= {ks_lim:.4f}")
        return f"var={d['sigma2_mc']:.4f} KS={d['ks_stat']:.4f}"
    return check


def _exact(check):
    def wrapped(art: Artifact) -> str:
        need(art.data["exact_angles"] is True, "exact iterator did not run")
        return check(art)
    return wrapped


# ---------------------------------------------------------------------------
# reference values for requests no criterion covers (recorded at the commit
# that introduced this benchmark)
# ---------------------------------------------------------------------------

REF_A09 = {1.5: (0.88235263926932639 + 0j, 0.97966964804024681)}
REF_DEG3 = {1.0: (1.0 + 0j, 0.29154759474722003),
            1 + 0.5j: (0.85474852884688091 - 0.49823350683923717j, 0.31230250389758213)}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WHY = {
    "thermo": "dense collocation assembly and power iteration (spectrum, pressure) plus the "
              "shift cylinder operator; the preimage solve sees only N*d points",
    "counting": "backward-tree enumeration: preimage batches growing from 1 to ~1e4 points, "
                "ledger queries and the pure-Python shift word DFS; no matrices",
    "parabolic": "cold boundary-orbit growth, the Kac cap re-passes and the scalar "
                 "root-finders of the induced counting tree; no circle layer",
    "clt": "the Birkhoff sampler and its SplitMix64 streams do almost all the work; "
           "the Green-Kubo step adds a small N = 512 assembly",
}


def _write_system(run_dir: str, name: str, values: dict) -> str:
    path = f"{run_dir}/{name}"
    with open(path, "w") as fh:
        json.dump({"alphabet": len(values), "incidence": "full",
                   "potential": {"depth": 1, "values": values}}, fh)
    return path


def build(workload: str, seed: int, run_dir: str) -> list[Request]:
    """The requests of one workload; system files are written to run_dir."""
    rng = random.Random(seed)
    x0 = TWO_PI * rng.random()
    a0 = TWO_PI * rng.random()
    clt_seeds = [rng.randrange(2**31) for _ in range(3)]

    if workload == "thermo":
        m = 200  # criterion 13: -2 log(n+1), calibrated to zero pressure in closed form
        shift_c = math.log(sum((n + 1) ** -2.0 for n in range(1, m + 1)))
        holder = _write_system(run_dir, "holder200.json",
                               {str(n): -2 * math.log(n + 1) - shift_c for n in range(1, m + 1)})
        return [
            Request("spectrum-a09-n2048", ("spectrum", "--map", A09, "--modes", "2048",
                                           "--s", "1.5"),
                    _spectrum_check(REF_A09)),
            Request("spectrum-deg3-n1024", ("spectrum", "--map", DEG3, "--modes", "1024",
                                            "--s", "1.0", "--s", "1+0.5j"),
                    _spectrum_check(REF_DEG3)),
            Request("pressure-fh-n512", ("pressure", "--map", FH, "--modes", "512"),
                    check_pressure),
            Request("holder-mod-m200", ("holder-mod", "--system", holder), check_holder),
        ]
    if workload == "counting":
        bern = _write_system(run_dir, "bernoulli3.json",
                             {"1": -LOG2, "2": -LOG3, "3": -LOG6})
        arc = f"{a0!r},{a0 + math.pi!r}"
        z3_arc_len = 1.0
        return [
            Request("count-fh-t12", ("count", "--map", FH, "--T", "12", "--x", repr(x0),
                                     "--arc", arc),
                    _count_ratio_check(0.10)),
            Request("count-z2-t10", ("count", "--map", Z2, "--T", "10", "--x", repr(x0)),
                    check_z2_count),
            Request("count-deg3-t10", ("count", "--map", DEG3, "--T", "10", "--x", repr(x0)),
                    _count_ratio_check(0.10)),
            Request("cesaro-z3-t40", ("cesaro", "--map", Z3, "--T", "40", "--x", repr(x0),
                                      "--arc", f"{a0!r},{a0 + z3_arc_len!r}"),
                    _cesaro_z3_check(x0, a0, z3_arc_len, 40.0)),
            Request("shift-count-bernoulli3-t11", ("shift-count", "--system", bern, "--T", "11",
                                                   "--xi", "1,1,1,1", "--cylinder", "1"),
                    check_bernoulli_count),
        ]
    if workload == "parabolic":
        return [
            Request("kac-twopole-level3", ("kac", "--map", TWO_POLE, "--level", "3"), check_kac),
            Request("parabolic-count-boole-t9",
                    ("parabolic-count", "--map", BOOLE, "--T", "9", "--x", "0.5",
                     "--interval=-1,1", "--level", "1"),
                    _count_ratio_check(0.15)),
        ]
    if workload == "clt":
        return [
            Request("clt-z2-n1024", ("clt", "--map", Z2, "--n", "1024", "--samples", "100000",
                                     "--seed", str(clt_seeds[0])),
                    _exact(_clt_check(0.5, 1e-9, (0.485, 0.515)))),
            Request("clt-z3-n512", ("clt", "--map", Z3, "--n", "512", "--samples", "20000",
                                     "--seed", str(clt_seeds[1])),
                    _exact(_clt_check(0.5, 1e-9))),
            Request("clt-fh-n1024", ("clt", "--map", FH, "--n", "1024", "--samples", "30000",
                                     "--seed", str(clt_seeds[2])),
                    _clt_check(1 / 6, 1e-6)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
