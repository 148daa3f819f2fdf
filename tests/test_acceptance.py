"""Acceptance criteria. One test per criterion; each prints a verdict line.

Tolerances are pinned here and nowhere else. Criterion 8's Cesaro leg is
strict-xfailed: the exact step-function Cesaro at T = 30 sits 2.14 percent
below the limit (deficit exactly one unit of the integral, a 1/T effect),
so the one-percent demand is unattainable at that horizon; the companion
test pins the exact value and verifies the one-percent window at T = 80.
"""

import json
import math
import time

import numpy as np
import pytest

from innerdyn.blaschke import BlaschkeMap, clark_measure, lyapunov_exponent, nevanlinna
from innerdyn.circle import Arc, FULL_CIRCLE, circle_grid
from innerdyn.cli import main
from innerdyn.coding import build_partition
from innerdyn.counting import coded_count, enumerate_orbit, ratio_amplitude
from innerdyn.observables import COS
from innerdyn.parabolic import (build_parabolic, induced_cycle_multipliers,
                                kac_check, lyapunov_integral, parabolic_count)
from innerdyn.rng import uniform_stream
from innerdyn.shift import (PotentialSpec, SymbolicSystem, calibrate,
                            d_genericity, holder_modulus_in_s, lattice_verdict,
                            poincare_eta, pressure_derivs_shift)
from innerdyn.stochastic import birkhoff_samples, clt_diagnostics, green_kubo_variance
from innerdyn.spectral import leading_spectral_data
from innerdyn.transfer import assemble_operator, circle_spectrum, pressure_and_derivs

LOG2 = math.log(2)
F2 = BlaschkeMap.monomial(2)
F3 = BlaschkeMap.monomial(3)
FH = BlaschkeMap((0j, 0.5 + 0j))
BOOLE = build_parabolic([(0.0, 1.0)])


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_spectral_identity():
    t0 = time.perf_counter()
    worst_lam, worst_res = 0.0, 0.0
    for F in (F2, F3, FH):
        data = leading_spectral_data(assemble_operator(F, 1.0, None, 256).matrix)
        worst_lam = max(worst_lam, abs(data.lam - 1.0))
        worst_res = max(worst_res, data.residual)
    dt = time.perf_counter() - t0
    verdict(1, worst_lam < 1e-10 and worst_res < 1e-8 and dt < 5.0,
            f"|lam-1| <= {worst_lam:.2e}, residual <= {worst_res:.2e}, {dt:.2f}s")


def test_criterion_02_linearizer_spectrum():
    worst = 0.0
    for a in (0.3, 0.5, 0.9):
        F = BlaschkeMap((0j, a + 0j))
        sub = circle_spectrum(F, 1.0, None, 256).gap
        worst = max(worst, abs(sub - a))
    verdict(2, worst <= 1e-3, f"max |lambda_2 - a| = {worst:.2e}")


def test_criterion_03_clark_disintegration():
    cm = clark_measure(FH, 0.0)
    mass_err = max(abs(cm.masses[0] - 0.25), abs(cm.masses[1] - 0.75))
    alphas = circle_grid(1024)
    worst = 0.0
    fibers = [clark_measure(FH, a) for a in alphas]
    for n in range(-16, 17):
        avg = np.mean([f.fourier(n) for f in fibers])
        want = 1.0 if n == 0 else 0.0
        worst = max(worst, abs(avg - want))
    verdict(3, mass_err < 1e-10 and worst < 1e-8,
            f"mass error {mass_err:.2e}, disintegration residual {worst:.2e}")


def test_criterion_04_nevanlinna_identity():
    worst = 0.0
    u = uniform_stream(2026, 200)
    for F in (F2, FH, F3):
        for i in range(100):
            w = (0.05 + 0.9 * u[2 * i]) * np.exp(2j * np.pi * u[2 * i + 1])
            worst = max(worst, abs(nevanlinna(F, w) - math.log(1 / abs(w))))
    verdict(4, worst < 1e-8, f"max identity residual {worst:.2e} over 300 points")


def test_criterion_05_pressure_derivatives():
    worst1 = worst2 = 0.0
    for F in (F2, FH):
        rep = pressure_and_derivs(F, COS)
        worst1 = max(worst1, abs(rep.dp - rep.mean_prediction))
        worst2 = max(worst2, abs(rep.ddp - green_kubo_variance(F, COS)))
    S3 = SymbolicSystem.full_shift(3)
    psi3 = PotentialSpec.from_letter_values(
        S3, {1: -LOG2, 2: -math.log(3), 3: -math.log(6)})
    srep = pressure_derivs_shift(S3, psi3)
    shift_err = abs(srep.dp - srep.mean_integral)
    verdict(5, worst1 < 1e-6 and worst2 < 1e-3 and shift_err < 1e-8,
            f"|P'-mean| {worst1:.2e}, |P''-GK| {worst2:.2e}, shift {shift_err:.2e}")


def test_criterion_06_clt_exact_iterator():
    t0 = time.perf_counter()
    sample = birkhoff_samples(F2, COS, 4096, 100000, seed=7)
    assert sample.exact_angles
    ks, ratio = clt_diagnostics(sample, 0.5)
    var = 0.5 * ratio
    dt = time.perf_counter() - t0
    verdict(6, 0.485 <= var <= 0.515 and ks < 0.01 and dt < 120.0,
            f"variance {var:.4f}, KS {ks:.4f}, {dt:.1f}s")


def test_criterion_07_counting_generic():
    lam = lyapunov_exponent(FH)
    t0 = time.perf_counter()
    led = enumerate_orbit(FH, 0.0, 12.0)
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    results = []
    for arcs, mb in (([FULL_CIRCLE], 1.0), ([Arc.from_endpoints(0.0, np.pi)], 0.5)):
        sub = led.restricted(arcs)
        ratio = sub.count(12.0, strict=False) * math.exp(-12.0) / (mb / lam)
        ces = sub.cesaro_average(12.0) / (mb / lam)
        results.append((ratio, ces))
        ok = ok and abs(ratio - 1.0) <= 0.10 and abs(ces - 1.0) <= 0.05
    # determinism across runs: identical integers
    t1 = time.perf_counter()
    led2 = enumerate_orbit(FH, 0.0, 12.0)
    dt2 = time.perf_counter() - t1
    same = all(led.count(t, strict=False) == led2.count(t, strict=False)
               for t in np.linspace(1, 12, 23))
    ok = ok and same and dt2 < 20.0
    verdict(7, ok, f"ratios {results}, {dt:.1f}s / {dt2:.1f}s, identical={same}")


def test_criterion_08_lattice_amplitude():
    led = enumerate_orbit(F2, 0.3, 30.0)
    amp = ratio_amplitude(led, LOG2, 1.0, 20.0, 30.0)
    verdict(8, amp >= 0.2, f"lattice ratio amplitude {amp:.3f} over T in [20, 30]")


@pytest.mark.xfail(strict=True, reason=(
    "exact Cesaro of the z^2 step function at T = 30 equals "
    "(K - 1 + partial)/T with K = floor(T/log 2): 1.41179, which is 2.14 "
    "percent below 1/log 2; the one-percent window is reached only near "
    "T = 72, so the criterion as stated cannot pass at T = 30"))
def test_criterion_08_cesaro_leg_as_specified():
    led = enumerate_orbit(F2, 0.3, 30.0)
    ces = led.cesaro_average(30.0)
    verdict("8c", abs(ces * LOG2 - 1.0) <= 0.01,
            f"cesaro {ces:.5f} vs 1/log2 {1 / LOG2:.5f}")


def test_criterion_08_cesaro_exact_value_and_limit():
    led = enumerate_orbit(F2, 0.3, 30.0)
    ces = led.cesaro_average(30.0)
    # frozen exact oracle at T = 30 and the 1-percent window at T = 80
    ok = abs(ces - 1.4117929852662248) < 1e-12
    ces80 = enumerate_orbit(F2, 0.3, 80.0).cesaro_average(80.0)
    ok = ok and abs(ces80 * LOG2 - 1.0) <= 0.01
    verdict("8b", ok, f"cesaro(30) = {ces:.6f} (exact), "
                      f"cesaro(80)*log2 = {ces80 * LOG2:.4f}")


def test_criterion_09_counting_oracle_equivalence():
    P = build_partition(FH, 0.0)
    ok = True
    for seed in (0.3, 1.1, 2.7):
        le = enumerate_orbit(FH, seed, 10.0)
        lc = coded_count(P, seed, 10.0, [])
        for t in np.linspace(0.25, 10.0, 40):
            ok = ok and le.count(t, strict=False) == lc.count(t, strict=False)
        ok = ok and le.total == lc.total
    verdict(9, ok, "integer-exact agreement for 3 seeds, T grid up to 10")


def test_criterion_10_poincare_series():
    S2 = SymbolicSystem.full_shift(2)
    psi = PotentialSpec.constant(S2, -LOG2)
    eta2 = poincare_eta(S2, psi, None, 2.0, (1, 1)).series
    ok = abs(eta2 - 2.0) <= 1e-12
    resids = []
    for k in (1, 2, 3, 4):
        s = 1 + 10.0 ** (-k)
        val = poincare_eta(S2, psi, None, s, (1, 1)).series.real
        resids.append(abs((s - 1) * val * LOG2 - 1))
    ok = ok and all(b < a for a, b in zip(resids, resids[1:])) and resids[-1] < 0.02
    verdict(10, ok, f"eta(2) err {abs(eta2 - 2):.1e}, residue seq {np.round(resids, 5)}")


def test_criterion_11_d_genericity():
    S2 = SymbolicSystem.full_shift(2)
    v1 = d_genericity(S2, PotentialSpec.constant(S2, -LOG2))
    S3 = SymbolicSystem.full_shift(3)
    v2 = d_genericity(S3, PotentialSpec.from_letter_values(
        S3, {1: -LOG2, 2: -math.log(3), 3: -math.log(6)}))
    L = induced_cycle_multipliers(BOOLE, range(2, 8))
    v3 = lattice_verdict(L)
    ok = (v1.is_lattice and v1.generator == pytest.approx(LOG2, abs=1e-9)
          and v2.kind == "generic" and v3.kind == "generic")
    verdict(11, ok, f"z^2 lattice a={v1.generator:.6f}, bernoulli {v2.kind}, "
                    f"induced {v3.kind}")


def test_criterion_12_parabolic_suite():
    t0 = time.perf_counter()
    quad_err = abs(lyapunov_integral(BOOLE) - 2 * math.pi)
    ok = quad_err < 1e-6
    ratios = []
    for N in (5, 10):
        rep = kac_check(BOOLE, N)           # strict 1-percent tail budget
        ratios.append(rep.ratio)
        ok = ok and 0.99 <= rep.ratio <= 1.01
    led = parabolic_count(BOOLE, 0.5, 11.0, [(-1.0, 1.0)], N=1)
    pred = 2.0 / lyapunov_integral(BOOLE)
    cratio = led.count(11.0, strict=False) * math.exp(-11.0) / pred
    ok = ok and abs(cratio - 1.0) <= 0.15
    dt = time.perf_counter() - t0
    ok = ok and dt < 180.0
    verdict(12, ok, f"quad err {quad_err:.1e}, kac ratios {np.round(ratios, 6)}, "
                    f"count ratio {cratio:.4f}, {dt:.0f}s")


def test_criterion_13_modulus_of_continuity():
    m = 200
    S = SymbolicSystem.full_shift(m)
    psi = calibrate(S, PotentialSpec(
        1, {(n,): -2 * math.log(n + 1) for n in range(1, m + 1)},
        alpha=1.0))
    C0, eps0 = holder_modulus_in_s(S, psi, 0.0)
    C1, eps1 = holder_modulus_in_s(S, psi, 1.0)
    ok = eps0 >= 0.45 and np.isfinite(C1) and C1 > 0
    verdict(13, ok, f"eps(q=0) = {eps0:.3f} (>= 0.45), C(q=1) = {C1:.3f}")


def test_criterion_14_artifact_determinism(tmp_path):
    runs = [
        ("spectrum.csv", ["spectrum", "--map",
                          '{"kind":"blaschke","zeros":[[0,0],[0.5,0]],"rotation":0}',
                          "--s", "1.0", "--modes", "128"]),
        ("pressure.json", ["pressure", "--map", '{"kind":"monomial","d":2}',
                           "--obs", "cos", "--modes", "128"]),
        ("count.csv", ["count", "--map", '{"kind":"monomial","d":2}',
                       "--T", "12", "--grid", "12"]),
        ("cesaro.json", ["cesaro", "--map", '{"kind":"monomial","d":2}',
                         "--T", "30"]),
        ("clt.json", ["clt", "--map", '{"kind":"monomial","d":2}', "--obs",
                      "cos", "--n", "512", "--samples", "4000", "--seed", "7"]),
        ("clark.json", ["clark", "--map",
                        '{"kind":"blaschke","zeros":[[0,0],[0.5,0]],"rotation":0}',
                        "--alpha", "0"]),
        ("nev.json", ["nevanlinna", "--map", '{"kind":"monomial","d":2}',
                      "--random-w", "10", "--seed", "5"]),
        ("kac.json", ["kac", "--map", '{"kind":"parabolic","poles":[[0,1]]}',
                      "--level", "2"]),
        ("pcount.csv", ["parabolic-count", "--map",
                        '{"kind":"parabolic","poles":[[0,1]]}', "--T", "7",
                        "--x", "0.5", "--interval=-1,1", "--level", "1",
                        "--grid", "6"]),
    ]
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "alphabet": 2, "incidence": "full",
        "potential": {"depth": 1, "values": {"1": -LOG2, "2": -LOG2}}}))
    runs += [
        ("shift.csv", ["shift-count", "--system", str(system), "--T", "6",
                       "--xi", "2,2,2", "--grid", "6"]),
        ("dg.json", ["d-generic", "--system", str(system)]),
        ("eta.json", ["eta", "--system", str(system), "--s-re", "2.0"]),
        ("hm.json", ["holder-mod", "--system", str(system)]),
    ]
    ok = True
    for name, argv in runs:
        payloads = []
        for attempt in ("1", "2"):
            out = tmp_path / f"{attempt}_{name}"
            code = main(argv + ["--out", str(out)])
            assert code == 0, f"{name} failed on run {attempt}"
            payloads.append(out.read_bytes())
        ok = ok and payloads[0] == payloads[1]
    verdict(14, ok, f"{len(runs)} artifact kinds byte-identical across two runs")
