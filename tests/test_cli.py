"""CLI: artifacts, embedded configs, hashes, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import innerdyn
from innerdyn import counting, parabolic, shift, stochastic
from innerdyn.cli import main
from innerdyn.parabolic import kac_check

MONOMIAL = '{"kind":"monomial","d":2}'
FH = '{"kind":"blaschke","zeros":[[0,0],[0.5,0]],"rotation":0}'
BOOLE = '{"kind":"parabolic","poles":[[0,1]]}'


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_clark_artifact(tmp_path):
    # map config given as a @file reference
    fa = tmp_path / "fa.json"
    fa.write_text(FH)
    code, payload = run(tmp_path, "clark.json",
                        ["clark", "--map", f"@{fa}", "--alpha", "0"])
    assert code == 0
    doc = json.loads(payload)
    atoms = doc["data"]["atoms"]
    assert atoms[0][1] == pytest.approx(0.25, abs=1e-10)
    assert atoms[1][0] == pytest.approx(np.pi, abs=1e-10)
    assert atoms[1][1] == pytest.approx(0.75, abs=1e-10)
    assert doc["config"]["command"] == "clark"
    assert len(doc["hash"]) == 64


def test_count_cesaro_column(tmp_path):
    code, payload = run(tmp_path, "count.csv",
                        ["count", "--map", MONOMIAL, "--T", "30"])
    assert code == 0
    lines = payload.decode().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[2] == "T,N,N_exp_ratio,cesaro"
    last = lines[-1].split(",")
    cesaro = float(last[3])
    # frozen oracle: the exact step-function value at T = 30
    assert cesaro == pytest.approx(1.4117929852662248, rel=1e-9)


def test_count_closed_convention(tmp_path):
    argv = ["count", "--map", MONOMIAL, "--T", "8", "--grid", "16"]
    rows, configs = [], []
    for name, extra in (("open.csv", []), ("closed.csv", ["--closed"])):
        code, payload = run(tmp_path, name, argv + extra)
        assert code == 0
        lines = payload.decode().splitlines()
        configs.append(json.loads(lines[0].removeprefix("# config: ")))
        rows.append([int(ln.split(",")[1]) for ln in lines[3:]])
    assert configs[0]["strict"] is True and configs[1]["strict"] is False
    assert all(c >= o for o, c in zip(*rows)) and len(rows[1]) == 16
    # the old --strict flag only undid an earlier --closed; it is gone
    with pytest.raises(SystemExit):
        main(argv + ["--closed", "--strict", "--out", str(tmp_path / "x")])


def test_clt_artifact_small(tmp_path):
    code, payload = run(tmp_path, "clt.json",
                        ["clt", "--map", MONOMIAL, "--obs", "cos",
                         "--n", "512", "--samples", "2000", "--seed", "7"])
    assert code == 0
    doc = json.loads(payload)
    assert doc["data"]["sigma2_gk"] == pytest.approx(0.5, abs=1e-9)
    assert doc["data"]["exact_angles"] is True
    assert abs(doc["data"]["sigma2_mc"] - 0.5) < 0.1


def test_spectrum_pressure_eta_kac(tmp_path):
    code, payload = run(tmp_path, "spec.csv",
                        ["spectrum", "--map", FH, "--s", "1.0", "--modes", "128"])
    assert code == 0
    row = payload.decode().strip().splitlines()[-1].split(",")
    assert float(row[2]) == pytest.approx(1.0, abs=1e-9)

    code, payload = run(tmp_path, "pressure.json",
                        ["pressure", "--map", MONOMIAL, "--obs", "cos",
                         "--modes", "128"])
    assert code == 0
    doc = json.loads(payload)
    assert doc["data"]["ddp"] == pytest.approx(0.5, abs=1e-3)

    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "alphabet": 2, "incidence": "full",
        "potential": {"depth": 1,
                      "values": {"1": -np.log(2), "2": -np.log(2)}}}))
    code, payload = run(tmp_path, "eta.json",
                        ["eta", "--system", str(system), "--s-re", "2.0"])
    assert code == 0
    assert json.loads(payload)["data"]["eta_re"] == pytest.approx(2.0, abs=1e-10)

    code, payload = run(tmp_path, "dg.json",
                        ["d-generic", "--system", str(system)])
    assert code == 0
    doc = json.loads(payload)
    assert doc["data"]["kind"] == "lattice"
    assert doc["data"]["generator"] == pytest.approx(np.log(2), abs=1e-10)

    code, payload = run(tmp_path, "sc.csv",
                        ["shift-count", "--system", str(system), "--T", "5",
                         "--xi", "2,2,2,2", "--grid", "5"])
    assert code == 0
    assert payload.decode().strip().splitlines()[-1].split(",")[1] == "255"

    code, payload = run(tmp_path, "hm.json",
                        ["holder-mod", "--system", str(system)])
    assert code == 0
    assert json.loads(payload)["data"]["eps_fit"] > 0.9


def test_kac_and_parabolic_count(tmp_path, monkeypatch):
    code, payload = run(tmp_path, "pc.csv",
                        ["parabolic-count", "--map", BOOLE, "--T", "8",
                         "--x", "0.5", "--interval=-1,1", "--level", "1",
                         "--grid", "8"])
    assert code == 0
    last = payload.decode().strip().splitlines()[-1].split(",")
    assert 0.5 < float(last[2]) < 2.0

    reports = []

    def recorded(*args, **kwargs):
        reports.append(kac_check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(parabolic, "kac_check", recorded)
    code, payload = run(tmp_path, "kac.json",
                        ["kac", "--map", '{"kind":"parabolic","poles":[[-1,0.5],[1,0.5]]}',
                         "--level", "3"])
    assert code == 0
    # the cap trajectory is part of the payload
    assert json.loads(payload)["data"]["caps"] == reports[0].caps


def test_nevanlinna_cli(tmp_path):
    code, payload = run(tmp_path, "nev.json",
                        ["nevanlinna", "--map", FH, "--random-w", "20",
                         "--seed", "3"])
    assert code == 0
    assert json.loads(payload)["data"]["max_residual"] < 1e-8


def test_determinism_across_runs_and_threads(tmp_path):
    argv = ["clt", "--map", MONOMIAL, "--obs", "cos", "--n", "256",
            "--samples", "1000", "--seed", "42"]
    _, a = run(tmp_path, "a.json", argv)
    _, b = run(tmp_path, "b.json", argv)
    assert a == b


def test_config_roundtrip_rerun_same_hash(tmp_path):
    code, payload = run(tmp_path, "count.csv",
                        ["count", "--map", MONOMIAL, "--T", "9", "--grid", "6"])
    assert code == 0
    cfg = json.loads(payload.decode().splitlines()[0].split("# config:")[1])
    argv = ["count", "--map", json.dumps(cfg["map"]), "--T", str(cfg["T"]),
            "--x", str(cfg["x"]), "--grid", str(cfg["grid"])]
    code, payload2 = run(tmp_path, "count2.csv", argv)
    assert payload == payload2


def test_exit_codes(tmp_path):
    # unknown config fields are rejected
    assert main(["count", "--map", '{"kind":"monomial","d":2,"oops":1}',
                 "--T", "4", "--out", str(tmp_path / "x")]) == 2
    # missing seed on a stochastic command
    assert main(["clt", "--map", MONOMIAL, "--n", "8", "--samples", "8",
                 "--out", str(tmp_path / "x")]) == 2
    # malformed JSON
    assert main(["count", "--map", "{nope", "--T", "4",
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("argv", [
    ["count", "--map", "@{missing}", "--T", "4"],
    ["d-generic", "--system", "{missing}"],
    ["count", "--map", '{{"kind":"blaschke","zeros":[]}}', "--T", "4"],
], ids=["map-file", "system-file", "empty-zeros"])
def test_unreadable_or_empty_config_exits_2(tmp_path, argv, capsys):
    missing = tmp_path / "missing.json"
    argv = [a.format(missing=missing) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("n, samples", [("0", "100"), ("64", "1")])
def test_clt_degenerate_sizes_exit_2(tmp_path, n, samples):
    # a zero-length orbit or a single sample has no variance, and the NaN
    # it would write is not JSON
    out = tmp_path / "clt.json"
    assert main(["clt", "--map", MONOMIAL, "--n", n, "--samples", samples,
                 "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("map_cfg", [MONOMIAL, '{"kind":"monomial","d":1}'],
                         ids=["z2", "identity"])
@pytest.mark.parametrize("n, samples", [("0", "100"), ("64", "1")])
def test_clt_checks_sizes_before_green_kubo(tmp_path, monkeypatch, map_cfg, n, samples):
    # a refused size exits 2 without paying for the Green-Kubo assembly; on
    # the identity map that solve would raise NonDecaying (exit 3) first
    calls = []
    monkeypatch.setattr(stochastic, "green_kubo_variance",
                        lambda *a, **k: calls.append(a) or 1.0)
    assert main(["clt", "--map", map_cfg, "--n", n, "--samples", samples,
                 "--seed", "1", "--out", str(tmp_path / "clt.json")]) == 2
    assert calls == []


@pytest.mark.parametrize("argv", [
    # budget overrun (BudgetExceeded)
    ["count", "--map", FH, "--T", "25"],
    # the identity map has no spectral gap (NonDecaying from Green-Kubo)
    ["clt", "--map", '{"kind":"monomial","d":1}', "--n", "8", "--samples", "8",
     "--seed", "1"],
], ids=["budget", "non-decaying"])
def test_library_errors_exit_3(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 3


_COLD_START = """
import math, sys
import numpy as np
import innerdyn.cli
from innerdyn.parabolic import build_parabolic, lyapunov_integral
from innerdyn.stochastic import BirkhoffSample, clt_diagnostics
assert abs(lyapunov_integral(build_parabolic([(0.0, 1.0)])) - 2 * math.pi) < 1e-9
sample = BirkhoffSample(n=1, values=np.linspace(-2.0, 2.0, 101), seed=0,
                        observable="h", map_label="none", exact_angles=True)
clt_diagnostics(sample, 1.0)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cold_start_loads_no_scipy():
    # a fresh interpreter, so no other test's imports count
    src = str(Path(innerdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout[:300]


def test_unwritable_out_exits_2_before_the_work(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(counting, "enumerate_orbit", lambda *a, **k: calls.append(a))
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["count", "--map", MONOMIAL, "--T", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
    assert calls == []


@pytest.mark.parametrize("grid", ["0", "-3"])
@pytest.mark.parametrize("argv, work", [
    (["count", "--map", MONOMIAL, "--T", "4"], (counting, "enumerate_orbit")),
    (["shift-count", "--system", "{system}", "--T", "4"], (shift, "count_words")),
    (["parabolic-count", "--map", BOOLE, "--T", "4", "--x", "0.5",
      "--interval=-1,1", "--level", "1"], (parabolic, "parabolic_count")),
], ids=["count", "shift-count", "parabolic-count"])
def test_grid_below_one_exits_2_before_the_work(tmp_path, monkeypatch, capsys,
                                                grid, argv, work):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "alphabet": 2, "potential": {"values": {"1": -0.7, "2": -0.7}}}))
    calls = []
    monkeypatch.setattr(*work, lambda *a, **k: calls.append(a))
    argv = [str(system) if a == "{system}" else a for a in argv]
    assert main(argv + ["--grid", grid, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert calls == []


@pytest.mark.parametrize("interval", ["-5,5", "1,-1", "0.5,0.5"])
def test_parabolic_interval_outside_core_exits_2(tmp_path, interval):
    # at level 1 the Boole core is X = [-1, 1]
    assert main(["parabolic-count", "--map", BOOLE, "--T", "6", "--x", "0.5",
                 f"--interval={interval}", "--level", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["count", "--map", MONOMIAL, "--T", "4", "--arc", "1"], "--arc"),
    (["nevanlinna", "--map", FH, "--w", "1"], "--w"),
    (["nevanlinna", "--map", FH, "--w", "0.1,0.2,0.3"], "--w"),
    (["parabolic-count", "--map", BOOLE, "--T", "6", "--x", "0.5",
      "--interval", "1"], "--interval"),
    (["parabolic-count", "--map", BOOLE, "--T", "6", "--x", "0.5",
      "--interval", "a,1"], "--interval"),
])
def test_bad_pair_names_its_flag(tmp_path, capsys, argv, flag):
    assert main(argv + ["--out", str(tmp_path / "x.out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: bad {flag} ")
