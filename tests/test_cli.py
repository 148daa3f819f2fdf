"""CLI: artifacts, embedded configs, hashes, determinism, exit codes, and the
command's hard exit."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import innerdyn
from innerdyn import blaschke, counting, parabolic, shift, stochastic
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


def _two_letter_system(tmp_path, depth, values):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "alphabet": 2, "incidence": "full",
        "potential": {"depth": depth, "values": values}}))
    return str(system)


def test_eta_off_the_real_axis_matches_closed_form(tmp_path):
    # constant potential c on the full 2-shift: eta(s) = sum_n 2^n e^{n c s}
    c = -np.log(2)
    system = _two_letter_system(tmp_path, 1, {"1": c, "2": c})
    code, payload = run(tmp_path, "eta.json", ["eta", "--system", system,
                                               "--s-re", "2", "--s-im", "0.5"])
    assert code == 0
    data = json.loads(payload)["data"]
    want = 1.0 / (1.0 - 2.0 * np.exp(c * complex(2.0, 0.5)))
    assert abs(complex(data["eta_re"], data["eta_im"]) - want) <= 1e-12
    assert data["s_im"] == 0.5


def test_eta_seed_word_reaches_the_library(tmp_path):
    # a depth-3 potential, so eta depends on the seed's first two letters
    values = {f"{a},{b},{c}": -0.5 - 0.1 * a - 0.04 * b - 0.01 * c
              for a in (1, 2) for b in (1, 2) for c in (1, 2)}
    system = _two_letter_system(tmp_path, 3, values)
    code, payload = run(tmp_path, "eta.json", ["eta", "--system", system, "--xi", "1,2,1"])
    assert code == 0
    data = json.loads(payload)["data"]
    S = shift.SymbolicSystem.full_shift(2)
    psi = shift.PotentialSpec(3, {tuple(map(int, k.split(","))): v for k, v in values.items()})
    res = shift.poincare_eta(S, psi, None, 2.0, (1, 2, 1))
    assert (data["eta_re"], data["eta_im"]) == (res.series.real, res.series.imag)
    assert res.series != shift.poincare_eta(S, psi, None, 2.0, (1, 1, 1, 1)).series


def test_holder_mod_q_reaches_the_library(tmp_path):
    values = {"1": -0.6, "2": -0.9}
    system = _two_letter_system(tmp_path, 1, values)
    code, payload = run(tmp_path, "hm.json", ["holder-mod", "--system", system, "--q", "1"])
    assert code == 0
    doc = json.loads(payload)
    S = shift.SymbolicSystem.full_shift(2)
    psi = shift.PotentialSpec(1, {(1,): -0.6, (2,): -0.9})
    C, eps = shift.holder_modulus_in_s(S, psi, 1.0)
    assert (doc["data"]["C_fit"], doc["data"]["eps_fit"]) == (C, eps)
    assert (C, eps) != shift.holder_modulus_in_s(S, psi, 0.0)
    assert doc["config"] == {"command": "holder-mod", "q": 1.0, "s0": 1.0, "radius": 0.5,
                             "seed": 0, "system": json.loads(Path(system).read_text())}


@pytest.mark.parametrize("argv", [
    ["pressure", "--map", MONOMIAL, "--step", "0.01"],
    ["kac", "--map", BOOLE, "--quad-points", "12"],
    ["d-generic", "--system", "sys.json", "--max-period", "8"],
    ["d-generic", "--system", "sys.json", "--tol", "1e-9"],
    ["holder-mod", "--system", "sys.json", "--s0", "1"],
    ["holder-mod", "--system", "sys.json", "--radius", "0.5"],
    ["holder-mod", "--system", "sys.json", "--seed", "0"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_fixed_settings_are_not_options(argv, capsys):
    # these settings are module constants; the artifact config still records them
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


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


def _rerun_argv(cfg, tmp_path):
    """The argv that the embedded config of a counting CSV describes."""
    argv = [cfg["command"], "--T", str(cfg["T"]), "--grid", str(cfg["grid"])]
    if cfg["command"] == "shift-count":
        system = tmp_path / "replayed.json"
        system.write_text(json.dumps(cfg["system"]))
        argv += ["--system", str(system), "--xi", cfg["xi"]]
        argv += [a for c in cfg["cylinders"] for a in ("--cylinder", c)]
        return argv
    argv += ["--map", json.dumps(cfg["map"]), "--x", str(cfg["x"])]
    if cfg["command"] == "parabolic-count":
        argv += [f"--interval={lo!r},{hi!r}" for lo, hi in cfg["intervals"]]
        argv += ["--level", str(cfg["level"])]
    return argv


def test_config_roundtrip_rerun_same_hash(tmp_path):
    # the config of every counting CSV reproduces its artifact, --grid included
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "alphabet": 2, "potential": {"values": {"1": -0.7, "2": -0.9}}}))
    for argv in (["count", "--map", MONOMIAL, "--T", "9", "--grid", "6"],
                 ["shift-count", "--system", str(system), "--T", "4", "--xi", "2,1",
                  "--cylinder", "1", "--grid", "5"],
                 ["parabolic-count", "--map", BOOLE, "--T", "7", "--x", "0.5",
                  "--interval=-1,1", "--level", "1", "--grid", "5"]):
        code, payload = run(tmp_path, "first.csv", argv)
        assert code == 0
        cfg = json.loads(payload.decode().splitlines()[0].split("# config:")[1])
        code, payload2 = run(tmp_path, "second.csv", _rerun_argv(cfg, tmp_path))
        assert code == 0
        assert payload == payload2, argv[0]


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


@pytest.mark.parametrize("a", [1 - 1e-6, -(1 - 1e-6)], ids=["a+", "a-"])
def test_clt_next_to_the_circle_exits_0(tmp_path, a):
    # the correlations (1/2) (-a)^n decay, slowly: sigma^2 is 2.5e-7 and
    # 1.0e6. The resolvent solve that once gave it exited 3 on both with
    # NonDecaying
    cfg = json.dumps({"kind": "blaschke", "zeros": [[0, 0], [a, 0]], "rotation": 0})
    code, payload = run(tmp_path, "clt.json", ["clt", "--map", cfg, "--obs", "cos", "--n", "256",
                                               "--samples", "1000", "--seed", "1"])
    assert code == 0
    assert json.loads(payload)["data"]["sigma2_gk"] == pytest.approx((1 - a) / (2 * (1 + a)),
                                                                     rel=1e-9)


@pytest.mark.parametrize("command", ["count", "cesaro"])
@pytest.mark.parametrize("d, T", [(2, "720"), (2, "709.5"), (3, "720")])
def test_monomial_count_past_the_double_range_exits_3(tmp_path, capsys, command, d, T):
    # more events than the largest double: the growth ratio and the Cesaro
    # average raised OverflowError (exit 1). At 709.5, 2^1023 fits but the
    # count 2^1024 - 1 of z^2 does not
    argv = [command, "--map", f'{{"kind":"monomial","d":{d}}}']
    assert main(argv + ["--T", T, "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err.startswith("BudgetExceeded:")
    assert not (tmp_path / "x").exists()
    assert main(argv + ["--T", "700", "--out", str(tmp_path / "x")]) == 0


_COLD_START = """
import math, sys
import numpy as np
import innerdyn.cli
from innerdyn.parabolic import build_parabolic, lyapunov_integral
from innerdyn.stochastic import BirkhoffSample, clt_diagnostics
assert abs(lyapunov_integral(build_parabolic([(0.0, 1.0)])) - 2 * math.pi) < 1e-9
sample = BirkhoffSample(n=1, values=np.linspace(-2.0, 2.0, 101), exact_angles=True)
clt_diagnostics(sample, 1.0)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _fresh_env() -> dict:
    """The package first on the path, and stdout block-buffered as in a plain
    shell: PYTHONUNBUFFERED would hide a missing flush."""
    src = str(Path(innerdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_cold_start_loads_no_scipy():
    # a fresh interpreter, so no other test's imports count
    out = subprocess.run([sys.executable, "-c", _COLD_START], env=_fresh_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout[:300]


def _command(argv, **kwargs):
    """`python -m innerdyn.cli argv` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "innerdyn.cli", *argv], env=_fresh_env(),
                          **kwargs)


def _env_without_blas_threads() -> dict:
    """_fresh_env() without the BLAS thread count that importing innerdyn in
    this process set."""
    env = _fresh_env()
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    return env


@pytest.mark.parametrize("given, want", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "2"}, "None"),
    ({"GOTO_NUM_THREADS": "2"}, "None"),
], ids=["unset", "caller-openblas", "caller-omp", "caller-goto"])
def test_import_runs_blas_on_one_thread_unless_the_caller_chose(given, want):
    probe = "import os, innerdyn; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    env = {**_env_without_blas_threads(), **given}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == want


# the thread count OpenBLAS itself reports, read as perfbench/run.py reads it
_BLAS_THREADS_PROBE = """
import ctypes
import innerdyn.cli
with open("/proc/self/maps") as fh:
    libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
fns = [getattr(ctypes.CDLL(lib), sym, None) for lib in libs[:1]
       for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")]
fn = next((f for f in fns if f is not None), None)
if fn is None:
    print("missing")
else:
    fn.argtypes, fn.restype = [], ctypes.c_int
    print(fn())
"""


def test_cold_cli_process_runs_openblas_on_one_thread():
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS")
    out = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE],
                         env=_env_without_blas_threads(), capture_output=True,
                         text=True, check=True)
    if out.stdout.strip() == "missing":
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count symbol")
    assert out.stdout.strip() == "1"


def test_cold_request_spends_no_cpu_in_idle_blas_workers():
    # OpenBLAS's default idle timeout spun its worker about 0.13 s per
    # process, CPU beyond the wall time of a request that runs one thread
    argv = [sys.executable, "-m", "innerdyn.cli", "count", "--map", MONOMIAL,
            "--T", "4", "--out", "-"]
    env = _env_without_blas_threads()
    excess = []
    for _ in range(3):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        assert proc.returncode == 0
        excess.append(usage.ru_utime + usage.ru_stime - wall)
    assert sorted(excess)[1] <= 0.04, excess


def test_command_writes_the_in_process_artifact(tmp_path):
    argv = ["count", "--map", MONOMIAL, "--T", "8", "--grid", "16"]
    code, want = run(tmp_path, "main.csv", argv)
    assert code == 0
    out = tmp_path / "command.csv"
    proc = _command(argv + ["--out", str(out)], capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_bytes() == want
    # the artifact fits the stdout buffer, so it arrives only if the
    # entry point flushes before its hard exit
    assert len(want) < 8192
    proc = _command(argv + ["--out", "-"], capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b"")


@pytest.mark.parametrize("argv, code, message", [
    (["count", "--map", MONOMIAL, "--T", "nan"], 2, "config error:"),
    (["clt", "--map", '{"kind":"monomial","d":1}', "--n", "8", "--samples", "8",
      "--seed", "1"], 3, "NonDecaying:"),
    (["count", "--T", "4"], 2, "the following arguments are required: --map"),
], ids=["config-error", "non-decaying", "usage"])
def test_command_exit_code_and_stderr_match_main(tmp_path, capsys, argv, code, message):
    out = tmp_path / "x.out"
    argv = argv + ["--out", str(out)]
    try:
        in_process = main(argv)
    except SystemExit as e:  # argparse
        in_process = e.code
    err = capsys.readouterr().err
    assert in_process == code and message in err
    proc = _command(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_command_reports_a_failed_flush():
    # the write to stdout is buffered and fails only at the flush, which then
    # takes the normal exit path: Python reports it, without a traceback,
    # and exits 120
    with open("/dev/full", "w") as full:
        proc = _command(["count", "--map", MONOMIAL, "--T", "8", "--out", "-"],
                        stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 120
    assert "No space left on device" in proc.stderr and "Traceback" not in proc.stderr


def test_only_the_command_and_the_sampler_child_hard_exit():
    # os._exit skips every caller's cleanup, so no library routine may call it
    found = set()
    for path in sorted(Path(innerdyn.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "_exit"
                        or isinstance(node, ast.Name) and node.id == "_exit"
                        or isinstance(node, ast.alias) and node.name == "_exit"):
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert found == {"cli.run", "stochastic._accumulate"}


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, work", [
    (["count", "--map", MONOMIAL, "--T={value}"], (counting, "enumerate_orbit")),
    (["cesaro", "--map", MONOMIAL, "--T={value}"], (counting, "enumerate_orbit")),
    (["shift-count", "--system", "{system}", "--T={value}"], (shift, "count_words")),
    (["parabolic-count", "--map", BOOLE, "--T={value}", "--x", "0.5",
      "--interval=-1,1", "--level", "1"], (parabolic, "parabolic_count")),
    (["clark", "--map", FH, "--alpha={value}"], (blaschke, "clark_measure")),
], ids=["count", "cesaro", "shift-count", "parabolic-count", "clark"])
def test_non_finite_float_flag_exits_2_before_the_work(tmp_path, monkeypatch, capsys,
                                                      value, argv, work):
    # a NaN T used to count nothing, exit 0 and embed "T":NaN, which is not JSON
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "alphabet": 2, "potential": {"values": {"1": -0.7, "2": -0.7}}}))
    calls = []
    monkeypatch.setattr(*work, lambda *a, **k: calls.append(a))
    argv = [a.replace("{system}", str(system)).replace("{value}", value) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "x.out")]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "x.out").exists()


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


@pytest.mark.parametrize("argv, system", [
    (["spectrum", "--map", '{"kind":"monomial","d":null}'], None),
    (["spectrum", "--map", '{"kind":"monomial","d":2.7}'], None),
    (["spectrum", "--map", '{"kind":"monomial","d":true}'], None),
    (["spectrum", "--map", '{"kind":"blaschke","zeros":[0,0]}'], None),
    (["kac", "--map", '{"kind":"parabolic","poles":5}'], None),
    (["d-generic", "--system", "{system}"], {"alphabet": 2, "potential": {"values": [1]}}),
    (["d-generic", "--system", "{system}"], {"alphabet": 2, "potential": 5}),
    (["d-generic", "--system", "{system}"], {"alphabet": 3, "incidence": [[1, 1], [1, 0]],
                                             "potential": {"values": {"1": -0.7, "2": -0.9}}}),
], ids=["d-null", "d-float", "d-bool", "zeros-flat", "poles-number", "values-list",
        "potential-number", "alphabet-mismatch"])
def test_malformed_config_exits_2(tmp_path, capsys, argv, system):
    # a non-integer d was truncated (2.7 to degree 2, true to 1), and an
    # alphabet that disagrees with the incidence was ignored, while the
    # artifact recorded the given value; the other cases ended in tracebacks
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    argv = [str(path) if a == "{system}" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "x.out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("depth, values", [
    (0, {"1": -0.7, "2": -0.9}),
    (2, {"1": -0.7, "2": -0.9}),
    (1, {"1": -0.7, "1,2": -0.9}),
], ids=["depth-0", "keys-shorter", "keys-mixed"])
def test_bad_potential_depth_exits_2(tmp_path, capsys, depth, values):
    # depth 0 ended in "config error: ()", a KeyError of the Birkhoff sums
    system = _two_letter_system(tmp_path, depth, values)
    assert main(["d-generic", "--system", system, "--out", str(tmp_path / "x.out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "depth" in err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["count", "--map", FH, "--T", "8", "--arc", "0,3.14159", "--arc", "0,3.14159"],
     "--arc"),
    (["count", "--map", FH, "--T", "8", "--arc", "3,1", "--arc", "0.5,2"], "--arc"),
    (["cesaro", "--map", FH, "--T", "8", "--arc", "0,3", "--arc", "2,4"], "--arc"),
    (["parabolic-count", "--map", BOOLE, "--T", "6", "--x", "0.5", "--level", "1",
      "--interval=-1,1", "--interval=-1,1"], "--interval"),
    (["parabolic-count", "--map", BOOLE, "--T", "6", "--x", "0.5", "--level", "1",
      "--interval=-1,0.5", "--interval=0,1"], "--interval"),
], ids=["count-twice", "count-wrapped", "cesaro", "parabolic-twice", "parabolic-nested"])
def test_overlapping_targets_exit_2(tmp_path, capsys, argv, flag):
    # m(B) sums the targets while the ledger counts their union, so a target
    # given twice used to halve N_exp_ratio and exit 0
    assert main(argv + ["--out", str(tmp_path / "x.out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} ") and "overlap" in err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv, split, whole", [
    (["count", "--map", FH, "--T", "8", "--grid", "1"],
     ["--arc", "3,1", "--arc", "1,3"], []),
    (["parabolic-count", "--map", BOOLE, "--T", "6", "--x", "0.5", "--level", "1",
      "--grid", "1"], ["--interval=-1,0", "--interval=0,1"], ["--interval=-1,1"]),
], ids=["count", "parabolic-count"])
def test_targets_meeting_at_an_endpoint_count_as_their_union(tmp_path, argv, split, whole):
    # a wrap-around arc is one arc, and targets that share only an endpoint
    # tile their union: two complementary arcs count the whole circle
    rows = []
    for name, targets in (("split.csv", split), ("whole.csv", whole)):
        code, payload = run(tmp_path, name, argv + targets)
        assert code == 0
        rows.append(payload.decode().splitlines()[-1].split(","))
    assert rows[0][1] == rows[1][1]
    assert float(rows[0][2]) == pytest.approx(float(rows[1][2]), rel=1e-12)
