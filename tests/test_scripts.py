"""Experiment scripts: each runs end to end on tiny arguments.

The scripts call library routines that no CLI command uses, such as
counting.asymptotic_report and parabolic.kac_check(tail_frac=...), so they
are run here in fresh interpreters, as a user would run them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import innerdyn

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(innerdyn.__file__).resolve().parents[1])

RUNS = {
    "counting_asymptotics.py": (
        ["--map", '{"kind":"blaschke","zeros":[[0,0],[0.5,0]]}', "--Tmax", "4",
         "--steps", "4", "--arc", "0,3.14159265"],
        "T,N,N_exp,prediction,ratio,cesaro", 4),
    "clt_sweep.py": (
        ["--map", '{"kind":"monomial","d":2}', "--samples", "200", "--n", "16", "32"],
        "n,ks,var_ratio,exact_angles", 2),
    "kac_sweep.py": (
        ["--map", '{"kind":"parabolic","poles":[[0,1]]}', "--levels", "2",
         "--tail-frac", "0.5"],
        "N,lhs,rhs,ratio,cap,caps,tail_fraction", 1),
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    argv, header, n_rows = RUNS[script]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr[-500:]
    lines = out.stdout.splitlines()
    assert lines[0].startswith("# map ")
    assert lines[1] == header
    assert len(lines) == 2 + n_rows
    assert all(len(ln.split(",")) == len(header.split(",")) for ln in lines[2:])
