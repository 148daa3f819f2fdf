#!/usr/bin/env python3
"""innerdyn benchmark: cold CLI requests in a closed loop with one client.

Run from the repository root::

    python3 perfbench/run.py --workload thermo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each request is one fresh ``python -m innerdyn.cli ...`` process; the next
starts only after the previous one has exited, so at most this harness and
one child are alive. Fresh processes are what a user pays for, and they keep
module-level caches cold. A pass runs every request of the workload once;
passes repeat while the next one is expected to end within ``--seconds``.
Metrics take each request's median over the passes.
Each child's wall time, CPU time and peak RSS come from ``os.wait4`` for
that child, and every artifact is checked (see workloads.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each request
untraced and then under perfbench/tracer.py and reports the per-layer
metrics, the tracing overhead, and whether the traced artifacts hash equal.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0   # stop starting children after this; a run must end within 180 s

PROBE = """
import ctypes, json, platform
import numpy, scipy
import innerdyn.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    lib = ctypes.CDLL(libs[0])
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
            break
except (OSError, IndexError):
    pass
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Deadline(Exception):
    pass


def spawn(cmd: list[str], deadline: float, stderr_path: str) -> dict:
    """Run one child to exit; wall from spawn to exit, CPU and peak RSS from wait4."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise Deadline()
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        exited = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = bool(select.select([pidfd], [], [], timeout)[0])
            finally:
                os.close(pidfd)
        finally:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)   # not reaped yet, so the pid is ours
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def run_request(req, run_dir: str, deadline: float, tag: str, spans_path: str | None) -> dict:
    out = os.path.join(run_dir, f"{tag}-{req.name}.out")
    if os.path.exists(out):
        os.remove(out)
    cli = [*req.argv, "--out", out]
    if spans_path is None:
        cmd = [sys.executable, "-m", "innerdyn.cli", *cli]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, req.name, "--", *cli]
    err_path = os.path.join(run_dir, f"{tag}-{req.name}.err")
    res = spawn(cmd, deadline, err_path)
    res.update(ok=False, hash=None, detail="")
    if res["rc"] != 0:
        with open(err_path, errors="replace") as fh:
            res["detail"] = f"exit {res['rc']}: " + " | ".join(fh.read().strip().splitlines()[-2:])
        return res
    try:
        art = workloads.read_artifact(out)
        res["hash"] = art.hash
        res["detail"] = req.check(art)
        res["ok"] = True
    except workloads.CheckFailed as e:
        res["detail"] = f"check failed: {e}"
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        res["detail"] = f"unreadable artifact: {type(e).__name__}: {e}"
    return res


def show(label: str, res: dict) -> None:
    fp = res["hash"][:16] if res["hash"] else "-"
    print(f"  {label:40s} {'ok  ' if res['ok'] else 'FAIL'} wall {res['wall']:7.3f} s  "
          f"cpu {res['cpu']:7.3f} s  rss {res['rss_mb']:6.0f} MB  hash {fp}  {res['detail']}",
          flush=True)


def measure_setup(deadline: float, run_dir: str) -> list[float]:
    """Cold `import innerdyn.cli` wall times. The machine probe, which runs
    first, has already imported the package once (and written the bytecode
    cache, where Python writes one), as any earlier use would have."""
    cmd = [sys.executable, "-c", "import innerdyn.cli"]
    err = os.path.join(run_dir, "setup.err")
    times = []
    for _ in range(SETUP_REPEATS):
        res = spawn(cmd, deadline, err)
        if res["rc"] != 0:
            raise RuntimeError("`import innerdyn.cli` failed in a fresh interpreter")
        times.append(res["wall"])
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    """One run of one workload; returns counts, metrics and the correctness flag."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    requests = workloads.build(name, seed, run_dir)
    print(f"workload {name}: {len(requests)} requests, seed {seed}, "
          f"{'traced + untraced' if trace else 'untraced'}; {workloads.WHY[name]}", flush=True)
    setup = [] if trace else measure_setup(deadline, run_dir)
    plain: dict[str, list[dict]] = {r.name: [] for r in requests}
    traced: dict[str, list[dict]] = {r.name: [] for r in requests}
    layer_passes: list[dict] = []
    hashes_match = True
    t0 = time.perf_counter()
    passes = 0
    try:
        while True:
            spans = []
            for req in requests:
                res = run_request(req, run_dir, deadline, "plain", None)
                plain[req.name].append(res)
                show(f"pass {passes + 1} {req.name}", res)
                if trace:
                    spans_path = os.path.join(run_dir, f"{req.name}.spans.json")
                    tres = run_request(req, run_dir, deadline, "traced", spans_path)
                    traced[req.name].append(tres)
                    show(f"pass {passes + 1} {req.name} (traced)", tres)
                    if res["hash"] != tres["hash"]:
                        hashes_match = False
                        print(f"  traced artifact hash differs for {req.name}", flush=True)
                    if tres["rc"] == 0:
                        with open(spans_path) as fh:
                            spans.append(json.load(fh))
            passes += 1
            if trace:
                layer_passes.append(tracer.layer_metrics(spans))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / passes > seconds:
                break
    except Deadline:
        print(f"  run limit of {RUN_LIMIT_S:.0f} s reached; remaining requests not run", flush=True)

    results = [r for rs in plain.values() for r in rs] + [r for rs in traced.values() for r in rs]
    attempted = len(results)
    failed = sum(not r["ok"] for r in results)
    correct = failed == 0 and hashes_match and attempted > 0

    def per_request(table, key, reduce=sum):
        return reduce(statistics.median(r[key] for r in rs) for rs in table.values() if rs)

    metrics = {}
    if trace:
        for metric, unit in tracer.LAYER_METRICS.items():
            middle = statistics.median if unit == "s" else statistics.median_low  # counts stay whole
            metrics[metric] = (middle(lp[metric] for lp in layer_passes) if layer_passes else 0, unit)
        overhead = (per_request(traced, "wall") - per_request(plain, "wall")) if layer_passes else 0.0
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics["wall_s"] = (per_request(plain, "wall"), "s")
        metrics["cpu_s"] = (per_request(plain, "cpu"), "s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (per_request(plain, "rss_mb", max), "MB")
        metrics["pass_frac"] = (1.0 - failed / attempted if attempted else 0.0, "ratio")
    print(f"workload {name}: {passes} pass(es) in {time.perf_counter() - started:.1f} s, "
          f"{attempted} requests, {failed} failed (fail_frac {failed / max(attempted, 1):.4f})"
          + ("" if hashes_match else ", traced hashes DIFFER"), flush=True)
    if not trace:
        print(f"  setup samples: {', '.join(f'{s:.3f}' for s in setup)} s", flush=True)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}", flush=True)
    return {"attempted": attempted, "failed": failed, "correct": correct, "metrics": metrics}


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "innerdyn")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            h.update(fn.encode())
            with open(os.path.join(pkg, fn), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_record(seed: int) -> dict:
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError("probe failed: " + (out.stderr.strip().splitlines() or [""])[-1])
    rec = {"nproc": len(os.sched_getaffinity(0))}
    rec.update(json.loads(out.stdout.strip().splitlines()[-1]))
    rec.update(commit=git_commit(), source_sha256=source_digest(), seed=seed)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WHY, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "innerdyn", "cli.py")):
        print(f"innerdyn source not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    run_dir = tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT)
    try:
        try:
            rec = machine_record(args.seed)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print(f"cannot start innerdyn: {e}", file=sys.stderr)
            return 3
        print("machine: " + json.dumps(rec), flush=True)
        names = list(workloads.WHY) if args.workload == "all" else [args.workload]
        runs = {}
        for name in names:
            try:
                runs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), run_dir)
            except RuntimeError as e:
                print(f"workload {name} could not run: {e}", file=sys.stderr)
                return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    prefix = len(names) > 1
    result = {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {(f"{n}.{m}" if prefix else m): {"value": v, "unit": u}
                    for n, r in runs.items() for m, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
