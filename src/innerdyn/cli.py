"""Command-line experiment runner.

Every subcommand validates its configuration, runs a deterministic
computation, and emits a CSV or JSON artifact embedding the full effective
configuration and a content hash, so any artifact can be reproduced and
checked byte for byte. Exit codes: 0 success, 2 configuration error,
3 budget or convergence failure.

`main(argv)` returns the exit code, for callers in the same process; `run()`
is the command (`innerdyn`, `python -m innerdyn.cli`), which ends the
process without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import (blaschke, coding, counting, observables, parabolic, shift, stochastic,
               transfer)
from .circle import Arc, arcs_measure
from .errors import ConfigError, InnerdynError
from .rng import uniform_stream


def fmt(x) -> str:
    """17 significant digits: exact round trip for 64-bit floats."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _content_hash(config: dict, payload: str) -> str:
    h = hashlib.sha256()
    h.update(_canonical(config).encode())
    h.update(payload.encode())
    return h.hexdigest()


def write_csv(path, config: dict, header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    payload = "\n".join(lines) + "\n"
    digest = _content_hash(config, payload)
    text = (f"# config: {_canonical(config)}\n"
            f"# hash: {digest}\n") + payload
    _write(path, text)
    return digest


def write_json(path, config: dict, data: dict) -> str:
    payload = _canonical(data)
    digest = _content_hash(config, payload)
    text = json.dumps({"config": config, "data": data, "hash": digest},
                      sort_keys=True, indent=1) + "\n"
    _write(path, text)
    return digest


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e.strerror}") from None


def load_map_config(spec: str) -> dict:
    if spec.startswith("@"):
        cfg = _read_json(spec[1:])
    else:
        try:
            cfg = json.loads(spec)
        except json.JSONDecodeError as e:
            raise ConfigError(f"map config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("map config must be an object with a 'kind' field")
    return cfg


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _integer(value, key: str) -> int:
    """value as an int; a float or a bool would be truncated silently."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def _number(value, key: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number, got {json.dumps(value)}")
    return float(value)


def _number_pairs(value, key: str) -> list[tuple[float, float]]:
    if not (isinstance(value, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in value)):
        raise ConfigError(f"{key} must be a list of [number, number] pairs, "
                          f"got {json.dumps(value)}")
    return [(float(a), float(b)) for a, b in value]


def build_circle_map(cfg: dict) -> blaschke.BlaschkeMap:
    kind = cfg.get("kind")
    if kind == "monomial":
        allowed = {"kind", "d", "rotation"}
        _reject_unknown(cfg, allowed)
        return blaschke.BlaschkeMap.monomial(_integer(cfg["d"], "d"),
                                             _number(cfg.get("rotation", 0.0), "rotation"))
    if kind == "blaschke":
        allowed = {"kind", "zeros", "rotation"}
        _reject_unknown(cfg, allowed)
        zeros = [complex(re, im) for re, im in _number_pairs(cfg["zeros"], "zeros")]
        if not zeros or zeros[0] != 0:
            raise ConfigError("zeros must be a nonempty list with zeros[0] = [0,0]")
        return blaschke.BlaschkeMap(tuple(zeros), _number(cfg.get("rotation", 0.0), "rotation"))
    raise ConfigError(f"not a circle map kind: {kind!r}")


def build_parabolic_map(cfg: dict) -> parabolic.ParabolicMap:
    if cfg.get("kind") != "parabolic":
        raise ConfigError(f"not a parabolic map kind: {cfg.get('kind')!r}")
    _reject_unknown(cfg, {"kind", "poles", "translation"})
    return parabolic.build_parabolic(_number_pairs(cfg["poles"], "poles"),
                                     _number(cfg.get("translation", 0.0), "translation"))


def load_symbolic_system(path: str):
    """(config, system, potential) from a system config file."""
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("system config must be an object")
    _reject_unknown(cfg, {"alphabet", "incidence", "potential"})
    m = _integer(cfg["alphabet"], "alphabet")
    inc = cfg.get("incidence", "full")
    if inc == "full":
        S = shift.SymbolicSystem.full_shift(m)
    else:
        S = shift.SymbolicSystem(np.array(inc, dtype=np.uint8))
        if S.alphabet_size != m:
            raise ConfigError(f"alphabet {m} does not match the "
                              f"{S.alphabet_size}-letter incidence")
    pot = cfg.get("potential")
    if not isinstance(pot, dict):
        raise ConfigError("system config needs a potential object")
    _reject_unknown(pot, {"depth", "values", "alpha"})
    if not isinstance(pot["values"], dict):
        raise ConfigError(f"potential values must be an object, got {json.dumps(pot['values'])}")
    values = {coding.word_from_str(k): _number(v, f"value of {k!r}")
              for k, v in pot["values"].items()}
    return cfg, S, shift.PotentialSpec(_integer(pot.get("depth", 1), "depth"), values,
                                       alpha=_number(pot.get("alpha", 1.0), "alpha"))


def _reject_unknown(cfg: dict, allowed: set):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")


def _parse_pairs(flag: str, specs) -> list[tuple[float, float]]:
    """The 'a,b' values of a repeatable flag as float pairs."""
    pairs = []
    for spec in specs or []:
        try:
            a, b = (float(tok) for tok in spec.split(","))
        except ValueError:
            raise ConfigError(f"bad {flag} {spec!r}; expected 'a,b'") from None
        pairs.append((a, b))
    return pairs


def _refuse_overlap(flag: str, specs, overlap):
    """ConfigError when two targets overlap(i, j) in more than an endpoint:
    m(B) is the sum of the target measures, while a ledger counts their union."""
    for j in range(len(specs)):
        for i in range(j):
            if overlap(i, j):
                raise ConfigError(f"{flag} {specs[i]!r} and {specs[j]!r} overlap; "
                                  "give disjoint targets")


def _parse_arcs(arc_args) -> list[Arc]:
    arcs = [Arc.from_endpoints(a, b) for a, b in _parse_pairs("--arc", arc_args)]
    # half-open arcs meet iff one holds the start of the other
    _refuse_overlap("--arc", arc_args or [], lambda i, j: arcs[i].contains(arcs[j].start)
                    or arcs[j].contains(arcs[i].start))
    return arcs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args):
    cfg = load_map_config(args.map)
    F = build_circle_map(cfg)
    svals = [complex(s) for s in (args.s or ["1.0"])]
    rows = []
    for s in svals:
        M = transfer.assemble_operator(F, s, None, args.modes).matrix
        data = transfer.circle_spectrum(F, s, None, M)
        rows.append((s.real, s.imag, data.lam.real, data.lam.imag,
                     data.gap, data.gap_bound, data.residual))
        del M  # free this operator before the next one is assembled
    config = {"command": "spectrum", "map": cfg, "modes": args.modes,
              "s": [[s.real, s.imag] for s in svals]}
    write_csv(args.out, config, ["s_re", "s_im", "lambda_re", "lambda_im", "gap",
                                 "gap_bound", "residual"], rows)
    return 0


def cmd_pressure(args):
    cfg = load_map_config(args.map)
    F = build_circle_map(cfg)
    g = observables.get_observable(args.obs)
    rep = transfer.pressure_and_derivs(F, g, N=args.modes)
    config = {"command": "pressure", "map": cfg, "obs": args.obs,
              "step": transfer._PRESSURE_STEP, "modes": args.modes}
    write_json(args.out, config, {
        "p0": rep.p0, "dp": rep.dp, "ddp": rep.ddp,
        "mean_prediction": rep.mean_prediction,
        "variance_prediction": rep.variance_prediction,
        "min_gap": rep.min_gap})
    return 0


def cmd_count(args):
    cfg = load_map_config(args.map)
    F = build_circle_map(cfg)
    lam = blaschke.lyapunov_exponent(F)
    arcs = _parse_arcs(args.arc)
    strict = not args.closed
    led = counting.enumerate_orbit(F, args.x, args.T)
    sub = led.restricted(arcs) if arcs else led
    mB = arcs_measure(arcs) if arcs else 1.0
    grid = np.linspace(max(args.T / args.grid, 1e-6), args.T, args.grid)
    rows = []
    for t in grid:
        N = sub.count(t, strict=strict)
        rows.append((t, N, N * np.exp(-t) * lam / mB,
                     sub.cesaro_average(t)))
    config = {"command": "count", "map": cfg, "T": args.T, "x": args.x,
              "arcs": [[a.start, a.end] for a in arcs],
              "strict": strict, "grid": args.grid}
    write_csv(args.out, config, ["T", "N", "N_exp_ratio", "cesaro"], rows)
    return 0


def cmd_cesaro(args):
    cfg = load_map_config(args.map)
    F = build_circle_map(cfg)
    lam = blaschke.lyapunov_exponent(F)
    arcs = _parse_arcs(args.arc)
    led = counting.enumerate_orbit(F, args.x, args.T)
    sub = led.restricted(arcs) if arcs else led
    mB = arcs_measure(arcs) if arcs else 1.0
    value = sub.cesaro_average(args.T)
    config = {"command": "cesaro", "map": cfg, "T": args.T, "x": args.x,
              "arcs": [[a.start, a.end] for a in arcs]}
    write_json(args.out, config, {"T": args.T, "cesaro": value,
                                  "prediction": mB / lam})
    return 0


def cmd_clt(args):
    if args.seed is None:
        raise ConfigError("--seed is mandatory for stochastic commands")
    stochastic.check_sample_size(args.n, args.samples)
    cfg = load_map_config(args.map)
    F = build_circle_map(cfg)
    h = observables.get_observable(args.obs)
    sigma2_gk = stochastic.green_kubo_variance(F, h)
    sample = stochastic.birkhoff_samples(F, h, args.n, args.samples, args.seed)
    ks, ratio = stochastic.clt_diagnostics(sample, sigma2_gk)
    config = {"command": "clt", "map": cfg, "obs": args.obs, "n": args.n,
              "samples": args.samples, "seed": args.seed}
    write_json(args.out, config, {
        "n": args.n, "samples": args.samples, "seed": args.seed,
        "sigma2_gk": sigma2_gk,
        "sigma2_mc": ratio * sigma2_gk,
        "ks_stat": ks,
        "exact_angles": sample.exact_angles})
    return 0


def cmd_clark(args):
    cfg = load_map_config(args.map)
    F = build_circle_map(cfg)
    cm = blaschke.clark_measure(F, args.alpha)
    config = {"command": "clark", "map": cfg, "alpha": args.alpha}
    write_json(args.out, config, {
        "atoms": [[float(t), float(m)] for t, m in zip(cm.locations, cm.masses)],
        "total_mass": cm.total_mass})
    return 0


def cmd_nevanlinna(args):
    cfg = load_map_config(args.map)
    F = build_circle_map(cfg)
    ws = [complex(re_, im_) for re_, im_ in _parse_pairs("--w", args.w)]
    if args.random_w:
        if args.seed is None:
            raise ConfigError("--seed required with --random-w")
        u = uniform_stream(args.seed, 2 * args.random_w)
        radii = 0.05 + 0.9 * u[::2]
        angles = 2 * np.pi * u[1::2]
        ws.extend(complex(r * np.cos(t), r * np.sin(t))
                  for r, t in zip(radii, angles))
    if not ws:
        raise ConfigError("give at least one --w or --random-w")
    rows = []
    worst = 0.0
    for w in ws:
        val = blaschke.nevanlinna(F, w)
        resid = abs(val - np.log(1.0 / abs(w)))
        worst = max(worst, resid)
        rows.append((w.real, w.imag, val, resid))
    config = {"command": "nevanlinna", "map": cfg,
              "w": [[w.real, w.imag] for w in ws], "seed": args.seed}
    write_json(args.out, config, {
        "points": [[a, b, c, d] for a, b, c, d in rows],
        "max_residual": worst})
    return 0


def cmd_shift_count(args):
    cfg, S, psi = load_symbolic_system(args.system)
    xi = coding.word_from_str(args.xi)
    B = [coding.word_from_str(tok) for tok in (args.cylinder or [])]
    led = shift.count_words(S, psi, xi, args.T, B=B)
    grid = np.linspace(max(args.T / args.grid, 1e-6), args.T, args.grid)
    rows = [(t, led.count(t, strict=False)) for t in grid]
    config = {"command": "shift-count", "system": cfg, "T": args.T,
              "xi": args.xi, "cylinders": args.cylinder or [], "grid": args.grid}
    write_csv(args.out, config, ["T", "N"], rows)
    return 0


def cmd_d_generic(args):
    cfg, S, psi = load_symbolic_system(args.system)
    verdict = shift.d_genericity(S, psi)
    config = {"command": "d-generic", "system": cfg,
              "max_period": shift._MAX_PERIOD, "tol": shift._LATTICE_TOL}
    write_json(args.out, config, {
        "kind": verdict.kind,
        "generator": verdict.generator,
        "periods_scanned": shift._MAX_PERIOD,
        "n_values": verdict.n_values})
    return 0


def cmd_eta(args):
    cfg, S, psi = load_symbolic_system(args.system)
    xi = coding.word_from_str(args.xi)
    s = complex(args.s_re, args.s_im)
    res = shift.poincare_eta(S, psi, None, s, xi)
    config = {"command": "eta", "system": cfg, "s": [s.real, s.imag],
              "xi": args.xi}
    write_json(args.out, config, {
        "s_re": s.real, "s_im": s.imag,
        "eta_re": res.series.real, "eta_im": res.series.imag,
        "resolvent_re": res.resolvent.real, "resolvent_im": res.resolvent.imag,
        "agreement": res.agreement, "terms": res.terms})
    return 0


def cmd_kac(args):
    cfg = load_map_config(args.map)
    P = build_parabolic_map(cfg)
    rep = parabolic.kac_check(P, args.level)
    config = {"command": "kac", "map": cfg, "level": args.level,
              "quad_points": parabolic._KAC_QUAD_POINTS}
    write_json(args.out, config, {
        "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio,
        "cap": rep.cap, "caps": rep.caps, "tail_estimate": rep.tail_estimate,
        "tail_fraction": rep.tail_fraction})
    return 0


def cmd_parabolic_count(args):
    cfg = load_map_config(args.map)
    P = build_parabolic_map(cfg)
    B = _parse_pairs("--interval", args.interval)
    if not B:
        raise ConfigError("give at least one --interval lo,hi")
    _refuse_overlap("--interval", args.interval,
                    lambda i, j: max(B[i][0], B[j][0]) < min(B[i][1], B[j][1]))
    led = parabolic.parabolic_count(P, args.x, args.T, B, N=args.level)
    rhs = parabolic.lyapunov_integral(P)
    mB = sum(hi - lo for lo, hi in B)
    grid = np.linspace(max(args.T / args.grid, 1e-6), args.T, args.grid)
    rows = []
    for t in grid:
        N = led.count(t, strict=False)
        rows.append((t, N, N * np.exp(-t) * rhs / mB, led.cesaro_average(t)))
    config = {"command": "parabolic-count", "map": cfg, "T": args.T,
              "x": args.x, "intervals": B, "level": args.level, "grid": args.grid}
    write_csv(args.out, config, ["T", "N", "N_exp_ratio", "cesaro"], rows)
    return 0


def cmd_holder_mod(args):
    cfg, S, psi = load_symbolic_system(args.system)
    C, eps = shift.holder_modulus_in_s(S, psi, args.q)
    config = {"command": "holder-mod", "system": cfg, "q": args.q,
              "s0": shift._HOLDER_S0, "radius": shift._HOLDER_RADIUS,
              "seed": shift._HOLDER_SEED}
    write_json(args.out, config, {"C_fit": C, "eps_fit": eps})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="innerdyn",
        description="Transfer-operator spectra, orbit counting and stochastic "
                    "diagnostics for expanding circle maps, symbolic shifts "
                    "and parabolic interval maps.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        q = sub.add_parser(name, help=help_)
        q.add_argument("--out", default="-", help="output path ('-' = stdout)")
        q.set_defaults(fn=fn)
        return q

    q = add("spectrum", cmd_spectrum,
            "leading transfer-operator eigenvalue, gap and residual per s")
    q.add_argument("--map", required=True)
    q.add_argument("--s", action="append")
    q.add_argument("--modes", type=int, default=256)

    q = add("pressure", cmd_pressure,
            "pressure curve: P'(0) vs the observable mean, P''(0) vs the "
            "Green-Kubo variance")
    q.add_argument("--map", required=True)
    q.add_argument("--obs", default="cos")
    q.add_argument("--modes", type=int, default=256)

    q = add("count", cmd_count,
            "backward-orbit counting: N(T), the e^T growth law and its "
            "Cesaro average")
    q.add_argument("--map", required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--x", type=float, default=0.0)
    q.add_argument("--arc", action="append",
                   help="restrict to arc 'a,b' (repeatable)")
    q.add_argument("--closed", action="store_true",
                   help="count events with value <= T instead of < T")
    q.add_argument("--grid", type=int, default=48)

    q = add("cesaro", cmd_cesaro, "exponentially weighted Cesaro counting average")
    q.add_argument("--map", required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--x", type=float, default=0.0)
    q.add_argument("--arc", action="append")

    q = add("clt", cmd_clt,
            "Monte-Carlo central-limit diagnostics against the Green-Kubo "
            "variance")
    q.add_argument("--map", required=True)
    q.add_argument("--obs", default="cos")
    q.add_argument("--n", type=int, default=4096)
    q.add_argument("--samples", type=int, default=100000)
    q.add_argument("--seed", type=int, default=None)

    q = add("clark", cmd_clark, "atoms and masses of a Clark measure")
    q.add_argument("--map", required=True)
    q.add_argument("--alpha", type=float, default=0.0)

    q = add("nevanlinna", cmd_nevanlinna,
            "counting-function identity sum log 1/|preimage| = log 1/|w|")
    q.add_argument("--map", required=True)
    q.add_argument("--w", action="append", help="point 're,im' (repeatable)")
    q.add_argument("--random-w", type=int, default=0)
    q.add_argument("--seed", type=int, default=None)

    q = add("shift-count", cmd_shift_count,
            "exact word counting on a symbolic system (ledger CSV)")
    q.add_argument("--system", required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--xi", default="1,1,1,1")
    q.add_argument("--cylinder", action="append")
    q.add_argument("--grid", type=int, default=48)

    q = add("d-generic", cmd_d_generic,
            "lattice-or-generic verdict from periodic Birkhoff values")
    q.add_argument("--system", required=True)

    q = add("eta", cmd_eta,
            "Poincare series at s by operator partial sums and resolvent")
    q.add_argument("--system", required=True)
    q.add_argument("--s-re", type=float, default=2.0)
    q.add_argument("--s-im", type=float, default=0.0)
    q.add_argument("--xi", default="1,1,1,1")

    q = add("kac", cmd_kac,
            "first-return Lyapunov identity on the core interval")
    q.add_argument("--map", required=True)
    q.add_argument("--level", type=int, default=5)

    q = add("parabolic-count", cmd_parabolic_count,
            "orbit counting for the induced first-return system")
    q.add_argument("--map", required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--interval", action="append", help="target 'lo,hi' (repeatable)")
    q.add_argument("--level", type=int, default=None)
    q.add_argument("--grid", type=int, default=48)

    q = add("holder-mod", cmd_holder_mod,
            "empirical continuity modulus of s -> L_{s,q} on the critical line")
    q.add_argument("--system", required=True)
    q.add_argument("--q", type=float, default=0.0)

    return p


def _check_request(args):
    """Refuse a non-finite float flag, a --grid below 1 and an unwritable
    --out before any work."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "grid", 1) < 1:
        raise ConfigError(f"--grid must be at least 1, got {args.grid}")
    folder = os.path.dirname(os.path.abspath(args.out))
    if args.out != "-" and (os.path.isdir(args.out) or not os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write --out {args.out!r}")


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_request(args)
        return args.fn(args)
    except (ConfigError, KeyError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InnerdynError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3


def run():
    """main() on sys.argv, then a flush and a hard exit with its code.

    Every artifact is written and closed, and the Birkhoff worker reaped,
    before main() returns, so finalising numpy and the package, a sizeable
    share of a short request, changes no output and is skipped. A SystemExit
    from argparse (usage errors, --help), any exception and a failed flush
    take the normal exit path, which reports them as before.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
