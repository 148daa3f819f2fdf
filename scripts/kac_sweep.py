#!/usr/bin/env python3
"""First-return Lyapunov identity across core-interval levels.

Example:
    python scripts/kac_sweep.py --map '{"kind":"parabolic","poles":[[0,1]]}' --levels 2 5 10
"""

import argparse

from innerdyn.cli import build_parabolic_map, fmt, load_map_config
from innerdyn.parabolic import kac_check, lyapunov_integral


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--map", required=True)
    ap.add_argument("--levels", type=int, nargs="+", default=[2, 5, 10])
    ap.add_argument("--tail-frac", type=float, default=0.01)
    args = ap.parse_args()

    P = build_parabolic_map(load_map_config(args.map))
    print(f"# map {P.label()}  rhs {fmt(lyapunov_integral(P))}")
    print("N,lhs,rhs,ratio,cap,caps,tail_fraction")
    for N in args.levels:
        rep = kac_check(P, N, tail_frac=args.tail_frac)
        caps = ";".join(map(str, rep.caps))    # one column: the cap trajectory
        print(",".join([fmt(N), fmt(rep.lhs), fmt(rep.rhs), fmt(rep.ratio),
                        fmt(rep.cap), caps, fmt(rep.tail_fraction)]))


if __name__ == "__main__":
    main()
