"""Outside-in span tracing of one innerdyn CLI request, and the per-layer metrics.

Run as a child process in place of ``python -m innerdyn.cli``::

    python3 perfbench/tracer.py SPANS_PATH REQUEST_ID -- <innerdyn cli arguments>

The child imports the package, rebinds each layer-boundary function in every
innerdyn namespace that holds it to a wrapper that records a span, runs the
CLI, and writes the spans to SPANS_PATH as JSON when the request ends. A span
is ``[name, start, end, parent, request_id, count]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``count`` is read from the
return value, so it repeats exactly. The package source is not modified.

``layer_metrics`` reduces the spans of one or more requests to the per-layer
metrics; it imports nothing from innerdyn.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _path_bytes(ret, args, kwargs):
    path = args[0]
    return os.path.getsize(path) if path not in (None, "-") else 0


# (module, attribute, count extractor or None, rebind only in that module)
BOUNDARIES = [
    ("blaschke", "boundary_preimages_batch", lambda r, a, k: int(r.size), False),
    ("transfer", "assemble_operator", lambda r, a, k: list(r.preimages.shape), False),
    ("spectral", "leading_spectral_data", None, False),
    ("spectral", "power_leading", lambda r, a, k: int(r[3]), False),
    ("spectral", "deflated_subleading", None, False),
    ("shift", "cylinder_operator", None, False),
    ("shift", "count_words", lambda r, a, k: len(r.values), False),
    ("counting", "enumerate_orbit", lambda r, a, k: len(r.values), False),
    ("counting", "backward_orbit", None, False),
    ("counting", "cesaro_average", None, False),
    ("counting", "CountingLedger.count", None, False),
    ("counting", "CountingLedger.restricted", None, False),
    ("counting", "CountingLedger.cesaro_average", None, False),
    ("parabolic", "boundary_orbit", lambda r, a, k: [a[1], len(r)], False),
    ("parabolic", "real_markov_partition", None, False),
    ("parabolic", "kac_check", lambda r, a, k: int(r.cap), False),
    ("parabolic", "parabolic_count", lambda r, a, k: len(r.values), False),
    ("stochastic", "birkhoff_samples", lambda r, a, k: int(r.n) * int(r.samples), False),
    ("stochastic", "green_kubo_variance", None, False),
    ("stochastic", "splitmix64", None, True),   # the rng stream as bound in stochastic
    ("cli", "write_csv", _path_bytes, False),
    ("cli", "write_json", _path_bytes, False),
]


class Recorder:
    """Spans of one request, kept in memory until the request ends."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else -1, self.request_id, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                ret = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span[5] = counter(ret, args, kwargs)
            return ret
        return traced


def install(recorder: Recorder) -> None:
    """Rebind every boundary function wherever an innerdyn module holds it."""
    modules = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
               if name == "innerdyn" or name.startswith("innerdyn.")}
    for mod_name, attr, counter, only_home in BOUNDARIES:
        home = modules[mod_name]
        span_name = f"{mod_name}.{attr}"
        if "." in attr:  # a method: rebinding the class attribute covers every caller
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, recorder.wrap(span_name, getattr(cls, meth), counter))
            continue
        original = getattr(home, attr)
        wrapped = recorder.wrap(span_name, original, counter)
        for mod in ([home] if only_home else modules.values()):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_PATH REQUEST_ID -- <innerdyn cli arguments>",
              file=sys.stderr)
        return 2
    spans_path, request_id, cli_args = argv[0], argv[1], argv[3:]
    import innerdyn.cli as cli  # loads every innerdyn module the CLI uses

    recorder = Recorder(request_id)
    install(recorder)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from spans (harness side)
# ---------------------------------------------------------------------------

# metric name -> unit; the order is the report order
LAYER_METRICS = {
    "blaschke.preimage_s": "s",
    "blaschke.preimage_points": "count",
    "transfer.assemble_s": "s",
    "transfer.assemble_calls": "count",
    "transfer.assemble_gflop": "GFLOP",
    "spectral.leading_s": "s",
    "spectral.power_iterations": "count",
    "shift.cylinder_operator_s": "s",
    "shift.cylinder_operator_calls": "count",
    "shift.count_words_s": "s",
    "shift.words": "count",
    "counting.enumerate_s": "s",
    "counting.events": "count",
    "counting.query_s": "s",
    "parabolic.boundary_orbit_s": "s",
    "parabolic.boundary_orbit_points": "count",
    "parabolic.kac_s": "s",
    "parabolic.kac_passes": "count",
    "parabolic.kac_cap": "count",
    "parabolic.count_s": "s",
    "parabolic.count_events": "count",
    "stochastic.birkhoff_s": "s",
    "stochastic.birkhoff_steps": "count",
    "stochastic.green_kubo_s": "s",
    "rng.splitmix_s": "s",
    "cli.artifact_s": "s",
    "cli.artifact_bytes": "bytes",
}

_PREIMAGE = {"blaschke.boundary_preimages_batch"}
_ASSEMBLE = {"transfer.assemble_operator"}
_LEADING = {"spectral.leading_spectral_data", "spectral.power_leading",
            "spectral.deflated_subleading"}
_ENUMERATE = {"counting.enumerate_orbit", "counting.backward_orbit"}
_QUERY = {"counting.cesaro_average", "counting.CountingLedger.count",
          "counting.CountingLedger.restricted", "counting.CountingLedger.cesaro_average"}
_ARTIFACT = {"cli.write_csv", "cli.write_json"}


def layer_metrics(requests: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics summed over requests, each given as its span list.

    A ``_s`` metric is inclusive time: the spans of its group, not counting a
    span nested inside another span of the same group. ``counting.enumerate_s``
    and ``parabolic.kac_s`` are self times: span minus the time of its direct
    child spans (the preimage solve and the boundary orbit, respectively).
    """
    out = dict.fromkeys(LAYER_METRICS, 0)
    for spans in requests:
        names = [s[0] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child_time[s[3]] += d

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        def inclusive(group):
            return sum(d for i, d in enumerate(dur) if names[i] in group
                       and not any(names[p] in group for p in ancestors(i)))

        def self_time(group):
            return sum(dur[i] - child_time[i] for i in range(len(spans)) if names[i] in group)

        def counts(name):
            return [s[5] for s in spans if s[0] == name]

        out["blaschke.preimage_s"] += inclusive(_PREIMAGE)
        out["blaschke.preimage_points"] += sum(counts("blaschke.boundary_preimages_batch"))
        out["transfer.assemble_s"] += inclusive(_ASSEMBLE)
        shapes = counts("transfer.assemble_operator")
        out["transfer.assemble_calls"] += len(shapes)
        # E @ dft per preimage branch: an N x N by N x N complex product, 8 N^3 flops
        out["transfer.assemble_gflop"] += sum(d * 8 * n**3 for n, d in shapes) / 1e9
        out["spectral.leading_s"] += inclusive(_LEADING)
        out["spectral.power_iterations"] += sum(counts("spectral.power_leading"))
        out["shift.cylinder_operator_s"] += inclusive({"shift.cylinder_operator"})
        out["shift.cylinder_operator_calls"] += len(counts("shift.cylinder_operator"))
        out["shift.count_words_s"] += inclusive({"shift.count_words"})
        out["shift.words"] += sum(counts("shift.count_words"))
        out["counting.enumerate_s"] += self_time(_ENUMERATE)
        out["counting.events"] += sum(counts("counting.enumerate_orbit"))
        out["counting.query_s"] += inclusive(_QUERY)
        out["parabolic.boundary_orbit_s"] += inclusive({"parabolic.boundary_orbit"})
        longest: dict[str, int] = {}
        for side, length in counts("parabolic.boundary_orbit"):
            longest[side] = max(longest.get(side, 0), length)
        out["parabolic.boundary_orbit_points"] += sum(longest.values())
        out["parabolic.kac_s"] += self_time({"parabolic.kac_check"})
        out["parabolic.kac_passes"] += sum(
            1 for i, n in enumerate(names) if n == "parabolic.real_markov_partition"
            and any(names[p] == "parabolic.kac_check" for p in ancestors(i)))
        out["parabolic.kac_cap"] += sum(counts("parabolic.kac_check"))
        out["parabolic.count_s"] += inclusive({"parabolic.parabolic_count"})
        out["parabolic.count_events"] += sum(counts("parabolic.parabolic_count"))
        out["stochastic.birkhoff_s"] += inclusive({"stochastic.birkhoff_samples"})
        out["stochastic.birkhoff_steps"] += sum(counts("stochastic.birkhoff_samples"))
        out["stochastic.green_kubo_s"] += inclusive({"stochastic.green_kubo_variance"})
        out["rng.splitmix_s"] += inclusive({"stochastic.splitmix64"})
        out["cli.artifact_s"] += inclusive(_ARTIFACT)
        out["cli.artifact_bytes"] += sum(counts("cli.write_csv") + counts("cli.write_json"))
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
