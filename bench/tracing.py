"""Spans and counters around the calls into svlab's public functions.

`Tracer.install()` replaces each traced function (every binding of it in
the svlab modules) and method with a wrapper that records a span (name,
start, end, parent span, operation id) and the counters of that boundary;
`uninstall()` puts the originals back. Spans stay in memory until `dump`.
The wrappers only observe: arguments and results pass through unchanged, so
traced outputs are byte-identical to untraced ones.

A span nested directly inside a span of the same name (a corpus family
calling another, as `sqrt(spike(...))` does) is not recorded again, so busy
time is never counted twice.
"""
from __future__ import annotations

import bisect
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

from svlab import (cli, conditions, continuous, core, corpus, discrete,
                   evidence, quad)

# (module, function, span name); a span name of None picks it per call
FUNCTIONS = [
    (core, "rng_stream", "core.rng_stream"),
    (continuous, "simulate_sve", None),
    (continuous, "simulate_sfde", "continuous.simulate_sfde"),
    (continuous, "brownian_increments", "continuous.brownian_increments"),
    (continuous, "lp_time_integral", "continuous.lp_time_integral"),
    (continuous, "characteristic_root_scan", "continuous.characteristic_root_scan"),
    (continuous, "characteristic_det", "continuous.characteristic_det"),
    (continuous, "functional_resolvent", "continuous.functional_resolvent"),
    (conditions, "window_integral", "conditions.window_integral"),
    (conditions, "profile_lp_evidence", "conditions.profile_lp_evidence"),
    (conditions, "unit_window_evidence", "conditions.unit_window_evidence"),
    (conditions, "gaussian_exceedance_series", "conditions.gaussian_exceedance_series"),
    (conditions, "exp_filter_equivalence", "conditions.exp_filter_equivalence"),
    (conditions, "window_fading_evidence", "conditions.window_fading_evidence"),
    (conditions, "irregular_window_sums", "conditions.irregular_window_sums"),
    (corpus, "zero_f", "corpus.eval"),
    (discrete, "resolvent_seq", "discrete.resolvent_seq"),
    (discrete, "simulate_direct", "discrete.simulate_direct"),
    (discrete, "simulate_via_resolvent", "discrete.simulate_via_resolvent"),
    (discrete, "draw_noise", "discrete.draw_noise"),
    (discrete, "truncated_mean_certificate", "discrete.truncated_mean_certificate"),
    (quad, "adaptive_simpson", "quad.adaptive_simpson"),
    (evidence, "median_tail_verdict", "evidence.median_tail_verdict"),
    (cli, "main", "cli.main"),
]
METHODS = [
    (core.CompiledMeasure, "__init__", "core.CompiledMeasure"),
    (core.CompiledMeasure, "convolve", "core.CompiledMeasure.convolve"),
] + [(cls, "__call__", "corpus.eval")
     for cls in (corpus.SpikeFamily, corpus.OscFamily, corpus.ConstFamily,
                 corpus.GeometricWindowFamily, corpus.ExpDecayFamily,
                 corpus.SqrtOf)]

# per-layer metrics: (name, unit); every traced run reports all of them
LAYER_METRICS = [
    ("core.CompiledMeasure.calls", "count"),
    ("core.CompiledMeasure.busy_s", "s"),
    ("core.CompiledMeasure.useful_frac", "ratio"),
    ("core.CompiledMeasure.convolve.calls", "count"),
    ("core.CompiledMeasure.convolve.busy_s", "s"),
    ("core.CompiledMeasure.convolve.taps", "count"),
    ("core.rng_stream.calls", "count"),
    ("core.draws", "count"),
    ("continuous.simulate_sve.generic.calls", "count"),
    ("continuous.simulate_sve.generic.busy_s", "s"),
    ("continuous.simulate_sve.generic.self_s", "s"),
    ("continuous.simulate_sve.generic.steps", "count"),
    ("continuous.simulate_sfde.calls", "count"),
    ("continuous.simulate_sfde.busy_s", "s"),
    ("continuous.simulate_sfde.self_s", "s"),
    ("continuous.simulate_sfde.steps", "count"),
    ("continuous.simulate_sve.ou.calls", "count"),
    ("continuous.simulate_sve.ou.busy_s", "s"),
    ("continuous.simulate_sve.ou.steps", "count"),
    ("continuous.brownian_increments.busy_s", "s"),
    ("continuous.lp_time_integral.busy_s", "s"),
    ("continuous.characteristic_root_scan.calls", "count"),
    ("continuous.characteristic_root_scan.busy_s", "s"),
    ("continuous.characteristic_root_scan.self_s", "s"),
    ("continuous.characteristic_det.calls", "count"),
    ("continuous.characteristic_det.busy_s", "s"),
    ("continuous.functional_resolvent.busy_s", "s"),
    ("conditions.window_integral.calls", "count"),
    ("conditions.window_integral.busy_s", "s"),
    ("conditions.window_integral.lattice_points", "count"),
    ("conditions.window_integral.useful_frac", "ratio"),
    ("conditions.profile_lp_evidence.busy_s", "s"),
    ("conditions.unit_window_evidence.busy_s", "s"),
    ("conditions.gaussian_exceedance_series.busy_s", "s"),
    ("conditions.exp_filter_equivalence.busy_s", "s"),
    ("conditions.window_fading_evidence.busy_s", "s"),
    ("conditions.irregular_window_sums.busy_s", "s"),
    ("corpus.eval.calls", "count"),
    ("corpus.eval.points", "count"),
    ("corpus.eval.busy_s", "s"),
    ("discrete.resolvent_seq.calls", "count"),
    ("discrete.resolvent_seq.busy_s", "s"),
    ("discrete.resolvent_seq.madds", "count"),
    ("discrete.simulate_direct.calls", "count"),
    ("discrete.simulate_direct.busy_s", "s"),
    ("discrete.simulate_direct.madds", "count"),
    ("discrete.simulate_via_resolvent.busy_s", "s"),
    ("discrete.draw_noise.busy_s", "s"),
    ("discrete.truncated_mean_certificate.calls", "count"),
    ("discrete.truncated_mean_certificate.busy_s", "s"),
    ("quad.adaptive_simpson.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.output_rows", "count"),
    ("evidence.median_tail_verdict.calls", "count"),
    ("cli.threads2_over_threads1", "ratio"),
    ("trace.overhead_s", "s"),
]
# metrics that repeat exactly for a seed: counts and their ratios
COUNT_METRICS = [n for n, u in LAYER_METRICS if u in ("count", "bytes")] + [
    "core.CompiledMeasure.useful_frac", "conditions.window_integral.useful_frac"]


class _CountingGenerator:
    """Passes every call to a numpy Generator and counts the variates drawn."""

    def __init__(self, gen, tracer):
        self._gen, self._tracer = gen, tracer

    def __getattr__(self, attr):
        fn = getattr(self._gen, attr)
        if not callable(fn):
            return fn

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._tracer.counts["core.draws"] += int(np.size(out))
            return out
        return counted


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index, op id)
        self._stack = []       # open: [name, start, child time, index, parent]
        self.op = -1
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._compiled = set()
        self._lattice = {}
        self._saved = []

    # -- spans --------------------------------------------------------------
    def open(self, name: str):
        parent = self._stack[-1][3] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append([name, time.perf_counter(), 0.0, idx, parent])

    def close(self):
        end = time.perf_counter()
        name, start, child, idx, parent = self._stack.pop()
        dur = end - start
        self.spans[idx] = (name, start, end, parent, self.op)
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_s[name] += dur - child

    def nested_in(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    # -- instrumentation ----------------------------------------------------
    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if tracer.nested_in(label):
                return fn(*args, **kwargs)
            tracer.open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if hook is not None:
                out = hook(tracer, label, args, kwargs, out)
            return out
        return wrapper

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "svlab" or k.startswith("svlab.")]
        for mod, attr, name in FUNCTIONS:
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name or _sve_label, _HOOKS.get(attr))
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self._saved.append((m, attr, orig))
                    setattr(m, attr, wrapped)
        for cls, attr, name in METHODS:
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name, _HOOKS.get(attr)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results ------------------------------------------------------------
    def metrics(self, probe_ratio: float, overhead_s: float) -> dict:
        c, b, s, n = self.calls, self.busy, self.self_s, self.counts
        lattice = sum(self._lattice.values())
        v = {
            "core.CompiledMeasure.useful_frac":
                len(self._compiled) / c["core.CompiledMeasure"]
                if c["core.CompiledMeasure"] else 1.0,
            "core.CompiledMeasure.convolve.taps": n["convolve.taps"],
            "core.draws": n["core.draws"],
            "conditions.window_integral.lattice_points": n["lattice_points"],
            "conditions.window_integral.useful_frac":
                lattice / n["lattice_points"] if n["lattice_points"] else 1.0,
            "corpus.eval.points": n["corpus.points"],
            "discrete.resolvent_seq.madds": n["resolvent_seq.madds"],
            "discrete.simulate_direct.madds": n["simulate_direct.madds"],
            "cli.output_bytes": n["cli.output_bytes"],
            "cli.output_rows": n["cli.output_rows"],
            "cli.threads2_over_threads1": probe_ratio,
            "trace.overhead_s": overhead_s,
        }
        for suffix, src in (("calls", c), ("busy_s", b), ("self_s", s)):
            for name in list(src):
                v.setdefault(f"{name}.{suffix}", src[name])
        for name in ("continuous.simulate_sve.generic",
                     "continuous.simulate_sve.ou", "continuous.simulate_sfde"):
            v[f"{name}.steps"] = n[f"{name}.steps"]
        out = {}
        for name, unit in LAYER_METRICS:
            val = v.get(name, 0)
            out[name] = {"value": val if isinstance(val, int) else float(val),
                         "unit": unit}
        return out

    def dump(self, path: str):
        with open(path, "w") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "op"], '
                     '"spans": [\n')
            fh.write(",\n".join(json.dumps(sp) for sp in self.spans))
            fh.write("\n]}\n")


def _sve_label(args, kwargs):
    sys_ = args[0] if args else kwargs["sys"]
    route = "ou" if core.is_neg_identity_point_mass(sys_.nu) else "generic"
    return f"continuous.simulate_sve.{route}"


# ---------------------------------------------------------------------------
# counters recorded after each call, keyed by the traced attribute's name;
# a hook returns the call's result

def _rng(tr, label, args, kwargs, out):
    return _CountingGenerator(out, tr)


def _steps(tr, label, args, kwargs, out):
    sys_ = args[0] if args else kwargs["sys"]
    tr.counts[f"{label}.steps"] += sys_.grid.n_steps
    return out


def _compiled(tr, label, args, kwargs, out):
    cm = args[0]
    tr._compiled.add((cm.measure.digest(), cm.grid.step_h.hex(),
                      cm.grid.horizon_T.hex()))
    return out


def _taps(tr, label, args, kwargs, out):
    cm, t = args[0], args[2] if len(args) > 2 else kwargs["t_index"]
    lags = cm.__dict__.get("_bench_lags")
    if lags is None:
        lags = (sorted(cm.atom_lags.tolist()), cm.dens_lags.tolist())
        cm._bench_lags = lags
    if cm.negative_support:
        tr.counts["convolve.taps"] += len(lags[0]) + len(lags[1])
    else:
        tr.counts["convolve.taps"] += (bisect.bisect_right(lags[0], t)
                                       + bisect.bisect_right(lags[1], t - 1))
    return out


def _lattice(tr, label, args, kwargs, out):
    f, theta, grid = args[:3]
    refine = int(round(grid.step_h / out.quad_step))
    points = (grid.n_steps + grid.snap(theta)) * refine
    tr.counts["lattice_points"] += points
    key = (tr.op, id(f), out.quad_step)
    tr._lattice[key] = max(tr._lattice.get(key, 0), points)
    return out


def _corpus(tr, label, args, kwargs, out):
    tr.counts["corpus.points"] += int(np.size(out))
    return out


def _resolvent_madds(tr, label, args, kwargs, out):
    N, d = out.shape[0] - 1, out.shape[1]
    tr.counts["resolvent_seq.madds"] += d ** 3 * N * (N + 1) // 2
    return out


def _direct_madds(tr, label, args, kwargs, out):
    sys_ = args[0]
    N, d, m = sys_.horizon, sys_.dim, sys_.noise.dim
    tr.counts["simulate_direct.madds"] += d * d * N * (N + 1) // 2 + N * d * m
    return out


_HOOKS = {
    "rng_stream": _rng,
    "simulate_sve": _steps,
    "simulate_sfde": _steps,
    "__init__": _compiled,
    "convolve": _taps,
    "window_integral": _lattice,
    "__call__": _corpus,
    "zero_f": _corpus,
    "resolvent_seq": _resolvent_madds,
    "simulate_direct": _direct_madds,
}
