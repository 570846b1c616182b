"""Per-layer metrics derived from the spans and counts of one traced run.

The layers are ebpolicy's modules; BENCHMARK.json lists each metric's unit
and direction, and README.md the end-to-end metric it should move.
"""

import statistics

import numpy as np

import checks
from tracer import LAYERS, OBSERVE_LAYER, outermost, self_times

SUPPORT_FLOOR = 1e-6  # a weight above this counts as a support atom


def _observe_fit(tracer, args, result):
    prior, diag = result
    L = np.asarray(args["L"])
    loglik, gap = checks.kkt(L, np.asarray(prior.weights))
    tracer.record("fit", {
        "J": L.shape[0], "K": L.shape[1],
        "iterations": int(diag.iterations), "max_iter": int(args["max_iter"]),
        "support": int(np.sum(prior.weights > SUPPORT_FLOOR)),
        "kkt_gap": gap, "loglik": loglik,
    })


def _observe_evaluate(tracer, args, result):
    tracer.record("bootstrap", {"B": int(args["B"]), "dropped": int(result["dropped"])})


def _observe_rates(tracer, args, result):
    tracer.record("rates", {"cells": len(result),
                            "errors": sum(1 for r in result if r["error"])})


def add_observers(tracer):
    tracer.observe("npmle.fit_npmle", _observe_fit)
    tracer.observe("bootstrap.evaluate_pipeline", _observe_evaluate)
    tracer.observe("simulate.rate_table", _observe_rates)


def derive(spans, observations):
    """Per-layer metric values (without trace.overhead_s) from one run."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    observing = {}  # span id -> seconds its descendant observer spans took
    for s in spans:
        if s[2] == OBSERVE_LAYER:
            p = s[6]
            while p is not None:
                observing[p] = observing.get(p, 0.0) + s[5] - s[4]
                p = by_id[p][6]

    def duration(s):
        return s[5] - s[4] - observing.get(s[0], 0.0)

    def total(match):
        return sum(duration(s) for s in outermost(spans, match))

    def named(name):
        return total(lambda s: s[1] == name)

    def in_layer(layer):
        return total(lambda s: s[2] == layer)

    fits = observations.get("fit", [])
    boot = observations.get("bootstrap", [])
    rates = observations.get("rates", [])
    em_spans = [s for s in spans if s[1] == "npmle._em"]
    if em_spans:
        em_s = sum(own[s[0]] for s in em_spans)
    else:  # EM renamed or inlined: fall back to the fit's own time
        em_s = sum(own[s[0]] for s in spans if s[1] == "npmle.fit_npmle")
    iters = sum(f["iterations"] for f in fits)
    shrink_ms = [1e3 * duration(s) for s in spans if s[1] == "pipeline.run_shrink"]
    out = {
        "npmle.em_s": em_s,
        "npmle.em_iterations": iters,
        "npmle.em_ms_per_iter": 1e3 * em_s / iters if iters else 0.0,
        "npmle.hit_max_iter": sum(f["iterations"] >= f["max_iter"] for f in fits),
        "npmle.support_atoms": (statistics.median(f["support"] for f in fits)
                                if fits else 0),
        "npmle.kkt_gap_max": max((f["kkt_gap"] for f in fits), default=0.0),
        "npmle.L_mb": max((f["J"] * f["K"] * 8 / 1e6 for f in fits), default=0.0),
        "npmle.likelihood_s": named("npmle.likelihood_matrix"),
        "npmle.fits": len(fits),
        "posterior.s": in_layer("posterior"),
        "moments.s": in_layer("moments"),
        "linalg2.calls": sum(1 for s in spans if s[2] == "linalg2"),
        "pipeline.calls": len(shrink_ms),
        "pipeline.run_shrink_ms_p50": (float(np.percentile(shrink_ms, 50))
                                       if shrink_ms else 0.0),
        "pipeline.run_shrink_ms_p95": (float(np.percentile(shrink_ms, 95))
                                       if shrink_ms else 0.0),
        "bootstrap.couple_s": named("bootstrap.couple"),
        "bootstrap.replications": sum(b["B"] for b in boot),
        "bootstrap.dropped": sum(b["dropped"] for b in boot),
        "simulate.error_cells": sum(r["errors"] for r in rates),
        "simulate.draw_s": named("simulate.draw"),
        "simulate.oracle_s": named("simulate.oracle_posterior_means"),
        "ingest.s": in_layer("ingest"),
        "planner.s": in_layer("planner"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own[s[0]] for s in spans if s[2] == layer)
    return out


def top_self_times(spans, n=5):
    """The n functions with the largest summed self time, program code only."""
    own = self_times(spans)
    per_fn = {}
    for s in spans:
        if s[2] != OBSERVE_LAYER:
            per_fn[s[1]] = per_fn.get(s[1], 0.0) + own[s[0]]
    return sorted(per_fn.items(), key=lambda kv: -kv[1])[:n]
