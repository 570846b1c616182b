"""Coupled-bootstrap draws and unbiased local-objective estimation.

One Gaussian estimate splits into two conditionally independent
estimates by adding scaled noise to one copy and subtracting inversely
scaled noise from the other. Rules built from the first draw can then be
scored without bias against the second draw.
"""

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .linalg2 import sqrtm_psd2
from .pipeline import run_shrink
from .planner import assemble_gradient, solve_ball


@dataclass
class CoupledDraws:
    kappa: float
    y1: np.ndarray  # (J, 2) training draw
    y2: np.ndarray  # (J, 2) evaluation draw
    seed: int


def standard_normal_pairs(seed, rep, n):
    """(n, 2) standard normals from a counter-based generator.

    Each policy gets its own Philox key derived from (seed, rep, j), so
    draws are bit-identical regardless of execution order or parallel
    schedule. The replication and policy indices are packed into the
    second 64-bit key word.
    """
    out = np.zeros((n, 2))
    for j in range(n):
        gen = np.random.Generator(np.random.Philox(key=[seed, (rep << 32) | j]))
        out[j] = gen.standard_normal(2)
    return out


def couple(records, kappa, seed, rep=0, xi=None):
    """Split each record's estimate into coupled training/evaluation draws.

    xi overrides the Gaussian noise (J, 2), used by tests to force
    deterministic splits.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    n = len(records)
    if xi is None:
        xi = standard_normal_pairs(seed, rep, n)
    else:
        xi = np.asarray(xi, float)
        if xi.shape != (n, 2):
            raise ValueError(f"xi shape {xi.shape}, expected ({n}, 2)")
    y1 = np.zeros((n, 2))
    y2 = np.zeros((n, 2))
    root_kappa = math.sqrt(kappa)
    for j, r in enumerate(records):
        noise = sqrtm_psd2(r.sigma) @ xi[j]
        y1[j] = r.y + root_kappa * noise
        y2[j] = r.y - noise / root_kappa
    return CoupledDraws(kappa, y1, y2, seed)


def evaluate_rule(rule_fn, draws, records, config):
    """Unbiased estimate of the local objective along rule_fn's direction.

    rule_fn receives only the training draw and the sampling covariances,
    which enforces that the rule cannot peek at the evaluation draw.
    """
    sigmas = [r.sigma for r in records]
    v = np.asarray(rule_fn(draws.y1, sigmas), float)
    n = draws.y1.shape[0]
    if v.shape != (n,):
        raise ValueError(f"rule returned shape {v.shape}, expected ({n},)")
    eta = config.eta_vector(n)
    contrib = v * (eta * draws.y2[:, 0] - config.mu * draws.y2[:, 1])
    # sorted compensated-style reduction keeps aggregation order-independent
    return float(np.sum(np.sort(contrib)))


PIPELINES = ("empirical_bayes", "plug_in")


def _rule(wtp, g, config, source):
    grad = assemble_gradient(wtp, g, config, source=source)
    rule, _ = solve_ball(grad, config)
    return rule.v


def _plug_in_rule(y1, sigmas, config):
    return _rule(y1[:, 0], y1[:, 1], config, "plug_in")


def _eb_rule(means, config, y1, sigmas):
    # means come from the EB fit on this same training draw y1
    return _rule(means[0], means[1], config, "empirical_bayes")


def _eb_means(y1, records, n_types, kappa, moments_config, npmle_config, seed):
    """Posterior-mean (wtp, g) from moments and a prior refit on the training draw."""
    # the training draw's covariance is the inflated (1 + kappa) Sigma_j
    train = [
        replace(r, y=y1[j], sigma=(1.0 + kappa) * r.sigma)
        for j, r in enumerate(records)
    ]
    result = run_shrink(train, n_types, moments_config, npmle_config, seed=seed)
    wtp = np.array([s.theta_star[0] for s in result.shrunk])
    g = np.array([s.theta_star[1] for s in result.shrunk])
    return wtp, g


def evaluate_grid(records, kappa, B, configs, pipelines=PIPELINES, n_types=1,
                  seed=0, moments_config=None, npmle_config=None):
    """Mean coupled-bootstrap welfare for every (planner config, pipeline) cell.

    Each replication couples the data once with its own counter key and,
    when an empirical-Bayes cell is asked for, refits moments and prior on
    the training draw once. Every cell then builds its spending rule from
    those shared results and scores it against the evaluation draw, so the
    cost grows with B, not with B times the number of cells.

    Replications that fail on bad data (ValueError, LinAlgError) are
    dropped and counted per cell: a coupling failure drops the replication
    from every cell, an EB fit failure from every EB cell, and a scoring
    failure from its own cell. Any other error, such as an EM monotonicity
    AssertionError, is a bug and propagates. Returns one row per cell,
    configs outermost.
    """
    if B < 1:
        raise ValueError("need at least one replication")
    for pipeline in pipelines:
        if pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {pipeline!r}")
    cells = [(config, pipeline) for config in configs for pipeline in pipelines]
    values = [[] for _ in cells]
    dropped = [0] * len(cells)
    bad_data = (ValueError, np.linalg.LinAlgError)
    for b in range(B):
        try:
            draws = couple(records, kappa, seed, rep=b)
        except bad_data:
            dropped = [d + 1 for d in dropped]
            continue
        eb_means = None  # stays None when the fit fails: every EB cell drops b
        if "empirical_bayes" in pipelines:
            try:
                eb_means = _eb_means(draws.y1, records, n_types, kappa,
                                     moments_config, npmle_config, seed)
            except bad_data:
                pass
        for i, (config, pipeline) in enumerate(cells):
            if pipeline == "plug_in":
                rule_fn = partial(_plug_in_rule, config=config)
            elif eb_means is not None:
                rule_fn = partial(_eb_rule, eb_means, config)
            else:
                dropped[i] += 1
                continue
            try:
                values[i].append(evaluate_rule(rule_fn, draws, records, config))
            except bad_data:
                dropped[i] += 1
    return [
        _welfare_row(vals, drop, config, pipeline, kappa, B)
        for (config, pipeline), vals, drop in zip(cells, values, dropped)
    ]


def _welfare_row(values, dropped, config, pipeline, kappa, B):
    if not values:
        raise RuntimeError(f"all {B} replications failed")
    values = np.array(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return {
        "pipeline": pipeline,
        "V": {"p": "inf" if config.p == math.inf else config.p, "radius": config.radius},
        "mu": config.mu,
        "kappa": kappa,
        "B": B,
        "mean": mean,
        "std_error": se,
        "dropped": dropped,
    }


def evaluate_pipeline(records, kappa, B, config, pipeline, n_types=1, seed=0,
                      moments_config=None, npmle_config=None):
    """Mean coupled-bootstrap welfare along one pipeline's spending rule.

    The one-cell case of evaluate_grid, with the same drop accounting.
    """
    (row,) = evaluate_grid(records, kappa, B, [config], (pipeline,), n_types,
                           seed, moments_config, npmle_config)
    return row
