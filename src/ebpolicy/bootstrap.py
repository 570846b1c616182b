"""Coupled-bootstrap draws and unbiased local-objective estimation.

One Gaussian estimate splits into two conditionally independent
estimates by adding scaled noise to one copy and subtracting inversely
scaled noise from the other. Rules built from the first draw can then be
scored without bias against the second draw.
"""

import math
from dataclasses import dataclass, replace

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


def _plug_in_rule(y1, sigmas, config):
    grad = assemble_gradient(y1[:, 0], y1[:, 1], config, source="plug_in")
    rule, _ = solve_ball(grad, config)
    return rule.v


def _eb_rule(y1, records, n_types, kappa, config, moments_config, npmle_config, seed):
    # the training draw's covariance is the inflated (1 + kappa) Sigma_j
    train = [
        replace(r, y=y1[j], sigma=(1.0 + kappa) * r.sigma)
        for j, r in enumerate(records)
    ]
    result = run_shrink(train, n_types, moments_config, npmle_config, seed=seed)
    wtp = np.array([s.theta_star[0] for s in result.shrunk])
    g = np.array([s.theta_star[1] for s in result.shrunk])
    grad = assemble_gradient(wtp, g, config, source="empirical_bayes")
    rule, _ = solve_ball(grad, config)
    return rule.v


def evaluate_pipeline(records, kappa, B, config, pipeline, n_types=1, seed=0,
                      moments_config=None, npmle_config=None):
    """Mean coupled-bootstrap welfare along a pipeline's spending rule.

    Each replication couples the data with its own counter key, rebuilds
    the chosen rule from the training draw (re-fitting moments and prior
    for the EB pipeline), and scores it against the evaluation draw.
    Replications that fail on bad data (ValueError, LinAlgError) are
    dropped and counted; any other error, such as an EM monotonicity
    AssertionError, is a bug and propagates.
    """
    if B < 1:
        raise ValueError("need at least one replication")
    if pipeline not in ("empirical_bayes", "plug_in"):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    values = []
    dropped = 0
    for b in range(B):
        try:
            draws = couple(records, kappa, seed, rep=b)
            if pipeline == "plug_in":
                rule_fn = lambda y1, sigmas: _plug_in_rule(y1, sigmas, config)
            else:
                rule_fn = lambda y1, sigmas: _eb_rule(
                    y1, records, n_types, kappa, config,
                    moments_config, npmle_config, seed,
                )
            values.append(evaluate_rule(rule_fn, draws, records, config))
        except (ValueError, np.linalg.LinAlgError):
            dropped += 1
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
