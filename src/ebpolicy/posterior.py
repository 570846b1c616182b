"""Posterior means of residuals and estimates under a discrete prior.

Production code uses the direct mixture ratio with max-rescaled kernels;
the Tweedie form (observation plus covariance times the score of the
marginal density) is kept as an independent cross-check.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .linalg2 import eigh2
from .moments import destandardize
from .npmle import _gaussian_log_kernel

# covariances at or below this scale are treated as noiseless
DEGENERATE_PSI = 1e-8


def _is_degenerate(psi):
    vals, _ = eigh2(np.asarray(psi, float))
    return vals[1] <= DEGENERATE_PSI


@dataclass
class ShrunkEstimate:
    policy_id: str
    type_index: int
    tau_star: np.ndarray  # posterior mean residual
    theta_star: np.ndarray  # (wtp_star, g_star)
    provenance: str  # "oracle" or "empirical_bayes"


def _kernel_weights(z, psi, prior):
    """Posterior atom weights, rescaled so the largest kernel is 1."""
    logk = _gaussian_log_kernel(np.asarray(z, float), psi, prior.atoms)
    k = np.exp(logk - logk.max())
    wk = prior.weights * k
    total = wk.sum()
    if not total > 0.0:
        raise ValueError("posterior weights vanished despite max-rescaling")
    return wk / total


def posterior_mean_residual(z, psi, prior):
    """E[tau | z] under the discrete prior, clamped to the atom bounding box."""
    if _is_degenerate(psi):
        # noiseless observation: the posterior collapses onto z itself
        lo = prior.atoms.min(axis=0)
        hi = prior.atoms.max(axis=0)
        return np.clip(np.asarray(z, float), lo, hi)
    w = _kernel_weights(z, psi, prior)
    mean = w @ prior.atoms
    lo = prior.atoms.min(axis=0)
    hi = prior.atoms.max(axis=0)
    return np.clip(mean, lo, hi)


def tweedie_mean(z, psi, prior):
    """Posterior mean via z + psi * grad f(z) / f(z) with the analytic gradient."""
    z = np.asarray(z, float)
    if _is_degenerate(psi):
        lo = prior.atoms.min(axis=0)
        hi = prior.atoms.max(axis=0)
        return np.clip(z, lo, hi)
    logk = _gaussian_log_kernel(z, psi, prior.atoms)
    k = np.exp(logk - logk.max())
    wk = prior.weights * k
    f = wk.sum()
    if not f > 0.0:
        raise ValueError("mixture density vanished despite max-rescaling")
    psi_inv = np.linalg.inv(psi)
    # gradient of the mixture density, up to the same rescaling as f
    grad = psi_inv @ (wk[:, None] * (prior.atoms - z)).sum(axis=0)
    return z + psi @ (grad / f)


def shrink_all(samples, prior, ls, provenance="empirical_bayes"):
    """Posterior-mean shrinkage for every policy, mapped back to estimate space."""
    out = []
    for s in samples:
        tau = posterior_mean_residual(s.z_hat, s.psi_hat, prior)
        theta = destandardize(tau, s.type_index, ls)
        out.append(ShrunkEstimate(s.policy_id, s.type_index, tau, theta, provenance))
    return out


def mse_regret(eb, oracle):
    """Mean squared distance between two shrinkage passes over the same policies."""
    if len(eb) != len(oracle):
        raise ValueError(f"length mismatch: {len(eb)} vs {len(oracle)}")
    total = 0.0
    for a, b in zip(eb, oracle):
        d = a.theta_star - b.theta_star
        total += float(d @ d)
    return total / len(eb)


def write_shrunk_csv(records, shrunk, type_labels, path):
    """Emit the shrunk-estimates table next to the raw normalized estimates."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["policy_id", "type", "wtp_hat", "g_hat", "wtp_star", "g_star", "provenance"]
        )
        for r, s in zip(records, shrunk):
            writer.writerow(
                [
                    r.policy_id,
                    type_labels[r.type_index],
                    repr(float(r.y[0])),
                    repr(float(r.y[1])),
                    repr(float(s.theta_star[0])),
                    repr(float(s.theta_star[1])),
                    s.provenance,
                ]
            )
