"""Nonparametric MLE of the residual prior on a fixed 2-D grid.

The prior is a discrete probability measure over a product grid of atoms.
Weights are fit against heteroscedastic bivariate Gaussian likelihoods by
an active-set, SQUAREM-accelerated EM that stays on the simplex, never
lowers the log-likelihood, and stops on the NPMLE's KKT gap, a
certificate of how far the fit is below the optimum.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg2 import eigh2

DEFAULT_GRID_POINTS = 40
DEFAULT_PADDING = 0.05
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 20000
DEFAULT_RESTARTS = 5

# Live weights below this floor are set to exactly 0; subnormal weights make
# every product with them slow.
PRUNE_FLOOR = 1e-12
# SQUAREM's step is taken as the second EM iterate once it is this close to -1.
ALPHA_SNAP = 1e-2

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class NpmleConfig:
    m: int = DEFAULT_GRID_POINTS
    padding: float = DEFAULT_PADDING
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    restarts: int = DEFAULT_RESTARTS


@dataclass
class GridSpec:
    bounds: np.ndarray  # (2, 2): [lo, hi] per dimension
    points_per_dim: int
    atoms: np.ndarray  # (m*m, 2), row-major product grid


@dataclass
class DiscretePrior:
    atoms: np.ndarray  # (K, 2)
    weights: np.ndarray  # (K,)

    def validate(self):
        if np.any(self.weights < -1e-15):
            raise ValueError("negative prior weight")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum()}, not 1")

    def to_dict(self):
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["atoms"], float), np.asarray(d["weights"], float))

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


@dataclass
class FitDiagnostics:
    log_likelihood: float
    iterations: int
    converged: bool
    kkt_gap: float
    loglik_trace: list = field(default_factory=list)
    kappa_j: float = None
    kappa_gap: float = None

    def to_dict(self):
        return {
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "kkt_gap": self.kkt_gap,
            "loglik_trace": self.loglik_trace,
            "kappa_j": self.kappa_j,
            "kappa_gap": self.kappa_gap,
        }


def kappa_tolerance(n):
    """Allowed log-likelihood gap for an approximate NPMLE at sample size n."""
    return (3.0 / n) * math.log(n / (2.0 * math.pi * math.e) ** (1.0 / 3.0))


def build_grid(samples, m=DEFAULT_GRID_POINTS, padding=DEFAULT_PADDING):
    """Evenly spaced m x m product grid covering the residual samples.

    Bounds are the per-dimension sample range expanded by padding*range;
    a degenerate dimension (all values equal) is expanded by 1 absolute.
    """
    if m < 2:
        raise ValueError("grid needs at least 2 points per dimension")
    z = np.array([s.z_hat for s in samples])
    if z.size == 0:
        raise ValueError("no samples")
    bounds = np.zeros((2, 2))
    axes = []
    for d in range(2):
        lo, hi = z[:, d].min(), z[:, d].max()
        rng = hi - lo
        if rng == 0.0:
            lo, hi = lo - 1.0, hi + 1.0
        else:
            lo, hi = lo - padding * rng, hi + padding * rng
        bounds[d] = (lo, hi)
        axes.append(np.linspace(lo, hi, m))
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    atoms = np.column_stack([xx.ravel(), yy.ravel()])
    return GridSpec(bounds, m, atoms)


def _gaussian_log_kernel(z, psi, atoms):
    """log N(z; atom, psi) for every atom; vectorized over atoms."""
    vals, _ = eigh2(psi)
    if vals[0] < 1e-8:
        raise ValueError(f"psi eigenvalue {vals[0]} below 1e-8; repair upstream")
    det = vals[0] * vals[1]
    inv = np.linalg.inv(psi)
    q = z - atoms  # (K, 2)
    quad = np.einsum("ki,ij,kj->k", q, inv, q)
    return -0.5 * quad - LOG_2PI - 0.5 * math.log(det)


def likelihood_matrix(samples, grid):
    """J x K matrix of normalized Gaussian densities of z_hat at each atom."""
    L = np.zeros((len(samples), grid.atoms.shape[0]))
    for j, s in enumerate(samples):
        try:
            L[j] = np.exp(_gaussian_log_kernel(s.z_hat, s.psi_hat, grid.atoms))
        except ValueError as exc:
            raise ValueError(f"policy {s.policy_id}: {exc}") from exc
        if L[j].max() <= 0.0:
            raise ValueError(
                f"policy {s.policy_id}: all kernel values underflow; "
                "grid does not cover the sample"
            )
    return L


def log_likelihood(L, weights):
    """Average log mixture density (1/J) sum_j log(sum_k L[j,k] w_k).

    Rows are max-rescaled so the sum never fully underflows.
    """
    row_max = L.max(axis=1)
    mix = (L / row_max[:, None]) @ weights
    with np.errstate(divide="ignore"):
        return float(np.mean(np.log(mix) + np.log(row_max)))


def _em(L, w, tol, max_iter):
    """Active-set SQUAREM EM from weights w, stopped on the KKT gap.

    Every cycle computes the NPMLE gradient g_k = (1/J) sum_j L_jk / f_j
    over all K atoms from the caller's L, where f = L w. The KKT gap
    max_k g_k - 1 is >= 0, is 0 exactly at the NPMLE, and bounds how far
    the mean log-likelihood is below the NPMLE's. The loop stops once
    gap <= tol or after max_iter EM-map evaluations.

    Before each cycle, live weights below PRUNE_FLOOR whose g_k < 1 become
    exactly 0, and zero-weight atoms with g_k > 1 + tol, which alone would
    keep the gap above tol, are re-admitted by a mixing step that does not
    lower the log-likelihood. Products run over one rescaled J x n working
    matrix holding the live atoms and any dead ones not yet dropped from
    it. It is rebuilt from L, after the old one is freed, when the live
    atoms fall to half of its columns or a re-admitted atom is missing.

    A cycle takes two EM steps, then the SQUAREM S3 extrapolation
    (Varadhan & Roland 2008) with its step alpha capped at -1. Alpha
    moves halfway back toward -1 (the second EM iterate) until the
    extrapolated point lies on the simplex and its log-likelihood is at
    least that of the second EM iterate.

    Returns (weights, log-likelihood trace, EM-map evaluations, KKT gap);
    the last trace entry and the gap are those of the returned weights.
    """
    J, K = L.shape
    row_max = L.max(axis=1)
    log_scale = float(np.mean(np.log(row_max)))
    cols = np.arange(K)  # atom indices of the working columns
    W = L / row_max[:, None]
    x = np.array(w, float)  # weights of the working columns

    def loglik(f):
        return float(np.log(f).sum()) / J + log_scale

    def em_map(x, g):
        # g is the gradient over the working columns at x
        x = x * g
        return x / x.sum()

    f = W @ x
    trace = [loglik(f)]
    its = 0
    while True:
        grad = (L.T @ (1.0 / (f * row_max))) / J
        gap = float(grad.max()) - 1.0
        if gap <= tol or its >= max_iter:
            break

        g = grad[cols]
        w = np.zeros(K)
        w[cols] = x
        drop = (w > 0.0) & (w < PRUNE_FLOOR) & (grad < 1.0)
        add = np.flatnonzero((w == 0.0) & (grad > 1.0 + tol))
        if drop.any() or add.size:
            w[drop] = 0.0
            w /= w.sum()
            if add.size:
                # the log-likelihood rises along (1-t) w + t * mean_k e_k at
                # t = 0; halve t until it does not fall
                f = W @ w[cols]
                base = loglik(f)
                s = np.mean(L[:, add] / row_max[:, None], axis=1)
                t = add.size / (np.count_nonzero(w) + add.size)
                while t > PRUNE_FLOOR and loglik((1.0 - t) * f + t * s) < base:
                    t *= 0.5
                if t > PRUNE_FLOOR:
                    w *= 1.0 - t
                    w[add] = t / add.size
            held = np.zeros(K, bool)
            held[cols] = True
            live = np.flatnonzero(w)
            if 2 * live.size <= cols.size or not held[live].all():
                cols = live
                W = None  # free the old working matrix before building the new one
                W = L[:, cols]
                W /= row_max[:, None]
            x = w[cols]
            f = W @ x
            g = (W.T @ (1.0 / f)) / J

        x0, f0 = x, f
        x = em_map(x0, g)
        f = W @ x
        its += 1
        if its < max_iter:
            x1, f1 = x, f
            x = em_map(x1, (W.T @ (1.0 / f)) / J)
            f = W @ x
            its += 1
            ll2 = loglik(f)
            r, fr = x1 - x0, f1 - f0
            v, fv = x - x1 - r, f - f1 - fr
            vv = float(v @ v)
            alpha = min(-1.0, -math.sqrt(float(r @ r) / vv)) if vv > 0.0 else -1.0
            while alpha < -1.0 - ALPHA_SNAP:
                xp = x0 - 2.0 * alpha * r + alpha * alpha * v
                if xp.min() >= 0.0:
                    # the mixture is linear in the weights, so screen xp
                    # without a product with W, then confirm it exactly
                    total = xp.sum()
                    fp = (f0 - 2.0 * alpha * fr + alpha * alpha * fv) / total
                    if fp.min() > 0.0 and loglik(fp) >= ll2:
                        xp /= total
                        fp = W @ xp
                        if loglik(fp) >= ll2:
                            x, f = xp, fp
                            break
                alpha = 0.5 * (alpha - 1.0)
        ll = loglik(f)
        if ll < trace[-1] - 1e-12:
            raise AssertionError(
                f"EM log-likelihood decreased: {trace[-1]} -> {ll} at iter {its}"
            )
        trace.append(ll)
    w = np.zeros(K)
    w[cols] = x
    return w, trace, its, gap


def fit_npmle(L, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, kappa_check=False,
              restarts=DEFAULT_RESTARTS, seed=0, atoms=None):
    """Fit simplex weights maximizing the mixture log-likelihood.

    Starts from uniform weights and stops once the KKT gap is at most tol
    (converged) or after max_iter EM-map evaluations. When kappa_check is
    set, refits from
    `restarts` random Dirichlet(1) initializations and reports the gap to
    the best restart, which should stay within the kappa tolerance.
    Returns (DiscretePrior, FitDiagnostics); prior atoms are taken from
    `atoms` when given, else indexed placeholders are not stored.
    """
    J, K = L.shape
    if J < 1:
        raise ValueError("empty likelihood matrix")
    if np.any(L.max(axis=1) <= 0.0):
        raise ValueError("likelihood matrix has an all-zero row")

    w, trace, iters, gap = _em(L, np.full(K, 1.0 / K), tol, max_iter)
    ll = trace[-1]

    kappa_j = kappa_gap = None
    if kappa_check:
        kappa_j = kappa_tolerance(J)
        rng = np.random.default_rng(seed)
        best = ll
        for _ in range(restarts):
            wr = rng.dirichlet(np.ones(K))
            _, tr, _, _ = _em(L, wr, tol, max_iter)
            best = max(best, tr[-1])
        kappa_gap = best - ll

    # decimate the trace so diagnostics stay small
    step = max(1, len(trace) // 200)
    diag = FitDiagnostics(
        log_likelihood=ll,
        iterations=iters,
        converged=gap <= tol,
        kkt_gap=gap,
        loglik_trace=trace[::step] + ([trace[-1]] if (len(trace) - 1) % step else []),
        kappa_j=kappa_j,
        kappa_gap=kappa_gap,
    )
    prior_atoms = atoms if atoms is not None else np.zeros((K, 2))
    prior = DiscretePrior(np.asarray(prior_atoms, float), w)
    prior.validate()
    return prior, diag


def fit_prior(samples, config=None, kappa_check=False, seed=0):
    """Grid + likelihood + EM in one call; returns (prior, grid, diagnostics)."""
    config = config or NpmleConfig()
    grid = build_grid(samples, config.m, config.padding)
    L = likelihood_matrix(samples, grid)
    prior, diag = fit_npmle(
        L,
        tol=config.tol,
        max_iter=config.max_iter,
        kappa_check=kappa_check,
        restarts=config.restarts,
        seed=seed,
        atoms=grid.atoms,
    )
    return prior, grid, diag
