"""Synthetic data generators and regret measurement.

The two adversarial four-atom priors used in the plug-in failure
construction double as simulation truths. Oracle posterior means are
computed by exact enumeration over the true atoms, so measured regret
isolates estimation error in the pipeline under test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ingest import PolicyRecord
from .linalg2 import sqrtm_psd2
from .npmle import DiscretePrior, NpmleConfig
from .pipeline import run_shrink
from .planner import (
    INF,
    Gradient,
    PlannerConfig,
    assemble_gradient,
    dual_exponent,
    lp_norm,
    solve_ball,
)

PIPELINES = ("oracle", "plug_in", "empirical_bayes")


@dataclass
class DGPSpec:
    prior: DiscretePrior  # residual truth, mean 0 / identity covariance when normalized
    alpha: np.ndarray  # (T, 2)
    omega: np.ndarray  # (T, 2, 2)
    sigma: np.ndarray  # fixed per-policy sampling covariance
    eta: float
    mu: float
    J: int
    T: int
    seed: int
    heteroscedastic: bool = False
    normalized: bool = True

    def validate(self):
        if self.normalized:
            mean = self.prior.weights @ self.prior.atoms
            centered = self.prior.atoms - mean
            cov = (self.prior.weights[:, None] * centered).T @ centered
            if np.abs(mean).max() > 1e-8 or np.abs(cov - np.eye(2)).max() > 1e-8:
                raise ValueError("prior is not normalized to mean 0, covariance I")


@dataclass
class SimData:
    tau: np.ndarray  # (J, 2) residual truths
    theta: np.ndarray  # (J, 2) true impacts
    y: np.ndarray  # (J, 2) noisy estimates
    sigmas: list  # per-policy 2x2
    types: np.ndarray  # (J,)


@dataclass
class RegretReport:
    J: int
    p: float
    pipeline: str
    objective_gap: float  # normalized mean over replications
    rule_regret: float
    mse_regret: float
    normalization: float
    se_objective: float
    se_rule: float
    replications: int
    objective_gap_median: float = None
    rule_regret_median: float = None
    mse_regret_median: float = None
    per_replication: dict = field(default_factory=dict, repr=False)


def normalization_factor(J, p):
    """Order of the largest attainable objective over the L^p ball."""
    if p == INF:
        return float(J)
    return float(J ** ((p - 1.0) / p))


def prop32_dgp(part, J, sigma=None, seed=0, heteroscedastic=False):
    """Adversarial four-atom DGP: atoms at the corners of [-1,1]^2.

    Part 1 centers the impacts at zero; part 2 shifts both coordinates to
    2 so sign mistakes by the plug-in rule become costly. Both use
    eta = 1 and mu = -1.
    """
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    atoms = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    prior = DiscretePrior(atoms, np.full(4, 0.25))
    alpha = np.zeros((1, 2)) if part == 1 else np.full((1, 2), 2.0)
    spec = DGPSpec(
        prior=prior,
        alpha=alpha,
        omega=np.eye(2)[None, :, :],
        sigma=np.eye(2) if sigma is None else np.asarray(sigma, float),
        eta=1.0,
        mu=-1.0,
        J=J,
        T=1,
        seed=seed,
        heteroscedastic=heteroscedastic,
    )
    spec.validate()
    return spec


def draw(spec, rep=0):
    """One realization of (tau, theta, y) from the generative model."""
    gen = np.random.Generator(np.random.Philox(key=[spec.seed, rep]))
    J = spec.J
    types = np.arange(J) % spec.T
    k = gen.choice(len(spec.prior.weights), size=J, p=spec.prior.weights)
    tau = spec.prior.atoms[k]
    theta = np.zeros((J, 2))
    omega_sqrt = np.array([sqrtm_psd2(spec.omega[t]) for t in range(spec.T)])
    for j in range(J):
        theta[j] = spec.alpha[types[j]] + omega_sqrt[types[j]] @ tau[j]
    if spec.heteroscedastic:
        scales = gen.uniform(0.5, 2.0, size=(J, 2))
        sigmas = [np.diag(s**2) for s in scales]
    else:
        sigmas = [spec.sigma] * J
    noise = gen.standard_normal((J, 2))
    y = np.array([theta[j] + sqrtm_psd2(sigmas[j]) @ noise[j] for j in range(J)])
    return SimData(tau, theta, y, sigmas, types)


def oracle_posterior_means(y, sigmas, spec, types=None):
    """Exact posterior means by enumeration over the true prior atoms."""
    J = y.shape[0]
    types = np.zeros(J, int) if types is None else types
    K = len(spec.prior.weights)
    theta_star = np.zeros((J, 2))
    log_w = np.log(spec.prior.weights)
    for j in range(J):
        t = types[j]
        atoms_y = spec.alpha[t] + (sqrtm_psd2(spec.omega[t]) @ spec.prior.atoms.T).T
        inv = np.linalg.inv(sigmas[j])
        q = y[j] - atoms_y
        logp = log_w - 0.5 * np.einsum("ki,ij,kj->k", q, inv, q)
        p = np.exp(logp - logp.max())
        p /= p.sum()
        theta_star[j] = p @ atoms_y
    return theta_star


def oracle_gradient(data, spec, config):
    """Posterior expected gradient under the true prior and moments."""
    theta_star = oracle_posterior_means(data.y, data.sigmas, spec, data.types)
    grad = assemble_gradient(theta_star[:, 0], theta_star[:, 1], config, source="oracle")
    return grad, theta_star


def _eb_estimates(data, spec, npmle_config, moments_config, seed):
    """Per-policy (wtp, g) posterior means from an EB fit to the draw."""
    records = [
        PolicyRecord(str(j), int(data.types[j]), data.y[j], data.sigmas[j])
        for j in range(spec.J)
    ]
    result = run_shrink(records, spec.T, moments_config, npmle_config, seed=seed)
    return np.array([s.theta_star for s in result.shrunk])


@dataclass
class _Cell:
    """One (p, pipeline) cell of a regret grid and its running totals."""

    p: float
    pipeline: str
    error: Exception = None
    config: PlannerConfig = None
    n_p: float = None
    q: float = None
    gaps: list = field(default_factory=list)
    regrets: list = field(default_factory=list)
    mses: list = field(default_factory=list)

    def score(self, theta_oracle, est):
        config, n_p, q = self.config, self.n_p, self.q
        g_oracle = assemble_gradient(
            theta_oracle[:, 0], theta_oracle[:, 1], config, source="oracle"
        )
        g_pipe = assemble_gradient(est[:, 0], est[:, 1], config, source=self.pipeline)
        v_oracle, _ = solve_ball(g_oracle, config)
        v_pipe, _ = solve_ball(g_pipe, config)
        self.gaps.append(lp_norm(g_oracle.g - g_pipe.g, q) / n_p)
        self.regrets.append((g_oracle.g @ v_oracle.v - g_oracle.g @ v_pipe.v) / n_p)
        self.mses.append(float(np.mean(np.sum((est - theta_oracle) ** 2, axis=1))))

    def report(self, J, replications):
        gaps, regrets, mses = np.array(self.gaps), np.array(self.regrets), np.array(self.mses)

        def se(x):
            return float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0

        return RegretReport(
            J=J,
            p=self.p,
            pipeline=self.pipeline,
            objective_gap=float(gaps.mean()),
            rule_regret=float(regrets.mean()),
            mse_regret=float(mses.mean()),
            normalization=self.n_p,
            se_objective=se(gaps),
            se_rule=se(regrets),
            replications=replications,
            objective_gap_median=float(np.median(gaps)),
            rule_regret_median=float(np.median(regrets)),
            mse_regret_median=float(np.median(mses)),
            per_replication={
                "objective_gap": gaps.tolist(),
                "rule_regret": regrets.tolist(),
                "mse_regret": mses.tolist(),
            },
        )


def regret_grid(spec, p_list, pipelines, replications, radius=1.0,
                npmle_config=None, moments_config=None):
    """Regret against the oracle for every (p, pipeline) cell, p outermost.

    Each replication is drawn once, its oracle posterior means are computed
    once and, when an empirical-Bayes cell is still running, its prior is
    fit once; every cell is then scored from those shared results.

    Returns one entry per cell: its RegretReport, or the first ValueError
    or LinAlgError that stopped it. A draw or oracle failure stops every
    running cell, an EB fit failure every running EB cell, and a scoring
    failure its own cell. Any other error is a bug and propagates.
    """
    bad_data = (ValueError, np.linalg.LinAlgError)
    cells = [_Cell(p, pipeline) for p in p_list for pipeline in pipelines]
    for cell in cells:
        try:
            if cell.pipeline not in PIPELINES:
                raise ValueError(f"unknown pipeline {cell.pipeline!r}")
            if replications < 1:
                raise ValueError("need at least one replication")
            cell.config = PlannerConfig(mu=spec.mu, eta=spec.eta, p=cell.p, radius=radius)
            cell.n_p = normalization_factor(spec.J, cell.p)
            cell.q = dual_exponent(cell.p)
        except ValueError as exc:
            cell.error = exc
    for rep in range(replications):
        running = [c for c in cells if c.error is None]
        if not running:
            break
        try:
            data = draw(spec, rep)
            theta_oracle = oracle_posterior_means(data.y, data.sigmas, spec, data.types)
        except bad_data as exc:
            for cell in running:
                cell.error = exc
            break
        estimates = {"oracle": theta_oracle, "plug_in": data.y}
        eb_cells = [c for c in running if c.pipeline == "empirical_bayes"]
        if eb_cells:
            try:
                estimates["empirical_bayes"] = _eb_estimates(
                    data, spec, npmle_config, moments_config, seed=spec.seed + rep
                )
            except bad_data as exc:
                for cell in eb_cells:
                    cell.error = exc
        for cell in running:
            if cell.error is not None:
                continue
            try:
                cell.score(theta_oracle, estimates[cell.pipeline])
            except bad_data as exc:
                cell.error = exc
    return [c.report(spec.J, replications) if c.error is None else c.error
            for c in cells]


def regret_experiment(spec, p, pipeline, replications, radius=1.0,
                      npmle_config=None, moments_config=None):
    """Normalized objective gap, rule regret, and MSE regret vs the oracle.

    The one-cell case of regret_grid; a cell's error is raised.
    """
    (outcome,) = regret_grid(spec, [p], [pipeline], replications, radius,
                             npmle_config, moments_config)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def rate_table(part, J_list, p_list, pipeline_list, replications, sigma=None,
               seed=0, npmle_config=None, heteroscedastic=False):
    """Regret experiments over the cross product of J, p and pipeline.

    A cell that fails on bad data (ValueError, LinAlgError) carries the
    error string; any other error is a bug and propagates.
    """
    if not (J_list and p_list and pipeline_list):
        raise ValueError("J_list, p_list, and pipeline_list must be nonempty")
    rows = []
    for ji, J in enumerate(J_list):
        # derive deterministic per-cell seeds from the master seed
        cell_seed = seed * 1_000_003 + ji * 101
        spec = prop32_dgp(part, J, sigma=sigma, seed=cell_seed,
                          heteroscedastic=heteroscedastic)
        outcomes = regret_grid(spec, p_list, pipeline_list, replications,
                               npmle_config=npmle_config)
        cells = [(p, pipeline) for p in p_list for pipeline in pipeline_list]
        for (p, pipeline), outcome in zip(cells, outcomes):
            if isinstance(outcome, Exception):
                rows.append(
                    {
                        "report": RegretReport(
                            J, p, pipeline, math.nan, math.nan, math.nan,
                            normalization_factor(J, p), math.nan, math.nan,
                            replications,
                        ),
                        "error": str(outcome),
                    }
                )
            else:
                rows.append({"report": outcome, "error": None})
    return rows
