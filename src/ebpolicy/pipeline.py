"""End-to-end shrinkage pipeline shared by the CLI and the bootstrap."""

from dataclasses import dataclass

import numpy as np

from . import moments, npmle, posterior


@dataclass
class ShrinkResult:
    location_scale: moments.LocationScale
    samples: list
    prior: npmle.DiscretePrior
    grid: npmle.GridSpec
    diagnostics: npmle.FitDiagnostics
    shrunk: list


def run_shrink(records, n_types, moments_config=None, npmle_config=None,
               kappa_check=False, seed=0):
    """Moments -> residualize -> NPMLE -> posterior means, in estimate space."""
    ls = moments.build_location_scale(records, n_types, moments_config)
    samples = moments.standardize(records, ls)
    # noiseless records (e.g. zero-width CIs) carry no mixing information
    # and their delta likelihoods underflow, so the prior is fit on the
    # noisy subset; the posterior returns z itself for noiseless records
    noisy = [s for s in samples if not posterior._is_degenerate(s.psi_hat)]
    npmle_config = npmle_config or npmle.NpmleConfig()
    grid = npmle.build_grid(samples, npmle_config.m, npmle_config.padding)
    if noisy:
        L = npmle.likelihood_matrix(noisy, grid)
        prior, diag = npmle.fit_npmle(
            L,
            tol=npmle_config.tol,
            max_iter=npmle_config.max_iter,
            kappa_check=kappa_check,
            restarts=npmle_config.restarts,
            seed=seed,
            atoms=grid.atoms,
        )
    else:
        k = grid.atoms.shape[0]
        prior = npmle.DiscretePrior(grid.atoms, np.full(k, 1.0 / k))
        # with no noisy record the likelihood is constant: any prior is optimal
        diag = npmle.FitDiagnostics(
            log_likelihood=0.0, iterations=0, converged=True, kkt_gap=0.0
        )
    shrunk = posterior.shrink_all(samples, prior, ls, provenance="empirical_bayes")
    return ShrinkResult(ls, samples, prior, grid, diag, shrunk)
