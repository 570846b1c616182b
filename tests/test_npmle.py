import math

import numpy as np
import pytest

from ebpolicy.moments import StandardizedSample
from ebpolicy.npmle import (
    DiscretePrior,
    build_grid,
    fit_npmle,
    fit_prior,
    kappa_tolerance,
    likelihood_matrix,
    log_likelihood,
    NpmleConfig,
)


def sample(z, psi=None, pid="s", t=0):
    return StandardizedSample(pid, t, np.asarray(z, float),
                              np.eye(2) if psi is None else np.asarray(psi, float))


class TestBuildGrid:
    def test_corner_samples_no_padding(self):
        grid = build_grid([sample([0, 0]), sample([1, 1])], m=2, padding=0.0)
        expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        assert {tuple(a) for a in grid.atoms} == expected

    def test_degenerate_dimension_expands(self):
        grid = build_grid([sample([0, 0]), sample([0, 1])], m=3, padding=0.0)
        assert grid.bounds[0] == pytest.approx([-1.0, 1.0])
        assert grid.bounds[1] == pytest.approx([0.0, 1.0])

    def test_covers_gaussian_samples(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((500, 2))
        grid = build_grid([sample(zi) for zi in z], m=40, padding=0.05)
        lo, hi = grid.atoms.min(axis=0), grid.atoms.max(axis=0)
        assert np.all(z >= lo) and np.all(z <= hi)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            build_grid([sample([0, 0])], m=1)


class TestLikelihoodMatrix:
    def test_density_at_atom(self):
        grid = build_grid([sample([0, 0]), sample([2, 2])], m=2, padding=0.0)
        L = likelihood_matrix([sample([0, 0])], grid)
        assert L[0, 0] == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)

    def test_monotone_decay_along_ray(self):
        grid = build_grid([sample([0, 0]), sample([1, 1])], m=2, padding=0.0)
        dists = [
            likelihood_matrix([sample([r, 0.0])], grid)[0, 0] for r in (0.5, 1, 2, 4)
        ]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_hand_computed_heteroscedastic_value(self):
        # psi = diag(4,1), q = (2,1): (1/(4 pi)) exp(-1)
        grid = build_grid([sample([0, 0]), sample([2, 1])], m=2, padding=0.0)
        L = likelihood_matrix([sample([2, 1], psi=np.diag([4.0, 1.0]))], grid)
        assert L[0, 0] == pytest.approx(math.exp(-1.0) / (4 * math.pi), rel=1e-12)

    def test_near_singular_psi_names_policy(self):
        grid = build_grid([sample([0, 0]), sample([1, 1])], m=2, padding=0.0)
        with pytest.raises(ValueError, match="bad_policy"):
            likelihood_matrix(
                [sample([0, 0], psi=np.diag([1e-12, 1.0]), pid="bad_policy")], grid
            )


class TestLogLikelihood:
    def test_single_atom(self):
        L = np.full((5, 1), 1.0 / (2 * math.pi))
        assert log_likelihood(L, np.array([1.0])) == pytest.approx(
            math.log(1.0 / (2 * math.pi))
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        L = rng.uniform(0.01, 1.0, size=(6, 4))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        perm = np.array([2, 0, 3, 1])
        assert log_likelihood(L, w) == pytest.approx(
            log_likelihood(L[:, perm], w[perm])
        )

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        L = rng.uniform(0.01, 1.0, size=(3, 2))
        w = np.array([0.3, 0.7])
        direct = np.mean([math.log(L[j] @ w) for j in range(3)])
        assert log_likelihood(L, w) == pytest.approx(direct, rel=1e-12)


class TestFitNpmle:
    def test_single_observation_concentrates_on_argmax(self):
        L = np.array([[0.1, 0.5, 0.2]])
        prior, diag = fit_npmle(L, tol=1e-14, max_iter=50000)
        assert prior.weights[1] > 0.99
        assert diag.log_likelihood == pytest.approx(math.log(0.5), abs=1e-3)

    def test_monotone_loglik_trace(self):
        rng = np.random.default_rng(3)
        L = rng.uniform(0.001, 1.0, size=(50, 20))
        _, diag = fit_npmle(L, tol=1e-12, max_iter=500)
        trace = np.array(diag.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_simplex_preserved(self):
        rng = np.random.default_rng(4)
        L = rng.uniform(0.001, 1.0, size=(30, 10))
        prior, _ = fit_npmle(L, tol=1e-12, max_iter=2000)
        assert np.all(prior.weights >= 0)
        assert prior.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_identical_samples_concentrate(self):
        # all residuals equal: nearly all mass lands in the nearest grid cell,
        # checked against brute-force simplex maximization on a 2-atom grid
        samples = [sample([0.3, -0.1], pid=str(i)) for i in range(40)]
        prior, grid, _ = fit_prior(samples, NpmleConfig(m=9, padding=0.0, tol=1e-12,
                                                        max_iter=30000))
        d = np.linalg.norm(grid.atoms - np.array([0.3, -0.1]), axis=1)
        cell = d.max() / 8  # spacing scale of the degenerate-expanded grid
        near = d <= np.sort(d)[0] + 1e-9
        # concentration within the nearest cell's neighborhood
        spacing = 2.0 / 8
        assert prior.weights[d <= spacing].sum() > 0.99

    def test_two_atom_brute_force_agreement(self):
        # 2 candidate atoms: maximize over w in [0,1] by fine scan and compare
        rng = np.random.default_rng(5)
        L = rng.uniform(0.01, 1.0, size=(25, 2))
        prior, diag = fit_npmle(L, tol=1e-14, max_iter=100000)
        ws = np.linspace(0, 1, 200001)
        lls = np.mean(np.log(np.outer(L[:, 0], ws) + np.outer(L[:, 1], 1 - ws)), axis=0)
        assert diag.log_likelihood >= lls.max() - 1e-9

    def test_kkt_fixed_point(self):
        # weights satisfying the stationarity condition are unchanged by one step
        rng = np.random.default_rng(6)
        L = rng.uniform(0.1, 1.0, size=(20, 3))
        w = np.array([0.2, 0.5, 0.3])
        for _ in range(200000):
            mix = L @ w
            w_new = w * (L.T @ (1.0 / mix)) / L.shape[0]
            if np.abs(w_new - w).max() < 1e-15:
                break
            w = w_new
        mix = L @ w
        step = w * (L.T @ (1.0 / mix)) / L.shape[0]
        assert step == pytest.approx(w, abs=1e-12)

    def test_kappa_gap_within_tolerance(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((60, 2))
        samples = [sample(zi, pid=str(i)) for i, zi in enumerate(z)]
        _, _, diag = fit_prior(
            samples, NpmleConfig(m=10, tol=1e-10, max_iter=20000),
            kappa_check=True, seed=0,
        )
        assert diag.kappa_j == pytest.approx(kappa_tolerance(60))
        assert diag.kappa_gap <= diag.kappa_j

    def test_separated_mixture_recovery(self):
        rng = np.random.default_rng(8)
        J = 500
        first = np.where(rng.random(J) < 0.5, -3.0, 3.0)
        centers = np.column_stack([first, np.zeros(J)])
        z = centers + rng.standard_normal((J, 2))
        samples = [sample(zi, pid=str(i)) for i, zi in enumerate(z)]
        prior, _, _ = fit_prior(samples, NpmleConfig(m=40, tol=1e-9, max_iter=20000))
        for center in (np.array([-3.0, 0.0]), np.array([3.0, 0.0])):
            d = np.linalg.norm(prior.atoms - center, axis=1)
            assert prior.weights[d <= 0.5].sum() >= 0.4

    def test_converged_gap_recomputed(self):
        rng = np.random.default_rng(10)
        L = rng.uniform(0.001, 1.0, size=(200, 50))
        prior, diag = fit_npmle(L, tol=1e-8, max_iter=20000)
        assert diag.converged
        f = L @ prior.weights
        gap = np.max(L.T @ (1.0 / f)) / L.shape[0] - 1.0
        assert gap <= 1e-8
        assert diag.kkt_gap == pytest.approx(gap, abs=1e-12)
        assert diag.log_likelihood == pytest.approx(np.mean(np.log(f)), abs=1e-12)

    def test_gap_just_above_tol_is_not_converged(self):
        rng = np.random.default_rng(11)
        L = rng.uniform(0.001, 1.0, size=(200, 50))
        _, capped = fit_npmle(L, tol=1e-15, max_iter=40)
        tol = capped.kkt_gap / 2
        _, diag = fit_npmle(L, tol=tol, max_iter=40)
        assert tol < diag.kkt_gap <= 10 * tol
        assert not diag.converged

    def test_convergence_flag_on_iteration_cap(self):
        rng = np.random.default_rng(9)
        L = rng.uniform(0.001, 1.0, size=(200, 50))
        _, diag = fit_npmle(L, tol=1e-15, max_iter=3)
        assert not diag.converged


def test_kappa_tolerance_positive_for_j7():
    assert kappa_tolerance(7) > 0
    # shape check against the closed form at J=100
    assert kappa_tolerance(100) == pytest.approx(
        0.03 * math.log(100 / (2 * math.pi * math.e) ** (1 / 3)), rel=1e-12
    )


def test_prior_serialization_round_trip(tmp_path):
    prior = DiscretePrior(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([0.25, 0.75]))
    path = tmp_path / "prior.json"
    prior.to_json(path)
    import json
    loaded = DiscretePrior.from_dict(json.loads(path.read_text()))
    assert loaded.atoms == pytest.approx(prior.atoms)
    assert loaded.weights == pytest.approx(prior.weights)
