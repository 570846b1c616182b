import math

import numpy as np
import pytest

from ebpolicy.moments import LocationScale, StandardizedSample
from ebpolicy.npmle import DiscretePrior
from ebpolicy.posterior import (
    _kernel_weights,
    mse_regret,
    posterior_mean_residual,
    shrink_all,
    tweedie_mean,
)


def prior_at(atoms, weights=None):
    atoms = np.asarray(atoms, float)
    if weights is None:
        weights = np.full(len(atoms), 1.0 / len(atoms))
    return DiscretePrior(atoms, np.asarray(weights, float))


CORNERS = prior_at([[-1, -1], [-1, 1], [1, -1], [1, 1]])


def random_instance(rng):
    k = rng.integers(2, 8)
    atoms = rng.uniform(-3, 3, size=(k, 2))
    w = rng.dirichlet(np.ones(k))
    a = rng.normal(size=(2, 2))
    psi = a @ a.T + 0.1 * np.eye(2)
    z = rng.uniform(-4, 4, size=2)
    return z, psi, prior_at(atoms, w)


class TestPosteriorMeanResidual:
    def test_point_mass_returns_atom(self):
        prior = prior_at([[0.7, -1.3]], [1.0])
        for z in ([0, 0], [5, 5], [-2, 3]):
            assert posterior_mean_residual(z, np.eye(2), prior) == pytest.approx(
                [0.7, -1.3]
            )

    def test_symmetric_corners_at_origin(self):
        out = posterior_mean_residual([0, 0], np.eye(2), CORNERS)
        assert out == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_corners_off_center_gives_tanh(self):
        # four-term enumeration collapses to (tanh(1), 0) at z = (1, 0)
        out = posterior_mean_residual([1, 0], np.eye(2), CORNERS)
        assert out == pytest.approx([math.tanh(1.0), 0.0], abs=1e-12)

    def test_stays_in_atom_bounding_box(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z, psi, prior = random_instance(rng)
            out = posterior_mean_residual(z * 10, psi, prior)
            lo, hi = prior.atoms.min(axis=0), prior.atoms.max(axis=0)
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_extreme_observation_does_not_underflow(self):
        out = posterior_mean_residual([500.0, -500.0], np.eye(2), CORNERS)
        assert out == pytest.approx([1.0, -1.0], abs=1e-9)

    def test_contraction_with_origin_dominated_prior(self):
        prior = prior_at([[0, 0], [1, 1], [-1, 1]], [0.9, 0.05, 0.05])
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.uniform(-3, 3, size=2)
            out = posterior_mean_residual(z, np.eye(2), prior)
            assert np.linalg.norm(out) <= np.linalg.norm(z) + 1e-12

    def test_more_noise_shrinks_harder(self):
        prior = prior_at([[-1, 0], [1, 0]])
        z = np.array([0.8, 0.0])
        means = [
            abs(posterior_mean_residual(z, s * np.eye(2), prior)[0])
            for s in (0.25, 1.0, 4.0, 16.0)
        ]
        assert all(a > b for a, b in zip(means, means[1:]))


class TestTweedieMean:
    def test_point_mass(self):
        prior = prior_at([[2.0, -1.0]], [1.0])
        assert tweedie_mean([0, 0], np.diag([0.5, 2.0]), prior) == pytest.approx(
            [2.0, -1.0]
        )

    def test_matches_mixture_ratio(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            z, psi, prior = random_instance(rng)
            a = posterior_mean_residual(z, psi, prior)
            b = tweedie_mean(z, psi, prior)
            assert np.abs(a - b).max() < 1e-10

    def test_gaussian_limit_conjugate_shrinkage(self):
        # fine grid approximating N(0, I); conjugate form gives z/2
        grid = np.linspace(-5, 5, 61)
        xx, yy = np.meshgrid(grid, grid)
        atoms = np.column_stack([xx.ravel(), yy.ravel()])
        w = np.exp(-0.5 * (atoms**2).sum(axis=1))
        prior = prior_at(atoms, w / w.sum())
        out = tweedie_mean([2.0, 0.0], np.eye(2), prior)
        assert out == pytest.approx([1.0, 0.0], abs=0.02)


def identity_ls(n_types=1, alpha=None):
    alpha = np.zeros((n_types, 2)) if alpha is None else np.asarray(alpha, float)
    eye = np.repeat(np.eye(2)[None], n_types, axis=0)
    return LocationScale(
        alpha=alpha,
        omega_raw=eye.copy(),
        omega=eye.copy(),
        omega_sqrt=eye.copy(),
        omega_inv_sqrt=eye.copy(),
        eigenvalues_before_repair=np.ones((n_types, 2)),
    )


class TestShrinkAll:
    def test_point_mass_at_zero_returns_alpha(self):
        ls = identity_ls(alpha=[[3.0, -2.0]])
        samples = [
            StandardizedSample(str(i), 0, np.array([i, -i], float), np.eye(2))
            for i in range(5)
        ]
        shrunk = shrink_all(samples, prior_at([[0, 0]], [1.0]), ls)
        for s in shrunk:
            assert s.theta_star == pytest.approx([3.0, -2.0])
            assert s.provenance == "empirical_bayes"

    def test_zero_noise_on_atom_recovers_atom(self):
        ls = identity_ls()
        samples = [StandardizedSample("a", 0, np.array([1.0, -1.0]), 1e-8 * np.eye(2))]
        shrunk = shrink_all(samples, CORNERS, ls)
        assert shrunk[0].tau_star == pytest.approx([1.0, -1.0], abs=1e-6)

    def test_destandardization_invariant(self):
        rng = np.random.default_rng(3)
        alpha = np.array([[1.0, 2.0]])
        omega_sqrt = np.array([[1.5, 0.0], [0.0, 0.5]])
        ls = LocationScale(
            alpha=alpha,
            omega_raw=(omega_sqrt @ omega_sqrt)[None],
            omega=(omega_sqrt @ omega_sqrt)[None],
            omega_sqrt=omega_sqrt[None],
            omega_inv_sqrt=np.linalg.inv(omega_sqrt)[None],
            eigenvalues_before_repair=np.array([[2.25, 0.25]]),
        )
        samples = [
            StandardizedSample(str(i), 0, rng.normal(size=2), np.eye(2))
            for i in range(20)
        ]
        for s in shrink_all(samples, CORNERS, ls):
            expected = alpha[0] + omega_sqrt @ s.tau_star
            assert s.theta_star == pytest.approx(expected, abs=1e-10)

    def test_adversarial_prior_combination_bounded(self):
        # with unit eta and the corner prior, wtp* + g* stays in [-2, 2]
        rng = np.random.default_rng(4)
        samples = [
            StandardizedSample(str(i), 0, rng.uniform(-6, 6, size=2), np.eye(2))
            for i in range(300)
        ]
        for s in shrink_all(samples, CORNERS, identity_ls()):
            combo = s.theta_star[0] + s.theta_star[1]
            assert -2.0 - 1e-10 <= combo <= 2.0 + 1e-10


class TestMseRegret:
    def make(self, thetas):
        return [
            type(
                "E",
                (),
                {"theta_star": np.asarray(t, float)},
            )()
            for t in thetas
        ]

    def test_identical_is_zero(self):
        a = self.make([[1, 2], [3, 4]])
        b = self.make([[1, 2], [3, 4]])
        assert mse_regret(a, b) == 0.0

    def test_single_offset(self):
        a = self.make([[0, 0], [0, 0], [0, 0], [0, 0]])
        b = self.make([[3, 4], [0, 0], [0, 0], [0, 0]])
        assert mse_regret(a, b) == pytest.approx(25.0 / 4.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse_regret(self.make([[0, 0]]), self.make([[0, 0], [1, 1]]))


class TestVanishingMass:
    # all prior mass sits on an atom whose kernel underflows next to the
    # nearest atom's, so the max-rescaled mixture is exactly 0
    PRIOR = prior_at([[0.0, 0.0], [100.0, 100.0]], [0.0, 1.0])

    def test_kernel_weights_raise_value_error(self):
        with pytest.raises(ValueError, match="vanished"):
            _kernel_weights(np.zeros(2), np.eye(2), self.PRIOR)

    def test_tweedie_mean_raises_value_error(self):
        with pytest.raises(ValueError, match="vanished"):
            tweedie_mean(np.zeros(2), np.eye(2), self.PRIOR)
