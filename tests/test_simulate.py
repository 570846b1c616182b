import numpy as np
import pytest

from ebpolicy.moments import LocationScale, StandardizedSample
from ebpolicy.npmle import NpmleConfig
from ebpolicy.planner import INF, PlannerConfig, solve_ball
from ebpolicy.posterior import shrink_all
from ebpolicy.simulate import (
    draw,
    normalization_factor,
    oracle_gradient,
    oracle_posterior_means,
    prop32_dgp,
    rate_table,
    regret_experiment,
)

FAST_NPMLE = NpmleConfig(m=10, tol=1e-7, max_iter=1000)


class TestProp32Dgp:
    def test_part_validation(self):
        with pytest.raises(ValueError):
            prop32_dgp(3, 100)

    def test_part1_centering(self):
        spec = prop32_dgp(1, 100)
        assert spec.alpha == pytest.approx(np.zeros((1, 2)))
        assert spec.mu == -1.0 and spec.eta == 1.0

    def test_part2_shift(self):
        spec = prop32_dgp(2, 100)
        assert spec.alpha == pytest.approx(np.full((1, 2), 2.0))

    def test_residual_moments_at_scale(self):
        spec = prop32_dgp(1, 1_000_000, seed=1)
        data = draw(spec)
        assert np.abs(data.tau.mean(axis=0)).max() < 0.01
        cov = np.cov(data.tau.T)
        assert np.abs(cov - np.eye(2)).max() < 0.01

    def test_part1_gradient_support(self):
        # eta*WTP - mu*G = WTP + G in {-2, 0, 2} with frequencies (1/4, 1/2, 1/4)
        spec = prop32_dgp(1, 200_000, seed=2)
        data = draw(spec)
        combo = data.theta[:, 0] + data.theta[:, 1]
        values, counts = np.unique(np.round(combo, 9), return_counts=True)
        assert values == pytest.approx([-2.0, 0.0, 2.0])
        freqs = counts / len(combo)
        assert freqs == pytest.approx([0.25, 0.5, 0.25], abs=0.01)

    def test_part2_combination_support(self):
        spec = prop32_dgp(2, 200_000, seed=3)
        data = draw(spec)
        combo = data.theta[:, 0] + data.theta[:, 1]
        values, counts = np.unique(np.round(combo, 9), return_counts=True)
        assert values == pytest.approx([2.0, 4.0, 6.0])
        assert counts / len(combo) == pytest.approx([0.25, 0.5, 0.25], abs=0.01)

    def test_heteroscedastic_scales(self):
        spec = prop32_dgp(1, 2000, seed=4, heteroscedastic=True)
        data = draw(spec)
        diags = np.array([np.diag(s) for s in data.sigmas])
        assert diags.min() >= 0.25 - 1e-12
        assert diags.max() <= 4.0 + 1e-12
        assert len({tuple(np.diag(s)) for s in data.sigmas}) > 1

    def test_draws_deterministic_per_rep(self):
        spec = prop32_dgp(1, 50, seed=5)
        a, b = draw(spec, rep=2), draw(spec, rep=2)
        c = draw(spec, rep=3)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)


class TestOracle:
    def test_zero_noise_recovers_truth(self):
        spec = prop32_dgp(1, 40, sigma=1e-10 * np.eye(2), seed=6)
        data = draw(spec)
        theta_star = oracle_posterior_means(data.y, data.sigmas, spec, data.types)
        assert theta_star == pytest.approx(data.theta, abs=1e-4)

    def test_gradient_bounded_on_part1(self):
        spec = prop32_dgp(1, 500, seed=7)
        data = draw(spec)
        grad, _ = oracle_gradient(
            data, spec, PlannerConfig(mu=spec.mu, eta=spec.eta)
        )
        assert grad.source == "oracle"
        assert np.abs(grad.g).max() <= 2.0 + 1e-10

    def test_matches_shrink_all_path(self):
        # independent code path: standardize by hand, shrink under the true
        # prior via the posterior module, compare exactly
        spec = prop32_dgp(2, 100, seed=8)
        data = draw(spec)
        theta_star = oracle_posterior_means(data.y, data.sigmas, spec, data.types)
        eye = np.eye(2)[None]
        ls = LocationScale(
            alpha=spec.alpha,
            omega_raw=eye.copy(),
            omega=eye.copy(),
            omega_sqrt=eye.copy(),
            omega_inv_sqrt=eye.copy(),
            eigenvalues_before_repair=np.ones((1, 2)),
        )
        samples = [
            StandardizedSample(str(j), 0, data.y[j] - spec.alpha[0], data.sigmas[j])
            for j in range(spec.J)
        ]
        shrunk = shrink_all(samples, spec.prior, ls, provenance="oracle")
        alt = np.array([s.theta_star for s in shrunk])
        assert np.abs(alt - theta_star).max() < 1e-10


class TestNormalization:
    def test_finite_p(self):
        assert normalization_factor(100, 2.0) == pytest.approx(10.0)
        assert normalization_factor(1000, 1.0) == pytest.approx(1.0)
        assert normalization_factor(8, 3.0) == pytest.approx(4.0)

    def test_infinite_p(self):
        assert normalization_factor(100, INF) == 100.0


class TestRegretExperiment:
    def test_oracle_pipeline_has_zero_regret(self):
        spec = prop32_dgp(1, 60, seed=9)
        report = regret_experiment(spec, 2.0, "oracle", 3)
        assert report.objective_gap == pytest.approx(0.0, abs=1e-12)
        assert report.rule_regret == pytest.approx(0.0, abs=1e-12)
        assert report.mse_regret == pytest.approx(0.0, abs=1e-12)

    def test_rule_regret_nonnegative(self):
        spec = prop32_dgp(1, 150, seed=10)
        for pipeline in ("plug_in", "empirical_bayes"):
            report = regret_experiment(
                spec, 2.0, pipeline, 10, npmle_config=FAST_NPMLE
            )
            assert report.rule_regret >= -3.0 * report.se_rule

    def test_plug_in_sign_mistakes_persist(self):
        # part-2 shift makes plug-in sign flips persist at a roughly
        # constant per-policy frequency (~2%) no matter how large J gets
        mean_rate = {}
        for J in (100, 400, 1600):
            spec = prop32_dgp(2, J, seed=11)
            config = PlannerConfig(mu=spec.mu, eta=spec.eta, p=INF)
            rates = []
            for rep in range(10):
                data = draw(spec, rep)
                g_oracle, _ = oracle_gradient(data, spec, config)
                rule, _ = solve_ball(data.y[:, 0] + data.y[:, 1], config)
                mism = np.sign(rule.v) != np.sign(g_oracle.g)
                rates.append(mism.mean())
            mean_rate[J] = np.mean(rates)
            assert mean_rate[J] > 0.01
        assert mean_rate[1600] >= 0.5 * mean_rate[100]

    def test_validation_errors(self):
        spec = prop32_dgp(1, 10)
        with pytest.raises(ValueError):
            regret_experiment(spec, 2.0, "nope", 2)
        with pytest.raises(ValueError):
            regret_experiment(spec, 2.0, "oracle", 0)

    def test_report_carries_per_replication_values(self):
        spec = prop32_dgp(1, 40, seed=12)
        report = regret_experiment(spec, 2.0, "plug_in", 4)
        assert len(report.per_replication["objective_gap"]) == 4
        assert report.objective_gap == pytest.approx(
            np.mean(report.per_replication["objective_gap"])
        )


class TestRateTable:
    def test_cross_product_shape(self):
        rows = rate_table(1, [30, 60], [2.0], ["oracle", "plug_in"], 2, seed=13)
        assert len(rows) == 4
        assert all(r["error"] is None for r in rows)
        js = [r["report"].J for r in rows]
        assert js == [30, 30, 60, 60]

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            rate_table(1, [], [2.0], ["oracle"], 1)

    def test_deterministic(self):
        a = rate_table(1, [40], [2.0], ["plug_in"], 3, seed=14)
        b = rate_table(1, [40], [2.0], ["plug_in"], 3, seed=14)
        assert a[0]["report"].objective_gap == b[0]["report"].objective_gap

    # a cell that fails on bad data is recorded; a solver bug propagates
    def table(self):
        return rate_table(1, [30], [2.0], ["oracle", "empirical_bayes"], 1,
                          seed=15, npmle_config=FAST_NPMLE)

    def test_solver_assertion_propagates(self, monkeypatch):
        from ebpolicy import npmle

        def broken(*args, **kwargs):
            raise AssertionError("EM log-likelihood decreased")

        monkeypatch.setattr(npmle, "fit_npmle", broken)
        with pytest.raises(AssertionError, match="decreased"):
            self.table()

    def test_value_error_is_recorded(self, monkeypatch):
        from ebpolicy import npmle

        def bad_data(*args, **kwargs):
            raise ValueError("bad cell")

        monkeypatch.setattr(npmle, "fit_npmle", bad_data)
        oracle, eb = self.table()
        assert oracle["error"] is None
        assert eb["error"] == "bad cell"
        assert np.isnan(eb["report"].objective_gap)


class TestRegretGrid:
    # every (p, pipeline) cell of a J block shares replication rep's draw,
    # oracle posterior means and EB fit
    P_LIST = [2.0, INF]
    PIPELINES = ["oracle", "plug_in", "empirical_bayes"]

    def table(self, replications=2):
        return rate_table(1, [30, 40], self.P_LIST, self.PIPELINES, replications,
                          seed=16, npmle_config=FAST_NPMLE)

    def specs(self):
        return [prop32_dgp(1, J, seed=16 * 1_000_003 + ji * 101)
                for ji, J in enumerate([30, 40])]

    def cells(self):
        return [(spec, p, pipeline) for spec in self.specs()
                for p in self.P_LIST for pipeline in self.PIPELINES]

    def test_rows_equal_one_cell_runs_exactly(self):
        rows = self.table()
        assert len(rows) == 12
        for row, (spec, p, pipeline) in zip(rows, self.cells()):
            assert row["error"] is None
            one = regret_experiment(spec, p, pipeline, 2, npmle_config=FAST_NPMLE)
            assert row["report"] == one

    def test_draws_and_fits_once_per_replication(self, monkeypatch):
        from ebpolicy import simulate

        calls = {"draw": 0, "run_shrink": 0, "oracle_posterior_means": 0}

        def counted(name):
            real = getattr(simulate, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(simulate, name, counted(name))
        self.table()
        # two J blocks of two replications each
        assert calls == {"draw": 4, "run_shrink": 4, "oracle_posterior_means": 4}

    def test_fit_failure_stops_only_eb_cells(self, monkeypatch):
        from ebpolicy import npmle

        real = npmle.fit_npmle
        calls = []

        def fails_on_rep_1(*args, **kwargs):
            # each EB cell fits once per replication, in order, until it fails
            calls.append(1)
            if len(calls) % 2 == 0:
                raise ValueError("bad replication")
            return real(*args, **kwargs)

        monkeypatch.setattr(npmle, "fit_npmle", fails_on_rep_1)
        rows = self.table()
        for row, (spec, p, pipeline) in zip(rows, self.cells()):
            if pipeline == "empirical_bayes":
                assert row["error"] == "bad replication"
                assert np.isnan(row["report"].objective_gap)
                with pytest.raises(ValueError, match="bad replication"):
                    regret_experiment(spec, p, pipeline, 2, npmle_config=FAST_NPMLE)
            else:
                assert row["error"] is None
                assert row["report"] == regret_experiment(spec, p, pipeline, 2)

    def test_draw_failure_stops_every_cell(self, monkeypatch):
        from ebpolicy import simulate

        def bad_draw(spec, rep=0):
            raise np.linalg.LinAlgError("bad draw")

        monkeypatch.setattr(simulate, "draw", bad_draw)
        rows = self.table()
        assert [row["error"] for row in rows] == ["bad draw"] * 12

    def test_unknown_pipeline_is_a_cell_error(self):
        rows = rate_table(1, [30], [2.0], ["oracle", "nope"], 1, seed=17)
        assert rows[0]["error"] is None
        assert rows[1]["error"] == "unknown pipeline 'nope'"
