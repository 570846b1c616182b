import numpy as np
import pytest

from ebpolicy.bootstrap import (
    couple,
    evaluate_pipeline,
    evaluate_rule,
    standard_normal_pairs,
)
from ebpolicy.ingest import PolicyRecord
from ebpolicy.planner import PlannerConfig


def rec(pid, y, sigma=None):
    return PolicyRecord(
        pid, 0, np.asarray(y, float),
        np.eye(2) if sigma is None else np.asarray(sigma, float),
    )


def identity_records(y):
    return [rec(str(j), yj) for j, yj in enumerate(np.atleast_2d(y))]


class TestCouple:
    def test_zero_noise_hook(self):
        records = identity_records([[1.0, 2.0], [-3.0, 0.5]])
        draws = couple(records, 0.25, seed=0, xi=np.zeros((2, 2)))
        y = np.array([r.y for r in records])
        assert draws.y1 == pytest.approx(y)
        assert draws.y2 == pytest.approx(y)

    def test_coupling_identity(self):
        rng = np.random.default_rng(0)
        records = [
            rec(str(j), rng.normal(size=2), np.diag(rng.uniform(0.2, 2.0, 2)))
            for j in range(50)
        ]
        for kappa in (0.25, 1.0, 4.0):
            draws = couple(records, kappa, seed=7)
            y = np.array([r.y for r in records])
            lhs = draws.y1 + kappa * draws.y2
            assert np.abs(lhs - (1.0 + kappa) * y).max() < 1e-10

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            couple(identity_records([[0, 0]]), 0.0, seed=0)

    def test_quarter_kappa_variance_multipliers(self):
        # kappa = 1/4: Var(y1) = 1.25 Sigma, Var(y2) = 5 Sigma, with the
        # sampling variance of y itself included in both draws
        rng = np.random.default_rng(3)
        n = 100_000
        y1 = np.zeros((n, 2))
        y2 = np.zeros((n, 2))
        for b in range(n):
            records = identity_records([rng.standard_normal(2)])
            d = couple(records, 0.25, seed=3, rep=b)
            y1[b], y2[b] = d.y1[0], d.y2[0]
        assert np.cov(y1.T) == pytest.approx(1.25 * np.eye(2), abs=0.025)
        assert np.cov(y2.T) == pytest.approx(5.0 * np.eye(2), abs=0.1)
        cross = (y1 - y1.mean(0)).T @ (y2 - y2.mean(0)) / (n - 1)
        assert np.abs(cross).max() < 0.02

    def test_determinism_and_distinct_reps(self):
        records = identity_records([[1.0, -1.0], [0.0, 2.0]])
        a = couple(records, 0.25, seed=11, rep=5)
        b = couple(records, 0.25, seed=11, rep=5)
        c = couple(records, 0.25, seed=11, rep=6)
        assert np.array_equal(a.y1, b.y1) and np.array_equal(a.y2, b.y2)
        assert not np.array_equal(a.y1, c.y1)

    def test_counter_keys_independent_of_order(self):
        full = standard_normal_pairs(4, 0, 10)
        assert standard_normal_pairs(4, 0, 3) == pytest.approx(full[:3])


class TestEvaluateRule:
    def test_zero_rule(self):
        records = identity_records([[1.0, 2.0], [3.0, 4.0]])
        draws = couple(records, 0.25, seed=0)
        val = evaluate_rule(
            lambda y1, s: np.zeros(2), draws, records, PlannerConfig(mu=1.0)
        )
        assert val == 0.0

    def test_single_policy_arithmetic(self):
        # v = 1, y2 = (2, 1), eta = 1, mu = 0.5 -> 2 - 0.5 = 1.5
        records = identity_records([[2.0, 1.0]])
        draws = couple(records, 1.0, seed=0, xi=np.zeros((1, 2)))
        val = evaluate_rule(
            lambda y1, s: np.ones(1), draws, records, PlannerConfig(mu=0.5)
        )
        assert val == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        records = identity_records([[0, 0], [0, 0]])
        draws = couple(records, 0.25, seed=0)
        with pytest.raises(ValueError):
            evaluate_rule(
                lambda y1, s: np.zeros(3), draws, records, PlannerConfig(mu=0.0)
            )

    def test_unbiased_for_fixed_rule(self):
        rng = np.random.default_rng(1)
        theta = rng.normal(size=(5, 2))
        records = [rec(str(j), theta[j]) for j in range(5)]
        v = rng.normal(size=5)
        config = PlannerConfig(mu=0.7, eta=1.0)
        truth = float(v @ (theta[:, 0] - 0.7 * theta[:, 1]))
        vals = np.array(
            [
                evaluate_rule(
                    lambda y1, s: v, couple(records, 0.25, seed=2, rep=b),
                    records, config,
                )
                for b in range(100_000)
            ]
        )
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - truth) < 3 * se

    def test_unbiased_for_adaptive_sorting_rule(self):
        # a rule that chases the largest training-draw benefit is still
        # scored without bias because the evaluation draw is independent
        rng = np.random.default_rng(2)
        theta = rng.normal(size=(4, 2))
        config = PlannerConfig(mu=0.0)

        def rule(y1, sigmas):
            v = np.zeros(len(y1))
            v[int(np.argmax(y1[:, 0]))] = 1.0
            return v

        n = 200_000
        vals = np.zeros(n)
        picks = np.zeros(n, int)
        for b in range(n):
            y = theta + rng.standard_normal((4, 2))
            records = [rec(str(j), y[j]) for j in range(4)]
            draws = couple(records, 0.25, seed=5, rep=b)
            picks[b] = int(np.argmax(draws.y1[:, 0]))
            vals[b] = evaluate_rule(rule, draws, records, config)
        # truth: E[theta_{pick,1}] with pick measurable w.r.t. y1 only
        truth = theta[picks, 0].mean()
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - truth) < 3 * se


def noisy_records():
    rng = np.random.default_rng(3)
    return [
        rec(str(j), rng.normal(size=2) + [2.0, 1.0], 0.5 * np.eye(2))
        for j in range(12)
    ]


class TestEvaluatePipeline:
    def records(self):
        return noisy_records()

    def test_b1_reduces_to_single_evaluation(self):
        records = self.records()
        config = PlannerConfig(mu=0.5, p=2.0)
        out = evaluate_pipeline(records, 0.25, 1, config, "plug_in", seed=9)
        from ebpolicy.bootstrap import _plug_in_rule

        draws = couple(records, 0.25, seed=9, rep=0)
        expected = evaluate_rule(
            lambda y1, s: _plug_in_rule(y1, s, config), draws, records, config
        )
        assert out["mean"] == pytest.approx(expected)
        assert out["B"] == 1 and out["dropped"] == 0
        assert out["std_error"] == 0.0

    def test_output_shape_and_inf_token(self):
        config = PlannerConfig(mu=0.5, p=np.inf)
        out = evaluate_pipeline(self.records(), 0.25, 3, config, "plug_in", seed=1)
        assert out["V"] == {"p": "inf", "radius": 1.0}
        assert set(out) == {
            "pipeline", "V", "mu", "kappa", "B", "mean", "std_error", "dropped",
        }

    def test_rejects_unknown_pipeline(self):
        with pytest.raises(ValueError):
            evaluate_pipeline(self.records(), 0.25, 1, PlannerConfig(mu=0), "foo")

    def test_std_error_shrinks_with_b(self):
        config = PlannerConfig(mu=0.5, p=2.0)
        records = self.records()
        se = {}
        for B in (200, 800):
            out = evaluate_pipeline(records, 0.25, B, config, "plug_in", seed=4)
            se[B] = out["std_error"]
        ratio = se[200] / se[800]
        assert 1.6 <= ratio <= 2.4  # 1/sqrt(4) scaling within 20%

    def test_deterministic_across_calls(self):
        config = PlannerConfig(mu=0.5, p=2.0)
        records = self.records()
        a = evaluate_pipeline(records, 0.25, 5, config, "plug_in", seed=6)
        b = evaluate_pipeline(records, 0.25, 5, config, "plug_in", seed=6)
        assert a == b

    def test_eb_pipeline_runs(self):
        from ebpolicy.npmle import NpmleConfig

        config = PlannerConfig(mu=0.5, p=2.0)
        out = evaluate_pipeline(
            self.records(), 0.25, 2, config, "empirical_bayes", seed=8,
            npmle_config=NpmleConfig(m=8, max_iter=500, tol=1e-7),
        )
        assert out["dropped"] == 0
        assert np.isfinite(out["mean"])

    # bad data drops a replication; a solver bug must surface
    def run_eb(self, B=2):
        from ebpolicy.npmle import NpmleConfig

        return evaluate_pipeline(
            self.records(), 0.25, B, PlannerConfig(mu=0.5, p=2.0),
            "empirical_bayes", seed=8,
            npmle_config=NpmleConfig(m=8, max_iter=500, tol=1e-7),
        )

    def test_solver_assertion_propagates(self, monkeypatch):
        from ebpolicy import npmle

        def broken(*args, **kwargs):
            raise AssertionError("EM log-likelihood decreased")

        monkeypatch.setattr(npmle, "fit_npmle", broken)
        with pytest.raises(AssertionError, match="decreased"):
            self.run_eb()

    def test_value_error_is_dropped_and_counted(self, monkeypatch):
        from ebpolicy import npmle

        real = npmle.fit_npmle
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("bad replication")
            return real(*args, **kwargs)

        monkeypatch.setattr(npmle, "fit_npmle", fails_once)
        out = self.run_eb(B=3)
        assert out["dropped"] == 1
        assert np.isfinite(out["mean"])


class TestEvaluateGrid:
    # the 2 x 2 (p, mu) grid of the paper's welfare application
    CONFIGS = [PlannerConfig(mu=mu, p=p) for p in (2.0, np.inf) for mu in (0.5, 3.0)]
    B = 3

    def records(self):
        return noisy_records()

    def npmle_config(self):
        from ebpolicy.npmle import NpmleConfig

        return NpmleConfig(m=8, max_iter=500, tol=1e-7)

    def grid(self):
        from ebpolicy.bootstrap import evaluate_grid

        return evaluate_grid(self.records(), 0.25, self.B, self.CONFIGS, seed=8,
                             npmle_config=self.npmle_config())

    def one_cell(self, config, pipeline):
        return evaluate_pipeline(self.records(), 0.25, self.B, config, pipeline,
                                 seed=8, npmle_config=self.npmle_config())

    def reference(self, config, pipeline):
        # one cell computed the way a per-cell loop does it: couple, refit and
        # score every replication afresh
        from dataclasses import replace

        from ebpolicy.pipeline import run_shrink
        from ebpolicy.planner import assemble_gradient, solve_ball

        records = self.records()

        def rule(y1, sigmas):
            if pipeline == "plug_in":
                wtp, g = y1[:, 0], y1[:, 1]
            else:
                train = [replace(r, y=y1[j], sigma=1.25 * r.sigma)
                         for j, r in enumerate(records)]
                shrunk = run_shrink(train, 1, None, self.npmle_config(), seed=8).shrunk
                wtp = np.array([s.theta_star[0] for s in shrunk])
                g = np.array([s.theta_star[1] for s in shrunk])
            v, _ = solve_ball(assemble_gradient(wtp, g, config, source=pipeline), config)
            return v.v

        values = np.array([
            evaluate_rule(rule, couple(records, 0.25, 8, rep=b), records, config)
            for b in range(self.B)
        ])
        return float(values.mean()), float(values.std(ddof=1) / np.sqrt(self.B))

    def cells(self):
        return [(c, p) for c in self.CONFIGS for p in ("empirical_bayes", "plug_in")]

    def test_rows_equal_one_cell_runs_exactly(self):
        rows = self.grid()
        assert len(rows) == 8
        for row, (config, pipeline) in zip(rows, self.cells()):
            assert row == self.one_cell(config, pipeline)
            assert (row["mean"], row["std_error"]) == self.reference(config, pipeline)
            assert row["dropped"] == 0

    def test_fit_failure_drops_only_eb_cells(self, monkeypatch):
        from ebpolicy import npmle

        real = npmle.fit_npmle
        calls = []

        def fails_on_rep_1(*args, **kwargs):
            # every EB evaluation fits once per replication, in order
            calls.append(1)
            if len(calls) % self.B == 2:
                raise ValueError("bad replication")
            return real(*args, **kwargs)

        monkeypatch.setattr(npmle, "fit_npmle", fails_on_rep_1)
        rows = self.grid()
        assert len(calls) == self.B
        for row, (config, pipeline) in zip(rows, self.cells()):
            assert row["dropped"] == (1 if pipeline == "empirical_bayes" else 0)
            assert row == self.one_cell(config, pipeline)

    def test_couple_failure_drops_every_cell(self, monkeypatch):
        from ebpolicy import bootstrap

        real = bootstrap.couple

        def fails_on_rep_1(records, kappa, seed, rep=0, xi=None):
            if rep == 1:
                raise np.linalg.LinAlgError("bad coupling")
            return real(records, kappa, seed, rep=rep, xi=xi)

        monkeypatch.setattr(bootstrap, "couple", fails_on_rep_1)
        rows = self.grid()
        for row, (config, pipeline) in zip(rows, self.cells()):
            assert row["dropped"] == 1
            assert row == self.one_cell(config, pipeline)

    def test_scoring_failure_drops_only_its_cell(self, monkeypatch):
        from ebpolicy import bootstrap

        real = bootstrap.evaluate_rule
        target = self.CONFIGS[1]
        failed = []

        def fails_once(rule_fn, draws, records, config):
            # the first call for this config scores its EB cell at b = 0
            if config is target and not failed:
                failed.append(1)
                raise ValueError("bad score")
            return real(rule_fn, draws, records, config)

        monkeypatch.setattr(bootstrap, "evaluate_rule", fails_once)
        rows = self.grid()
        dropped = [row["dropped"] for row in rows]
        assert dropped == [0, 0, 1, 0, 0, 0, 0, 0]
