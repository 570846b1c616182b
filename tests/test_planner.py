import math

import numpy as np
import pytest

from ebpolicy.planner import (
    INF,
    Gradient,
    PlannerConfig,
    SpendingRule,
    assemble_gradient,
    direction_signs,
    dual_exponent,
    lp_norm,
    objective_value,
    parse_p,
    solve_ball,
)


class Shrunk:
    """Minimal stand-in carrying the fields direction_signs needs."""

    def __init__(self, pid, wtp, g):
        self.policy_id = pid
        self.theta_star = np.array([wtp, g], float)


class TestHelpers:
    def test_parse_p_tokens(self):
        assert parse_p("inf") == INF
        assert parse_p("Infinity") == INF
        assert parse_p("2") == 2.0
        assert parse_p(1.5) == 1.5

    def test_dual_exponent_conventions(self):
        assert dual_exponent(1.0) == INF
        assert dual_exponent(INF) == 1.0
        assert dual_exponent(2.0) == 2.0
        assert dual_exponent(3.0) == pytest.approx(1.5)

    def test_lp_norm_values(self):
        x = [3.0, -4.0]
        assert lp_norm(x, 1) == 7.0
        assert lp_norm(x, 2) == pytest.approx(5.0)
        assert lp_norm(x, INF) == 4.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(mu=0.0, radius=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(mu=0.0, p=0.5)


class TestAssembleGradient:
    def test_unit_eta_negative_mu(self):
        config = PlannerConfig(mu=-1.0, eta=1.0)
        grad = assemble_gradient([1.0], [1.0], config)
        assert grad.g == pytest.approx([2.0])

    def test_zero_mu(self):
        config = PlannerConfig(mu=0.0, eta=np.array([2.0, 3.0]))
        grad = assemble_gradient([1.0, -1.0], [9.0, 9.0], config)
        assert grad.g == pytest.approx([2.0, -3.0])

    def test_marginal_value_arithmetic(self):
        # wtp 2.012, net cost 1.000, eta 1, mu 3
        config = PlannerConfig(mu=3.0, eta=1.0)
        grad = assemble_gradient([2.012], [1.000], config)
        assert grad.g == pytest.approx([-0.988])

    def test_length_mismatch(self):
        config = PlannerConfig(mu=0.0)
        with pytest.raises(ValueError):
            assemble_gradient([1.0, 2.0], [1.0], config)


class TestSolveBall:
    def test_euclidean_example(self):
        rule, obj = solve_ball(np.array([3.0, 4.0]), PlannerConfig(mu=0, p=2.0))
        assert rule.v == pytest.approx([0.6, 0.8])
        assert obj == pytest.approx(5.0)

    def test_sup_norm_sign_vector(self):
        rule, obj = solve_ball(np.array([1.0, -2.0, 0.0]), PlannerConfig(mu=0, p=INF))
        assert rule.v == pytest.approx([1.0, -1.0, 0.0])
        assert obj == pytest.approx(3.0)

    def test_l1_single_coordinate(self):
        rule, obj = solve_ball(np.array([1.0, -2.0, 0.0]), PlannerConfig(mu=0, p=1.0))
        assert rule.v == pytest.approx([0.0, -1.0, 0.0])
        assert obj == pytest.approx(2.0)

    def test_l1_tie_goes_to_smallest_index(self):
        rule, _ = solve_ball(np.array([2.0, -2.0]), PlannerConfig(mu=0, p=1.0))
        assert rule.v == pytest.approx([1.0, 0.0])

    def test_zero_gradient(self):
        rule, obj = solve_ball(np.zeros(4), PlannerConfig(mu=0, p=2.0))
        assert rule.v == pytest.approx(np.zeros(4))
        assert obj == 0.0

    def test_zero_component_convention(self):
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            rule, _ = solve_ball(
                np.array([1.0, 0.0, -2.0]), PlannerConfig(mu=0, p=p)
            )
            assert rule.v[1] == 0.0

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(0)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            g = rng.normal(size=7)
            config = PlannerConfig(mu=0, p=p, radius=2.0)
            rule, obj = solve_ball(g, config)
            assert lp_norm(rule.v, p) <= config.radius + 1e-10
            u = rng.normal(size=(100000, 7))
            norms = (
                np.abs(u).max(axis=1)
                if p == INF
                else (np.abs(u) ** p).sum(axis=1) ** (1 / p)
            )
            u = config.radius * u / np.maximum(norms, 1e-300)[:, None]
            assert obj >= (u @ g).max() - 1e-9

    def test_duality_identity(self):
        rng = np.random.default_rng(1)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            for _ in range(50):
                g = rng.normal(size=rng.integers(1, 12))
                config = PlannerConfig(mu=0, p=p, radius=1.7)
                rule, obj = solve_ball(g, config)
                q = dual_exponent(p)
                assert obj == pytest.approx(1.7 * lp_norm(g, q), abs=1e-9)
                assert g @ rule.v == pytest.approx(obj, abs=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=6)
        for p in (1.0, 1.5, 2.0, INF):
            config = PlannerConfig(mu=0, p=p)
            base, obj = solve_ball(g, config)
            for lam in (0.1, 3.0, 250.0):
                scaled, obj_s = solve_ball(lam * g, config)
                assert scaled.v == pytest.approx(base.v, abs=1e-12)
                assert obj_s == pytest.approx(lam * obj, rel=1e-12)

    def test_mask_freezes_components(self):
        g = np.array([3.0, 4.0, 100.0])
        rule, obj = solve_ball(
            g, PlannerConfig(mu=0, p=2.0), mask=[True, True, False]
        )
        assert rule.v == pytest.approx([0.6, 0.8, 0.0])
        assert obj == pytest.approx(5.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            solve_ball(np.array([1.0, np.inf]), PlannerConfig(mu=0))

    def test_accepts_gradient_object(self):
        grad = Gradient(np.array([3.0, 4.0]), "plug_in")
        rule, obj = solve_ball(grad, PlannerConfig(mu=0, p=2.0))
        assert obj == pytest.approx(5.0)


class TestObjectiveValue:
    def test_zero_rule(self):
        assert objective_value(np.array([1.0, 2.0]), np.zeros(2)) == 0.0

    def test_orthogonal(self):
        assert objective_value(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_dot_product(self):
        g = Gradient(np.array([3.0, 4.0]), "oracle")
        rule = SpendingRule(np.array([0.6, 0.8]), 2.0, 1.0)
        assert objective_value(g, rule) == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            objective_value(np.array([1.0]), np.array([1.0, 2.0]))


class TestDirectionSigns:
    def test_increase_iff_mu_below_ratio(self):
        # benefit/cost ratio 2.012 with positive net cost and unit eta
        s = [Shrunk("kzoo", 2.012, 1.000)]
        low = direction_signs(s, PlannerConfig(mu=1.9))[0]
        high = direction_signs(s, PlannerConfig(mu=2.1))[0]
        assert low.ratio == pytest.approx(2.012)
        assert low.recommended_sign == 1
        assert high.recommended_sign == -1

    def test_high_ratio_program(self):
        s = [Shrunk("hope", 3.14, 1.0)]
        assert direction_signs(s, PlannerConfig(mu=3.0))[0].recommended_sign == 1
        assert direction_signs(s, PlannerConfig(mu=3.5))[0].recommended_sign == -1

    def test_boundary_ratio_gives_zero(self):
        s = [Shrunk("b", 2.0, 1.0)]
        assert direction_signs(s, PlannerConfig(mu=2.0))[0].recommended_sign == 0

    def test_negative_cost_quadrant(self):
        # g* < 0 flips the comparison: ratio below mu/eta means increase
        s = [Shrunk("n", 1.0, -1.0)]
        out = direction_signs(s, PlannerConfig(mu=0.5))[0]
        assert out.ratio == pytest.approx(-1.0)
        assert out.recommended_sign == 1
        assert out.sign_g == -1

    def test_zero_cost_falls_back_to_gradient(self):
        s = [Shrunk("z", 2.0, 0.0)]
        out = direction_signs(s, PlannerConfig(mu=5.0))[0]
        assert math.isnan(out.ratio)
        assert out.recommended_sign == 1
        assert "undefined" in out.note

    def test_zero_eta_falls_back_to_gradient(self):
        s = [Shrunk("e", 2.0, 1.0)]
        out = direction_signs(s, PlannerConfig(mu=3.0, eta=0.0))[0]
        assert out.recommended_sign == -1
        assert "eta" in out.note

    def test_sign_mismatch_raises(self, monkeypatch):
        # the invariant is checked by an explicit raise, which python -O keeps
        from ebpolicy import planner

        class FlippedSign:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def sign(x):
                return -np.sign(x)

        monkeypatch.setattr(planner, "np", FlippedSign())
        with pytest.raises(ValueError, match="sign rule gave 1 but gradient sign is -1"):
            direction_signs([Shrunk("kzoo", 2.012, 1.0)], PlannerConfig(mu=1.9))

    def test_matches_solver_sign_across_p(self):
        rng = np.random.default_rng(3)
        shrunk = [
            Shrunk(str(i), rng.normal(), rng.normal()) for i in range(40)
        ]
        for mu in (-1.0, 0.5, 3.0):
            config = PlannerConfig(mu=mu)
            signs = direction_signs(shrunk, config)
            wtp = np.array([s.theta_star[0] for s in shrunk])
            g_cost = np.array([s.theta_star[1] for s in shrunk])
            grad = assemble_gradient(wtp, g_cost, config)
            for p in (1.5, 2.0, 3.0, INF):
                rule, _ = solve_ball(grad, PlannerConfig(mu=mu, p=p))
                for j, s in enumerate(signs):
                    if rule.v[j] != 0.0:
                        assert s.recommended_sign == int(np.sign(rule.v[j]))
