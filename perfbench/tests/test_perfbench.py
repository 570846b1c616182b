"""Tests of the benchmark's own arithmetic, tracer and checkers.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from tracer import LAYERS, Tracer, outermost, self_times  # noqa: E402


def span(sid, start, end, parent=None, name="m.f", layer="m"):
    return (sid, name, layer, layer, start, end, parent, "run")


class TestSelfTimes:
    def test_leaf_is_its_duration(self):
        assert self_times([span(0, 1.0, 4.0)]) == {0: 3.0}

    def test_overlapping_children_counted_once_and_clipped(self):
        spans = [
            span(0, 0.0, 10.0),
            span(1, 1.0, 3.0, parent=0),
            span(2, 2.0, 5.0, parent=0),  # overlaps child 1: union is [1, 5]
            span(3, 8.0, 12.0, parent=0),  # runs past the parent: clipped to [8, 10]
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
        assert own[1] == pytest.approx(2.0)
        assert own[3] == pytest.approx(4.0)

    def test_grandchildren_only_subtract_from_their_parent(self):
        spans = [
            span(0, 0.0, 10.0),
            span(1, 2.0, 6.0, parent=0),
            span(2, 3.0, 5.0, parent=1),
        ]
        own = self_times(spans)
        assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 2.0})
        assert sum(own.values()) == pytest.approx(10.0)

    def test_outermost_skips_nested_matches(self):
        spans = [
            span(0, 0.0, 10.0, name="a.f", layer="a"),
            span(1, 1.0, 9.0, parent=0, name="b.g", layer="b"),
            span(2, 2.0, 3.0, parent=1, name="a.h", layer="a"),
            span(3, 11.0, 12.0, name="a.h", layer="a"),
        ]
        picked = outermost(spans, lambda s: s[2] == "a")
        assert [s[0] for s in picked] == [0, 3]


def _module_attrs():
    import importlib
    return {layer: dict(vars(importlib.import_module(f"ebpolicy.{layer}")))
            for layer in LAYERS}


class TestTracer:
    def test_wraps_lookup_sites_and_restores(self):
        before = _module_attrs()
        tracer = Tracer("t")
        modules = tracer.install()
        try:
            sites = [("bootstrap", "run_shrink"), ("simulate", "run_shrink"),
                     ("posterior", "_gaussian_log_kernel"), ("moments", "eigh2"),
                     ("npmle", "eigh2"), ("posterior", "eigh2")]
            # a later refactor may drop one of these imports; the rest must hold
            for site, attr in [sa for sa in sites if sa[1] in before[sa[0]]]:
                wrapped = getattr(modules[site], attr)
                assert wrapped is not before[site][attr]
                assert wrapped.__wrapped__ is before[site][attr]
            modules["linalg2"].sqrtm_psd2(np.array([[4.0, 0.0], [0.0, 9.0]]))
        finally:
            tracer.restore()
        after = _module_attrs()
        for layer in LAYERS:
            assert after[layer].keys() == before[layer].keys()
            for attr, obj in before[layer].items():
                assert after[layer][attr] is obj, f"{layer}.{attr} not restored"
        by_name = {s[1]: s for s in tracer.spans}
        outer, inner = by_name["linalg2.sqrtm_psd2"], by_name["linalg2.eigh2"]
        assert inner[6] == outer[0] and outer[6] is None
        assert outer[4] <= inner[4] <= inner[5] <= outer[5]

    def test_restores_after_an_exception(self):
        from ebpolicy import linalg2
        original = linalg2.eigh2
        tracer = Tracer("t")
        tracer.install()
        try:
            with pytest.raises(ValueError):
                linalg2.eigh2(np.zeros((3, 3)))
        finally:
            tracer.restore()
        assert linalg2.eigh2 is original
        assert tracer.spans[0][1] == "linalg2.eigh2" and tracer._stack == []

    def test_missing_hook_and_layer_are_absent(self, monkeypatch):
        from ebpolicy import npmle
        monkeypatch.delattr(npmle, "_em")
        tracer = Tracer("t", layers=LAYERS + ("no_such_layer",))
        tracer.install()
        tracer.restore()
        assert "npmle._em" in tracer.absent
        assert "no_such_layer" in tracer.absent

    def test_observer_error_does_not_fail_the_call(self):
        from ebpolicy import linalg2
        tracer = Tracer("t")

        def broken(tracer, args, result):
            raise KeyError("changed return type")

        tracer.observe("linalg2.eigh2", broken)
        tracer.install()
        try:
            vals, _ = linalg2.eigh2(np.eye(2))
        finally:
            tracer.restore()
        assert vals.tolist() == [1.0, 1.0]
        assert len(tracer.observer_errors) == 1
        assert {s[2] for s in tracer.spans} == {"linalg2", "trace"}


def _em(L, iters):
    w = np.full(L.shape[1], 1.0 / L.shape[1])
    for _ in range(iters):
        w = w * (L.T @ (1.0 / (L @ w))) / L.shape[0]
    return w


class TestKkt:
    def test_gap_vanishes_at_a_converged_fit(self):
        rng = np.random.default_rng(3)
        atoms = np.linspace(-3.0, 3.0, 7)
        x = rng.choice([-2.0, 2.0], size=300) + rng.standard_normal(300)
        L = np.exp(-0.5 * (x[:, None] - atoms[None, :]) ** 2)
        w_start, w_end = _em(L, 1), _em(L, 20000)
        ll_start, gap_start = checks.kkt(L, w_start)
        ll_end, gap_end = checks.kkt(L, w_end)
        assert 0.0 <= gap_end < 1e-8 < gap_start
        assert ll_end > ll_start
        # the gap bounds the log-likelihood still to gain
        assert ll_end - ll_start <= gap_start

    def test_row_scaling_does_not_change_the_gap(self):
        rng = np.random.default_rng(4)
        L = rng.uniform(0.01, 1.0, size=(50, 6))
        w = rng.dirichlet(np.ones(6))
        scale = np.exp(rng.uniform(-300.0, 0.0, size=50))
        _, gap = checks.kkt(L, w)
        _, gap_scaled = checks.kkt(L * scale[:, None], w)
        assert gap_scaled == pytest.approx(gap, rel=1e-10)

    def test_check_shrink_on_a_converged_cli_fit(self, tmp_path):
        from ebpolicy.cli import main
        data = tmp_path / "d.csv"
        inputs._write_rows(data, inputs.prop32_rows(seed=7, J=60))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input": str(data), "npmle": {
            "m": 4, "tol": 1e-16, "max_iter": 50000}}))
        out = tmp_path / "out"
        assert main(["shrink", "--config", str(cfg), "--out", str(out)]) == 0
        fails, quality, _, _ = checks.check_shrink(str(out), str(data))
        assert fails == []
        assert 0.0 <= quality["kkt_gap"] < 1e-6

    def test_check_shrink_flags_a_tampered_prior(self, tmp_path):
        from ebpolicy.cli import main
        data = tmp_path / "d.csv"
        inputs._write_rows(data, inputs.prop32_rows(seed=7, J=60))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input": str(data), "npmle": {"m": 4}}))
        out = tmp_path / "out"
        assert main(["shrink", "--config", str(cfg), "--out", str(out)]) == 0
        prior = json.loads((out / "prior.json").read_text())
        prior["weights"] = [1.0 / len(prior["weights"])] * len(prior["weights"])
        (out / "prior.json").write_text(json.dumps(prior))
        fails, _, _, _ = checks.check_shrink(str(out), str(data))
        assert any("loglik" in f for f in fails)


def test_cli_child_reports_its_own_peak_rss(tmp_path):
    data = tmp_path / "d.csv"
    inputs._write_rows(data, inputs.prop32_rows(seed=1, J=20))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"input": str(data)}))
    rss = tmp_path / "rss"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run([sys.executable, os.path.join(BENCH, "cli_child.py"), str(rss),
                          "validate", "--config", str(cfg)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stdout.startswith("ok: 20 records")
    assert 1000 < int(rss.read_text()) < 10_000_000  # KiB


class TestInputs:
    @pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
    def test_same_seed_same_bytes(self, tmp_path, workload):
        blobs = []
        for seed, sub in [(5, "a"), (5, "b"), (6, "c")]:
            cfg, data = inputs.build(workload, seed, str(tmp_path / sub))
            path = data or cfg
            with open(path, "rb") as fh:
                blobs.append(fh.read().replace(str(tmp_path / sub).encode(), b""))
        assert blobs[0] == blobs[1] != blobs[2]

    def test_values_are_plain_floats(self):
        for row in inputs.prop32_rows(1, J=20) + inputs.welfare_rows(1):
            for cell in row[2:]:
                float(cell)
                assert "np." not in cell


class TestDeclaredMetrics:
    def test_derive_yields_every_per_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
        derived = layers.derive([span(0, 0.0, 1.0, name="npmle._em", layer="npmle")], {})
        assert list(derived) + ["trace.overhead_s"] == per_layer
