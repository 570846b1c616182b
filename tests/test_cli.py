import json
import os

import numpy as np
import pytest

from ebpolicy.cli import main, read_shrunk_csv
from ebpolicy.ingest import Z_975, load_dataset

HEADER = "policy_id,type,wtp,wtp_lb,wtp_ub,cost,cost_lb,cost_ub,program_cost\n"


def write_config(tmp_path, name="config.json", **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(kwargs))
    return str(path)


def toy_csv(tmp_path, name="data.csv"):
    # zero-width CIs: no sampling noise, so shrinkage is a no-op
    body = (
        "p1,edu,2.0,2.0,2.0,1.0,1.0,1.0,1.0\n"
        "p2,edu,0.5,0.5,0.5,1.5,1.5,1.5,1.0\n"
        "p3,edu,-1.0,-1.0,-1.0,0.5,0.5,0.5,1.0\n"
    )
    path = tmp_path / name
    path.write_text(HEADER + body)
    return str(path)


def noisy_csv(tmp_path, n=16, name="noisy.csv", types=("edu", "tax")):
    rng = np.random.default_rng(0)
    rows = []
    hw = Z_975 * 0.5  # CI half-width for sd 0.5
    for i in range(n):
        w = rng.normal(1.0, 1.0)
        c = rng.normal(1.0, 1.0)
        t = types[i % len(types)]
        rows.append(
            f"q{i},{t},{w},{w - hw},{w + hw},{c},{c - hw},{c + hw},1.0\n"
        )
    path = tmp_path / name
    path.write_text(HEADER + "".join(rows))
    return str(path)


FAST_NPMLE = {"m": 8, "tol": 1e-7, "max_iter": 500}


class TestShrink:
    def test_zero_noise_identity(self, tmp_path):
        data = toy_csv(tmp_path)
        cfg = write_config(
            tmp_path, input=data, out=str(tmp_path / "out"), npmle=FAST_NPMLE
        )
        assert main(["shrink", "--config", cfg]) == 0
        ids, _, wtp, g = read_shrunk_csv(str(tmp_path / "out" / "shrunk.csv"))
        assert ids == ["p1", "p2", "p3"]
        assert wtp == pytest.approx([2.0, 0.5, -1.0], abs=1e-8)
        assert g == pytest.approx([1.0, 1.5, 0.5], abs=1e-8)
        for artifact in ("prior.json", "diagnostics.json", "moments.json"):
            assert (tmp_path / "out" / artifact).exists()

    def test_single_record_type_exits_3_naming_stage(self, tmp_path, capsys):
        body = (
            "p1,edu,2.0,1.0,3.0,1.0,0.5,1.5,1.0\n"
            "p2,edu,1.0,0.0,2.0,1.0,0.5,1.5,1.0\n"
            "p3,tax,1.0,0.0,2.0,1.0,0.5,1.5,1.0\n"
        )
        data = tmp_path / "d.csv"
        data.write_text(HEADER + body)
        cfg = write_config(tmp_path, input=str(data), npmle=FAST_NPMLE)
        assert main(["shrink", "--config", cfg]) == 3
        assert "estimate_scale" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(HEADER + "p1,edu,xx,0,2,0.5,0,1,1\n")
        cfg = write_config(tmp_path, input=str(data))
        assert main(["shrink", "--config", cfg]) == 2
        assert "ingest" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, input=str(tmp_path / "absent.csv"))
        assert main(["shrink", "--config", cfg]) == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, input="x.csv", bogus_key=1)
        assert main(["shrink", "--config", cfg]) == 2
        assert "config" in capsys.readouterr().err


class TestSolve:
    def shrunk(self, tmp_path):
        data = noisy_csv(tmp_path)
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, input=data, out=out, npmle=FAST_NPMLE)
        assert main(["shrink", "--config", cfg]) == 0
        return cfg, os.path.join(out, "shrunk.csv")

    def test_rule_and_signs_outputs(self, tmp_path):
        cfg, shrunk = self.shrunk(tmp_path)
        assert main(["solve", "--config", cfg, "--shrunk", shrunk]) == 0
        rule_path = tmp_path / "out" / "rule.csv"
        signs_path = tmp_path / "out" / "signs.csv"
        assert rule_path.exists() and signs_path.exists()
        import csv

        with open(rule_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        v = np.array([float(r["v_j"]) for r in rows])
        assert np.linalg.norm(v) <= 1.0 + 1e-10
        ids, _, wtp, g = read_shrunk_csv(shrunk)
        grad = wtp - 1.0 * g  # default planner: eta=1, mu=1
        for r, gj in zip(rows, grad):
            assert float(r["g_j"]) == pytest.approx(gj, abs=1e-12)
            assert r["source"] == "empirical_bayes"
        with open(signs_path, newline="") as fh:
            sign_rows = list(csv.DictReader(fh))
        assert [r["policy_id"] for r in sign_rows] == ids

    def test_missing_shrunk_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(
            ["solve", "--config", cfg, "--shrunk", str(tmp_path / "absent.csv")]
        )
        assert code == 2


class TestEvaluate:
    def test_welfare_json_grid(self, tmp_path):
        data = noisy_csv(tmp_path, n=10, types=("edu",))
        cfg = write_config(
            tmp_path,
            input=data,
            out=str(tmp_path / "out"),
            npmle=FAST_NPMLE,
            planner={"mu": 0.5, "p": 2},
            bootstrap={"kappa": 0.25, "B": 2, "p_list": [2, "inf"], "mu_list": [0.5]},
        )
        assert main(["evaluate", "--config", cfg]) == 0
        rows = json.loads((tmp_path / "out" / "welfare.json").read_text())
        assert len(rows) == 4  # 2 p-values x 1 mu x 2 pipelines
        assert {r["pipeline"] for r in rows} == {"empirical_bayes", "plug_in"}
        assert {str(r["V"]["p"]) for r in rows} == {"2.0", "inf"}
        for r in rows:
            assert r["B"] == 2 and np.isfinite(r["mean"])

    def test_grid_couples_and_fits_once_per_replication(self, tmp_path, monkeypatch):
        # every (p, mu) cell and both pipelines share replication b's draw and fit
        from ebpolicy import bootstrap

        calls = {"couple": 0, "run_shrink": 0}

        def counted(name):
            real = getattr(bootstrap, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(bootstrap, name, counted(name))
        data = noisy_csv(tmp_path, n=10, types=("edu",))
        cfg = write_config(
            tmp_path,
            input=data,
            out=str(tmp_path / "out"),
            npmle=FAST_NPMLE,
            bootstrap={"kappa": 0.25, "B": 3, "p_list": [2, "inf"],
                       "mu_list": [0.5, 3.0]},
        )
        assert main(["evaluate", "--config", cfg]) == 0
        rows = json.loads((tmp_path / "out" / "welfare.json").read_text())
        assert len(rows) == 8
        assert calls == {"couple": 3, "run_shrink": 3}


class TestSimulate:
    def test_rates_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            out=str(tmp_path / "out"),
            npmle=FAST_NPMLE,
            simulate={
                "dgp": "prop32_part1",
                "J_list": [30],
                "p_list": [2],
                "pipelines": ["plug_in", "oracle"],
                "replications": 2,
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        import csv

        with open(tmp_path / "out" / "rates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["J"] == "30"
        oracle = [r for r in rows if r["pipeline"] == "oracle"][0]
        assert float(oracle["rule_regret"]) == pytest.approx(0.0, abs=1e-12)
        assert all(r["error"] == "" for r in rows)

    def test_missing_block_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", cfg]) == 2
        assert "simulate" in capsys.readouterr().err

    def test_unknown_dgp_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, simulate={"dgp": "nope"})
        assert main(["simulate", "--config", cfg]) == 2


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, input=toy_csv(tmp_path))
        assert main(["validate", "--config", cfg]) == 0
        assert "3 records, 1 types" in capsys.readouterr().out

    def test_duplicate_ids_exit_2(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text(HEADER + "p1,edu,1,0,2,1,0,2,1\np1,edu,1,0,2,1,0,2,1\n")
        cfg = write_config(tmp_path, input=str(data))
        assert main(["validate", "--config", cfg]) == 2


class TestDeterminism:
    def read_all(self, out):
        blobs = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name] = fh.read()
        return blobs

    def test_shrink_byte_identical_across_runs_and_threads(self, tmp_path):
        data = noisy_csv(tmp_path)
        outs = []
        for i, threads in enumerate(("1", "1", "4")):
            out = str(tmp_path / f"out{i}")
            cfg = write_config(
                tmp_path, name=f"c{i}.json", input=data, out=out,
                npmle=FAST_NPMLE, seed=42,
            )
            args = ["--threads", threads, "shrink", "--config", cfg]
            assert main(args) == 0
            outs.append(self.read_all(out))
        assert outs[0] == outs[1] == outs[2]

    def test_seed_override_changes_nothing_for_fixed_data(self, tmp_path):
        # shrink is deterministic given data; the seed only feeds restarts
        data = toy_csv(tmp_path)
        cfg = write_config(
            tmp_path, input=data, out=str(tmp_path / "o"), npmle=FAST_NPMLE
        )
        assert main(["shrink", "--config", cfg, "--seed", "7"]) == 0
        first = self.read_all(str(tmp_path / "o"))
        assert main(["shrink", "--config", cfg, "--seed", "7"]) == 0
        assert self.read_all(str(tmp_path / "o")) == first

    def test_evaluate_byte_identical(self, tmp_path):
        data = noisy_csv(tmp_path, n=8, types=("edu",))
        blobs = []
        for i in range(2):
            out = str(tmp_path / f"e{i}")
            cfg = write_config(
                tmp_path, name=f"e{i}.json", input=data, out=out,
                npmle=FAST_NPMLE,
                bootstrap={"kappa": 0.25, "B": 2, "mu_list": [0.5]},
            )
            assert main(["evaluate", "--config", cfg]) == 0
            blobs.append(self.read_all(out))
        assert blobs[0] == blobs[1]

    def test_round_trip_shrunk_csv(self, tmp_path):
        data = toy_csv(tmp_path)
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, input=data, out=out, npmle=FAST_NPMLE)
        assert main(["shrink", "--config", cfg]) == 0
        ids, types, wtp, g = read_shrunk_csv(os.path.join(out, "shrunk.csv"))
        assert len(ids) == len(types) == len(wtp) == len(g) == 3

    def test_invalid_threads(self, capsys):
        assert main(["--threads", "0", "validate", "--config", "x"]) == 2
