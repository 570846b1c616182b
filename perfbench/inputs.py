"""Benchmark-owned inputs: datasets and configs for each workload.

The datasets are drawn here with numpy's own generator from the benchmark
seed, never through ``ebpolicy.simulate`` or the test suite, so a change to
the program's random streams cannot change what the benchmark feeds it.
Numbers are written as plain float ``repr``; numpy 2 scalars repr as
``np.float64(...)``, which the CSV reader rejects.
"""

import json
import os

import numpy as np

HEADER = ["policy_id", "type", "wtp", "wtp_lb", "wtp_ub",
          "cost", "cost_lb", "cost_ub", "program_cost"]
Z_975 = 1.959963984540054

# The CLI subcommand of each workload; BENCHMARK.json says why each was chosen.
WORKLOADS = {
    "shrink_em": "shrink",
    "evaluate_grid": "evaluate",
    "simulate_rates": "simulate",
}

SHRINK_J = 1600
WELFARE_B = 50
SIMULATE = {"dgp": "prop32_part1", "J_list": [100, 400], "p_list": [2, "inf"],
            "pipelines": ["oracle", "plug_in", "empirical_bayes"], "replications": 1}
SIMULATE_CELLS = (len(SIMULATE["J_list"]) * len(SIMULATE["p_list"])
                  * len(SIMULATE["pipelines"]))


def _fmt(x):
    return repr(float(x))


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(HEADER) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _row(pid, label, w, c, half_width_w, half_width_c):
    return [pid, label, _fmt(w), _fmt(w - half_width_w), _fmt(w + half_width_w),
            _fmt(c), _fmt(c - half_width_c), _fmt(c + half_width_c), "1.0"]


def prop32_rows(seed, J=SHRINK_J):
    """Homoscedastic four-atom data: residual truths at the corners of
    [-1, 1]^2 with equal mass, alpha = 0, Omega = Sigma = I."""
    rng = np.random.default_rng([seed, 32])
    corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    tau = corners[rng.integers(0, 4, size=J)]
    y = tau + rng.standard_normal((J, 2))
    return [_row(f"p{j}", "t0", y[j, 0], y[j, 1], Z_975, Z_975) for j in range(J)]


def welfare_rows(seed):
    """A precise beneficial block and a noisy low-benefit, high-cost block
    (40 + 25 policies, two types), the shape of the welfare sign study."""
    rng = np.random.default_rng([seed, 65])
    rows = []
    for i in range(40):
        w, c = np.array([2.0, 1.0]) + rng.normal(0.0, 0.3, 2)
        rows.append(_row(f"a{i}", "good", w, c, Z_975 * 0.1, Z_975 * 0.1))
    for i in range(25):
        w, c = np.array([-3.0, 4.0]) + rng.normal(0.0, 2.0, 2)
        rows.append(_row(f"b{i}", "noisy", w, c, Z_975 * 12.0, Z_975 * 12.0))
    return rows


def build(workload, seed, workdir):
    """Write the workload's dataset and config under workdir.

    Returns (config_path, input_path or None).
    """
    os.makedirs(workdir, exist_ok=True)
    data = None
    if workload == "shrink_em":
        data = os.path.join(workdir, "prop32.csv")
        _write_rows(data, prop32_rows(seed))
        config = {
            "input": data,
            "seed": seed,
            "npmle": {"m": 30, "tol": 1e-8, "max_iter": 2000},
        }
    elif workload == "evaluate_grid":
        data = os.path.join(workdir, "welfare.csv")
        _write_rows(data, welfare_rows(seed))
        config = {
            "input": data,
            "seed": seed,
            "npmle": {"m": 40, "padding": 0.05, "tol": 1e-9, "max_iter": 20000},
            "planner": {"eta": 1.0, "radius": 1.0},
            "bootstrap": {"kappa": 0.25, "B": WELFARE_B,
                          "p_list": [2, "inf"], "mu_list": [0.5, 3.0]},
        }
    elif workload == "simulate_rates":
        config = {
            "seed": seed,
            "npmle": {"m": 30, "tol": 1e-8, "max_iter": 2000},
            "simulate": SIMULATE,
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return config_path, data
