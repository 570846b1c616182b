"""Batch command-line front end.

Subcommands: shrink, solve, evaluate, simulate, validate. One JSON config
file drives each run; --seed and --out override the config. Exit codes:
0 ok, 2 input error, 3 numeric failure.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import bootstrap, planner, posterior, simulate
from .ingest import ParseError, load_dataset
from .moments import MomentsConfig
from .npmle import NpmleConfig
from .pipeline import run_shrink
from .planner import PlannerConfig, parse_p

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class StageError(Exception):
    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


@dataclass
class RunConfig:
    input: str = None
    planner: dict = field(default_factory=dict)
    npmle: dict = field(default_factory=dict)
    moments: dict = field(default_factory=dict)
    bootstrap: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    seed: int = 0
    out: str = "."

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ParseError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def planner_config(self):
        p = dict(self.planner)
        eta = p.get("eta", 1.0)
        if isinstance(eta, list):
            eta = np.asarray(eta, float)
        return PlannerConfig(
            mu=float(p.get("mu", 1.0)),
            eta=eta,
            p=parse_p(p.get("p", 2)),
            radius=float(p.get("radius", 1.0)),
        )

    def npmle_config(self):
        n = dict(self.npmle)
        n.pop("kappa_check", None)
        return NpmleConfig(**n)

    def moments_config(self):
        return MomentsConfig(**self.moments)


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_shrink(config):
    try:
        records, labels = load_dataset(config.input)
    except (OSError, ParseError) as exc:
        raise StageError("ingest", exc) from exc
    try:
        result = run_shrink(
            records,
            len(labels),
            config.moments_config(),
            config.npmle_config(),
            kappa_check=bool(config.npmle.get("kappa_check", False)),
            seed=config.seed,
        )
    except ValueError as exc:
        stage = "estimate_scale" if "estimate_scale" in str(exc) else "shrink"
        raise StageError(stage, exc) from exc
    os.makedirs(config.out, exist_ok=True)
    posterior.write_shrunk_csv(
        records, result.shrunk, labels, os.path.join(config.out, "shrunk.csv")
    )
    _write_json(result.prior.to_dict(), os.path.join(config.out, "prior.json"))
    _write_json(
        result.diagnostics.to_dict(), os.path.join(config.out, "diagnostics.json")
    )
    _write_json(
        result.location_scale.audit_dict(), os.path.join(config.out, "moments.json")
    )
    return EXIT_OK


def read_shrunk_csv(path):
    ids, types, wtp, g = [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = {"policy_id", "wtp_star", "g_star"}
        if not needed <= set(reader.fieldnames or []):
            raise ParseError(f"shrunk CSV missing columns {needed}")
        for row in reader:
            ids.append(row["policy_id"])
            types.append(row.get("type", ""))
            wtp.append(float(row["wtp_star"]))
            g.append(float(row["g_star"]))
    return ids, types, np.array(wtp), np.array(g)


def cmd_solve(config, shrunk_path):
    try:
        ids, _, wtp, g = read_shrunk_csv(shrunk_path)
    except (OSError, ParseError, ValueError) as exc:
        raise StageError("solve/input", exc) from exc
    pcfg = config.planner_config()
    try:
        grad = planner.assemble_gradient(wtp, g, pcfg, source="empirical_bayes")
        rule, _ = planner.solve_ball(grad, pcfg)
        shrunk = [
            posterior.ShrunkEstimate(pid, 0, None, np.array([w, c]), "empirical_bayes")
            for pid, w, c in zip(ids, wtp, g)
        ]
        signs = planner.direction_signs(shrunk, pcfg)
    except ValueError as exc:
        raise StageError("solve", exc) from exc
    os.makedirs(config.out, exist_ok=True)
    planner.write_rule_csv(ids, rule, grad, os.path.join(config.out, "rule.csv"))
    planner.write_signs_csv(signs, os.path.join(config.out, "signs.csv"))
    return EXIT_OK


def cmd_evaluate(config):
    try:
        records, labels = load_dataset(config.input)
    except (OSError, ParseError) as exc:
        raise StageError("ingest", exc) from exc
    bcfg = config.bootstrap
    kappa = float(bcfg.get("kappa", 0.25))
    B = int(bcfg.get("B", 1000))
    seed = int(bcfg.get("seed", config.seed))
    p_list = [parse_p(p) for p in bcfg.get("p_list", [config.planner.get("p", 2)])]
    mu_list = [float(m) for m in bcfg.get("mu_list", [config.planner.get("mu", 1.0)])]
    base = config.planner_config()
    cells = [replace(base, p=p, mu=mu) for p in p_list for mu in mu_list]
    try:
        rows = bootstrap.evaluate_grid(
            records,
            kappa,
            B,
            cells,
            n_types=len(labels),
            seed=seed,
            moments_config=config.moments_config(),
            npmle_config=config.npmle_config(),
        )
    except (ValueError, RuntimeError) as exc:
        raise StageError("evaluate", exc) from exc
    os.makedirs(config.out, exist_ok=True)
    _write_json(rows, os.path.join(config.out, "welfare.json"))
    return EXIT_OK


def cmd_simulate(config):
    scfg = config.simulate
    if not scfg:
        raise StageError("simulate/input", "config has no simulate block")
    dgp = scfg.get("dgp", "prop32_part1")
    if dgp not in ("prop32_part1", "prop32_part2"):
        raise StageError("simulate/input", f"unknown dgp {dgp!r}")
    part = 1 if dgp.endswith("1") else 2
    try:
        rows = simulate.rate_table(
            part,
            [int(j) for j in scfg.get("J_list", [100])],
            [parse_p(p) for p in scfg.get("p_list", [2])],
            scfg.get("pipelines", ["plug_in", "empirical_bayes"]),
            int(scfg.get("replications", 20)),
            seed=int(scfg.get("seed", config.seed)),
            npmle_config=config.npmle_config(),
            heteroscedastic=bool(scfg.get("heteroscedastic", False)),
        )
    except ValueError as exc:
        raise StageError("simulate", exc) from exc
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, "rates.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "J", "p", "pipeline", "objective_gap", "rule_regret", "mse_regret",
                "se_objective", "se_rule", "replications", "error",
            ]
        )
        for row in rows:
            r = row["report"]
            writer.writerow(
                [
                    r.J,
                    "inf" if r.p == math.inf else r.p,
                    r.pipeline,
                    repr(r.objective_gap),
                    repr(r.rule_regret),
                    repr(r.mse_regret),
                    repr(r.se_objective),
                    repr(r.se_rule),
                    r.replications,
                    row["error"] or "",
                ]
            )
    return EXIT_OK


def cmd_validate(config):
    try:
        records, labels = load_dataset(config.input)
    except (OSError, ParseError) as exc:
        raise StageError("ingest", exc) from exc
    print(f"ok: {len(records)} records, {len(labels)} types ({', '.join(labels)})")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ebpolicy",
        description="Empirical Bayes shrinkage and local spending rules",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads; results are identical for any N")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("shrink", "solve", "evaluate", "simulate", "validate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        if name == "solve":
            sp.add_argument("--shrunk", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        config = RunConfig.load(args.config)
    except (OSError, ParseError, json.JSONDecodeError, TypeError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out = args.out
    try:
        if args.command == "shrink":
            return cmd_shrink(config)
        if args.command == "solve":
            return cmd_solve(config, args.shrunk)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        return cmd_validate(config)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        input_stages = ("ingest", "solve/input", "simulate/input")
        return EXIT_INPUT if exc.stage in input_stages else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
