#!/usr/bin/env python3
"""ebpolicy benchmark: timed CLI runs (--trace 0) or a traced run (--trace 1).

    python3 perfbench/run.py --workload shrink_em --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy. Workloads, metric units
and bounds are those of BENCHMARK.json; ``--workload all`` runs each
workload in turn.

--trace 0: the workload's CLI command runs in fresh interpreters, one
after another (a closed loop with one client), until --seconds is spent,
at least MIN_RUNS times. Every run's outputs are checked and hashed.
Prints the end-to-end metrics as medians over the runs.

--trace 1: alternates an untraced CLI run and a traced in-process run
(traced.py) and prints the per-layer metrics of the traced runs plus
trace.overhead_s, the traced wall time minus the untraced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Results, spans and the
environment record go to .bench_out/ in the checkout.
"""

import os

# Set before numpy is imported, here and in every child: one BLAS thread was
# steadier than two on 2 cores, and idle BLAS threads in this process would
# spin on the cores the measured child needs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_RUNS = 2  # timed CLI runs per invocation, whatever --seconds says
# setup_s samples: imports at the start, then more after each timed run, so
# the median spans the whole invocation rather than one quiet or busy moment
SETUP_FIRST = 3
SETUP_EACH = 2
DEADLINE_S = 170.0  # per workload: a one-workload invocation ends inside 180 s


@dataclasses.dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    log: str  # tail of the child's combined output


def run_child(argv, env, log_path, timeout):
    """Run argv to completion; wall and user+sys CPU time of that child."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        tail = fh.read()[-2000:]
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, tail)


def source_digest():
    """SHA-256 of the program's sources and the benchmark's input code."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SRC, "ebpolicy", "**", "*.py"), recursive=True))
    for path in files + [os.path.join(HERE, "inputs.py")]:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read(path, default=""):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return default


def environment():
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = _read(os.path.join(d, "type"))
        level = _read(os.path.join(d, "level"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(d, "size"))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            commit = res.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": PINNED_ENV,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


class Bench:
    """One benchmark invocation: the workload's inputs, runs and accounting."""

    def __init__(self, workload, seed, seconds, deadline, digest):
        self.workload = workload
        self.command = inputs.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = deadline
        self.work = os.path.join(OUT, "work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        self.config, self.data = inputs.build(workload, seed, self.work)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.quality = {}
        self.hashes = []
        self.hash_key = f"{digest}:{workload}:{seed}"
        self.n = 0

    def remaining(self):
        return self.deadline - time.monotonic()

    def setup_times(self, n):
        """Wall times of n fresh interpreters importing ebpolicy.cli."""
        argv = [sys.executable, "-c", "import ebpolicy.cli"]
        log = os.path.join(self.work, "setup.log")
        walls = []
        for _ in range(n):
            child = run_child(argv, self.env, log, self.remaining())
            if child.rc != 0:
                raise SystemExit(f"import ebpolicy.cli failed:\n{child.log}")
            walls.append(child.wall)
        return walls

    def run(self, traced=False):
        """One CLI run (traced in-process when asked): check, hash, count.

        Returns the child, the path of its span record (traced and exited
        0) and its peak RSS in MB (untraced and exited; None otherwise).
        """
        self.n += 1
        out = os.path.join(self.work, f"out{self.n}")
        cli = [self.command, "--config", self.config, "--out", out]
        record = os.path.join(self.work, f"trace{self.n}.json")
        rss = os.path.join(self.work, f"rss{self.n}")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), "--record", record,
                    "--run-id", f"{self.workload}-{self.seed}-{self.n}", "--"] + cli
        else:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), rss] + cli
        child = run_child(argv, self.env, os.path.join(self.work, f"run{self.n}.log"),
                          self.remaining())
        try:
            with open(rss, encoding="ascii") as fh:
                rss_mb = int(fh.read()) / 1024.0
        except (OSError, ValueError):
            rss_mb = None  # traced, or killed before exit
        fails, sub_attempted, sub_failed = [], 0, 0
        if child.rc != 0:
            fails.append(f"exit code {child.rc}: {child.log}")
        else:
            try:
                fails, self.quality, sub_attempted, sub_failed = self.check(out)
                self.hashes.append(checks.artifact_hash(out, self.command))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                fails.append(f"output check raised {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1 + sub_attempted
        self.failed += (1 if fails else 0) + sub_failed
        self.failures += fails
        return child, (record if traced and child.rc == 0 else None), rss_mb

    def check(self, out):
        if self.command == "shrink":
            return checks.check_shrink(out, self.data)
        if self.command == "evaluate":
            return checks.check_evaluate(out, inputs.WELFARE_B)
        return checks.check_simulate(out, inputs.SIMULATE_CELLS)

    def check_determinism(self):
        """Every run of this source, workload and seed wrote the same bytes."""
        store_path = os.path.join(OUT, "hashes.json")
        try:
            with open(store_path, encoding="utf-8") as fh:
                store = json.load(fh)
        except (OSError, ValueError):
            store = {}
        known = set(self.hashes)
        if self.hash_key in store:
            known.add(store[self.hash_key])
        if len(known) > 1:
            self.failed += 1
            self.failures.append(f"artifact hashes differ across runs: {sorted(known)}")
        elif known:
            store[self.hash_key] = known.pop()
            with open(store_path, "w", encoding="utf-8") as fh:
                json.dump(store, fh, indent=1, sort_keys=True)
        return sorted(set(self.hashes))

    def keep_going(self, walls, min_runs):
        """Closed loop: start another run while it fits in --seconds."""
        if not walls:
            return True
        expected = statistics.median(walls)
        if self.remaining() < 1.5 * expected:
            return False
        return len(walls) < min_runs or sum(walls) + expected <= self.seconds

    def timed(self):
        self.setup_times(1)  # compiles bytecode, which users pay once
        setup = self.setup_times(SETUP_FIRST)
        walls, cpus, rss = [], [], []
        while self.keep_going(walls, MIN_RUNS):
            child, _, rss_mb = self.run()
            walls.append(child.wall)
            cpus.append(child.cpu)
            if rss_mb is not None:
                rss.append(rss_mb)
            if child.rc != 0:
                break
            setup += self.setup_times(SETUP_EACH)
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            # NaN only when every run was killed, and each of those counts as failed
            "peak_rss_mb": statistics.median(rss) if rss else float("nan"),
            "setup_s": statistics.median(setup),
        }
        return metrics, {"runs": len(walls), "walls": walls, "setup_samples": setup}

    def traced(self):
        self.setup_times(1)
        plain_walls, traced_walls, per_run = [], [], []
        while self.keep_going([a + b for a, b in zip(plain_walls, traced_walls)], 1):
            child, _, _ = self.run()
            plain_walls.append(child.wall)
            child, record, _ = self.run(traced=True)
            traced_walls.append(child.wall)
            if record is None:
                break
            with open(record, encoding="utf-8") as fh:
                rec = json.load(fh)
            os.replace(record, os.path.join(OUT, "results",
                                            f"spans-{self.workload}-seed{self.seed}.json"))
            derived = layers.derive(rec["spans"], rec["observations"])
            per_run.append((derived, rec))
        if not per_run:
            return None, {"runs": len(plain_walls)}
        metrics = {name: statistics.median(d[name] for d, _ in per_run)
                   for name in per_run[0][0]}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain_walls))
        last = per_run[-1][1]
        extras = {
            "runs": len(traced_walls),
            "untraced_walls": plain_walls,
            "traced_walls": traced_walls,
            "spans": len(last["spans"]),
            "absent": last["absent"],
            "observer_errors": last["observer_errors"],
            "top_self_s": layers.top_self_times(last["spans"]),
        }
        return metrics, extras


def run_workload(workload, args, deadline, digest, env_record):
    bench = Bench(workload, args.seed, args.seconds, deadline, digest)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    if args.trace:
        metrics, extras = bench.traced()
        units = PER_LAYER
    else:
        metrics, extras = bench.timed()
        units = END_TO_END
    extras["artifact_sha256"] = bench.check_determinism()
    if metrics is None:
        bench.failures.append("traced run produced no record")
        metrics = {}
    result = {
        "workload": workload,
        "why": WHY[workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failure_rate": bench.failed / max(bench.attempted, 1),
        "failures": bench.failures,
        "quality": bench.quality,
        "metrics": {k: {"value": v, "unit": units[k]["unit"]} for k, v in metrics.items()},
        "extras": extras,
        "environment": env_record,
    }
    path = os.path.join(OUT, "results",
                        f"{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)
    report(result)
    return result


def report(result):
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']}): "
          f"{result['why']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    ex = result["extras"]
    print(f"  runs {ex.get('runs')}, failure_rate {result['failure_rate']:.4g} "
          f"({result['failed']}/{result['attempted']} operations failed)")
    for key, value in result["quality"].items():
        print(f"  {key:<30} {value:>14.6g}")
    for key in ("top_self_s", "absent", "observer_errors", "artifact_sha256"):
        if ex.get(key):
            print(f"  {key}: {ex[key]}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WHY) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "ebpolicy", "cli.py")):
        print(f"error: no ebpolicy sources under {SRC}", file=sys.stderr)
        return 2
    env_record = environment()
    print("environment: " + json.dumps(env_record, sort_keys=True))
    workloads = sorted(WHY) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args, time.monotonic() + DEADLINE_S,
                            env_record["source_sha256"], env_record)
               for w in workloads]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
