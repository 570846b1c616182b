"""Output checks for each workload, in plain numpy.

Nothing here imports ebpolicy: the checks re-derive what they need from
the input CSV and the artifacts the CLI wrote, so a bug in the program
cannot hide itself by also being in its checker.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

Z_975 = 1.959963984540054
LOG_2PI = math.log(2.0 * math.pi)

ARTIFACTS = {
    "shrink": ["diagnostics.json", "moments.json", "prior.json", "shrunk.csv"],
    "evaluate": ["welfare.json"],
    "simulate": ["rates.csv"],
}


def artifact_hash(out_dir, command):
    """SHA-256 over the names and bytes of a subcommand's artifacts."""
    h = hashlib.sha256()
    for name in ARTIFACTS[command]:
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_input(path):
    """(y, sigma, types) from the input CSV, normalized by program cost."""
    y, sig, labels = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pc = float(row["program_cost"])
            y.append([float(row["wtp"]) / pc, float(row["cost"]) / pc])
            vw = ((float(row["wtp_ub"]) - float(row["wtp_lb"])) / (2 * Z_975)) ** 2
            vg = ((float(row["cost_ub"]) - float(row["cost_lb"])) / (2 * Z_975)) ** 2
            cov = float(row.get("sigma_cov") or 0.0)
            sig.append(np.array([[vw, cov], [cov, vg]]) / pc**2)
            labels.append(row["type"])
    order = list(dict.fromkeys(labels))
    types = np.array([order.index(t) for t in labels])
    return np.array(y), np.array(sig), types


def _inv_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs / np.sqrt(vals)) @ vecs.T


def likelihood(z, psi, atoms):
    """J x K matrix of N(z_j; atom_k, psi_j) densities."""
    det = psi[:, 0, 0] * psi[:, 1, 1] - psi[:, 0, 1] * psi[:, 1, 0]
    inv = np.linalg.inv(psi)
    q = z[:, None, :] - atoms[None, :, :]
    quad = np.einsum("jki,jil,jkl->jk", q, inv, q)
    return np.exp(-0.5 * quad - LOG_2PI - 0.5 * np.log(det)[:, None])


def kkt(L, w):
    """(mean log-likelihood, KKT gap) of weights w against likelihoods L.

    The gap is max_k (1/J) sum_j L_jk / f_j - 1 with f = L w; it is >= 0
    for any w on the simplex and 0 exactly at the NPMLE.
    """
    row_max = L.max(axis=1)
    scaled = L / row_max[:, None]  # the ratio L_jk / f_j is scale-free per row
    f = scaled @ w
    loglik = float(np.mean(np.log(f) + np.log(row_max)))
    return loglik, float(np.max(scaled.T @ (1.0 / f)) / L.shape[0] - 1.0)


def check_shrink(out_dir, input_path):
    """Recompute loglik and KKT gap from the input, moments.json and
    prior.json. Returns (failures, quality, 0, 0): a shrink run has no
    sub-operations of its own to count."""
    fails = []
    with open(os.path.join(out_dir, "moments.json"), encoding="utf-8") as fh:
        mom = json.load(fh)["types"]
    with open(os.path.join(out_dir, "prior.json"), encoding="utf-8") as fh:
        prior = json.load(fh)
    with open(os.path.join(out_dir, "diagnostics.json"), encoding="utf-8") as fh:
        diag = json.load(fh)
    y, sigma, types = _read_input(input_path)
    J = y.shape[0]
    alpha = np.array([t["alpha"] for t in mom])
    inv_sqrt = np.array([_inv_sqrt(np.array(t["omega_repaired"])) for t in mom])
    a = inv_sqrt[types]
    z = np.einsum("jab,jb->ja", a, y - alpha[types])
    psi = a @ sigma @ a
    psi = 0.5 * (psi + np.swapaxes(psi, 1, 2))
    atoms = np.array(prior["atoms"], float)
    w = np.array(prior["weights"], float)
    if w.min() < -1e-15 or abs(w.sum() - 1.0) > 1e-12:
        fails.append(f"weights off the simplex: min {w.min()}, sum {w.sum()}")
    loglik, gap = kkt(likelihood(z, psi, atoms), w)
    if not abs(loglik - diag["log_likelihood"]) <= 1e-9 * max(1.0, abs(loglik)):
        fails.append(f"loglik {loglik} != diagnostics {diag['log_likelihood']}")
    if not gap >= -1e-9:
        fails.append(f"negative KKT gap {gap}")
    with open(os.path.join(out_dir, "shrunk.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    vals = [float(r[c]) for r in rows for c in ("wtp_star", "g_star")]
    if len(rows) != J or not all(math.isfinite(v) for v in vals):
        fails.append(f"shrunk.csv has {len(rows)} rows, expected {J} finite")
    quality = {"loglik": loglik, "kkt_gap": gap,
               "support_atoms": int(np.sum(w > 1e-6)),
               "iterations": diag["iterations"]}
    return fails, quality, 0, 0


def check_evaluate(out_dir, B):
    """welfare.json holds 8 finite rows with dropped <= B. Returns
    (failures, quality, attempted replications, dropped replications)."""
    fails = []
    with open(os.path.join(out_dir, "welfare.json"), encoding="utf-8") as fh:
        rows = json.load(fh)
    if len(rows) != 8:
        fails.append(f"welfare.json has {len(rows)} rows, expected 8")
    for r in rows:
        if not (math.isfinite(r["mean"]) and math.isfinite(r["std_error"])):
            fails.append(f"non-finite welfare row {r}")
        if not 0 <= r["dropped"] <= B or r["B"] != B:
            fails.append(f"dropped {r['dropped']} outside [0, {B}]")
    attempted = sum(r["B"] for r in rows)
    dropped = sum(r["dropped"] for r in rows)
    return fails, {}, attempted, dropped


def check_simulate(out_dir, n_cells):
    """rates.csv: oracle rows are exactly 0 and no cell carries an error.
    Returns (failures, quality, attempted cells, error cells)."""
    fails = []
    with open(os.path.join(out_dir, "rates.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_cells:
        fails.append(f"rates.csv has {len(rows)} rows, expected {n_cells}")
    errors = sum(1 for r in rows if r["error"])
    if errors:
        fails.append(f"{errors} rate_table cells carry an error")
    for r in rows:
        metrics = [float(r[c]) for c in ("objective_gap", "rule_regret", "mse_regret")]
        if r["pipeline"] == "oracle" and any(m != 0.0 for m in metrics):
            fails.append(f"oracle row J={r['J']} p={r['p']} is not exactly 0")
        if not r["error"] and not all(math.isfinite(m) for m in metrics):
            fails.append(f"non-finite row J={r['J']} p={r['p']} {r['pipeline']}")
    return fails, {}, len(rows), errors
