"""Welfare gradient assembly and closed-form spending rules on L^p balls.

The local objective is linear in the spending direction, so maximizing it
over an L^p ball has a closed form given by the dual norm. Components of
the rule are zero wherever the gradient is zero, which makes the argmax
unique.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

INF = math.inf


@dataclass
class PlannerConfig:
    mu: float
    eta: np.ndarray | float = 1.0
    p: float = 2.0
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.p < 1:
            raise ValueError("p must be >= 1")

    def eta_vector(self, n):
        if np.isscalar(self.eta):
            return np.full(n, float(self.eta))
        eta = np.asarray(self.eta, float)
        if eta.shape != (n,):
            raise ValueError(f"eta has length {eta.shape}, expected ({n},)")
        return eta


def parse_p(value):
    """Accept numeric p or the token 'inf'."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return INF
        return float(value)
    return float(value)


def dual_exponent(p):
    """q = p/(p-1) with the p=1 <-> q=inf and p=inf <-> q=1 conventions."""
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def lp_norm(x, p):
    x = np.abs(np.asarray(x, float))
    if p == INF:
        return float(x.max()) if x.size else 0.0
    if p == 1.0:
        return float(x.sum())
    return float((x**p).sum() ** (1.0 / p))


@dataclass
class Gradient:
    g: np.ndarray
    source: str  # "oracle", "plug_in", or "empirical_bayes"


@dataclass
class SpendingRule:
    v: np.ndarray
    p: float
    radius: float


def assemble_gradient(wtp, g_cost, config, source="plug_in"):
    """Componentwise eta_j * wtp_j - mu * g_j."""
    wtp = np.asarray(wtp, float)
    g_cost = np.asarray(g_cost, float)
    if wtp.shape != g_cost.shape:
        raise ValueError("wtp and g_cost length mismatch")
    eta = config.eta_vector(wtp.shape[0])
    return Gradient(eta * wtp - config.mu * g_cost, source)


def solve_ball(gradient, config, mask=None):
    """Maximize <g, v> over the radius-scaled L^p ball.

    mask, when given, freezes v_j = 0 for masked-out policies before
    solving. Returns (SpendingRule, objective). Ties at p=1 go to the
    smallest index.
    """
    g = np.asarray(gradient.g if isinstance(gradient, Gradient) else gradient, float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient has non-finite entries")
    if mask is not None:
        g = np.where(np.asarray(mask, bool), g, 0.0)
    p, radius = config.p, config.radius
    q = dual_exponent(p)
    v = np.zeros_like(g)
    if np.any(g != 0.0):
        if p == INF:
            v = radius * np.sign(g)
        elif p == 1.0:
            j = int(np.argmax(np.abs(g)))
            v[j] = radius * np.sign(g[j])
        else:
            absg = np.abs(g)
            scale = lp_norm(g, q) ** (1.0 / (p - 1.0))
            v = radius * np.sign(g) * absg ** (1.0 / (p - 1.0)) / scale
    objective = radius * lp_norm(g, q)
    return SpendingRule(v, p, radius), objective


def objective_value(gradient, rule):
    """Rate of increase of the local objective along the rule's direction."""
    g = np.asarray(gradient.g if isinstance(gradient, Gradient) else gradient, float)
    v = rule.v if isinstance(rule, SpendingRule) else np.asarray(rule, float)
    if g.shape != v.shape:
        raise ValueError("gradient and rule length mismatch")
    return float(g @ v)


@dataclass
class DirectionSign:
    policy_id: str
    ratio: float  # wtp*/g*, nan when g* == 0
    sign_g: int
    recommended_sign: int
    note: str = ""


def direction_signs(shrunk, config):
    """Benefit/cost ratio plus the sign of the optimal spending direction.

    Implements the quadrant sign rules comparing wtp*/g* to mu/eta_j;
    degenerate cases fall back to the sign of the assembled gradient. The
    result always agrees with the gradient sign.
    """
    n = len(shrunk)
    eta = config.eta_vector(n)
    out = []
    for j, s in enumerate(shrunk):
        wtp, g = float(s.theta_star[0]), float(s.theta_star[1])
        grad_j = eta[j] * wtp - config.mu * g
        # roundoff guard: the ratio test can hit the threshold exactly while
        # the assembled gradient is off by one ulp
        scale = abs(eta[j] * wtp) + abs(config.mu * g)
        grad_sign = 0 if abs(grad_j) <= 1e-12 * scale else int(np.sign(grad_j))
        note = ""
        if g == 0.0 or eta[j] == 0.0:
            ratio = math.nan if g == 0.0 else wtp / g
            rec = grad_sign
            note = "ratio undefined" if g == 0.0 else "eta is zero; gradient sign used"
        else:
            ratio = wtp / g
            threshold = config.mu / eta[j]
            same_quadrant = (g > 0) == (eta[j] > 0)
            if ratio == threshold:
                rec = 0
            elif same_quadrant:
                rec = 1 if ratio > threshold else -1
            else:
                rec = 1 if ratio < threshold else -1
        if rec != grad_sign:
            raise ValueError(
                f"{s.policy_id}: sign rule gave {rec} but gradient sign is {grad_sign}"
            )
        out.append(DirectionSign(s.policy_id, ratio, int(np.sign(g)), rec, note))
    return out


def write_rule_csv(policy_ids, rule, gradient, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy_id", "v_j", "g_j", "source"])
        for pid, vj, gj in zip(policy_ids, rule.v, gradient.g):
            writer.writerow([pid, repr(float(vj)), repr(float(gj)), gradient.source])


def write_signs_csv(signs, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy_id", "ratio", "sign_g", "recommended_sign", "note"])
        for s in signs:
            writer.writerow(
                [s.policy_id, repr(s.ratio), s.sign_g, s.recommended_sign, s.note]
            )
