"""Mixed-integer QCQP models for the pattern-constrained norm problems.

For each p in {1, 2, inf} the eps-margin problem is materialized as an
explicit model: binary gates, bilinear gate recursions for the region
point x and the norm argument y, the margin constraints, the domain, and
a per-p objective block (squared norm for p=2, a big-M absolute-value
linearization for p=1, a binary selector for p=inf). Bilinear terms stay
quadratic; no internal linearization of the sigma products is performed,
so the model is a faithful transcription for downstream solvers. An
assignment checker evaluates every constraint independently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundsReport
from .errors import ModelFormatError, WitnessUnavailableError
from .network import (
    ActivationPattern,
    AllSpace,
    Box,
    InputDomain,
    L2Ball,
    MlpNetwork,
    Polytope,
    check_domain_dim,
    jacobian,
)
from .norms import INF, check_norm_kind, norm_witness, operator_norm
from .regions import check_eps, witness_at_level

FORMAT_VERSION = 1

LE, GE, EQ = "<=", ">=", "="

CONTINUOUS = "continuous"
BINARY = "binary"


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: Optional[float] = None
    upper: Optional[float] = None


@dataclass(frozen=True)
class LinearConstraint:
    cid: str
    coeffs: tuple[tuple[str, float], ...]
    rel: str
    rhs: float


@dataclass(frozen=True)
class QuadraticConstraint:
    cid: str
    quad: tuple[tuple[str, str, float], ...]  # (hi, lo, coef) with index(hi) >= index(lo)
    lin: tuple[tuple[str, float], ...]
    rel: str
    rhs: float


@dataclass(frozen=True)
class Objective:
    sense: str
    quad: tuple[tuple[str, str, float], ...]
    lin: tuple[tuple[str, float], ...]
    constant: float = 0.0


@dataclass(frozen=True)
class MiqcqpModel:
    format_version: int
    p: float
    eps: float
    big_m: Optional[float]
    groups: dict[str, tuple]
    variables: tuple[Variable, ...]
    linear_constraints: tuple[LinearConstraint, ...]
    quadratic_constraints: tuple[QuadraticConstraint, ...]
    objective: Objective

    def __post_init__(self):
        index = {v.name: i for i, v in enumerate(self.variables)}
        if len(index) != len(self.variables):
            raise ModelFormatError("duplicate variable names")
        for v in self.variables:
            if v.kind not in (CONTINUOUS, BINARY):
                raise ModelFormatError(f"variable {v.name}: unknown kind {v.kind!r}")
            if v.kind == BINARY and (v.lower, v.upper) != (0.0, 1.0):
                raise ModelFormatError(f"binary variable {v.name} must carry bounds [0, 1]")

        def check_terms(cid, lin, quad=()):
            for name, _ in lin:
                if name not in index:
                    raise ModelFormatError(f"{cid}: unknown variable {name!r}")
            for a, b, _ in quad:
                if a not in index:
                    raise ModelFormatError(f"{cid}: unknown variable {a!r}")
                if b not in index:
                    raise ModelFormatError(f"{cid}: unknown variable {b!r}")
                if index[a] < index[b]:
                    raise ModelFormatError(
                        f"{cid}: quadratic term ({a},{b}) is not lower-triangular"
                    )

        for c in self.linear_constraints:
            if c.rel not in (LE, GE, EQ):
                raise ModelFormatError(f"{c.cid}: unknown relation {c.rel!r}")
            check_terms(c.cid, c.coeffs)
        for c in self.quadratic_constraints:
            if c.rel not in (LE, GE, EQ):
                raise ModelFormatError(f"{c.cid}: unknown relation {c.rel!r}")
            check_terms(c.cid, c.lin, c.quad)
        if self.objective.sense != "max":
            raise ModelFormatError(f"objective sense must be 'max', got {self.objective.sense!r}")
        check_terms("objective", self.objective.lin, self.objective.quad)

    @property
    def variable_index(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}


@dataclass(frozen=True)
class Violation:
    cid: str
    lhs: float
    rhs: float
    slack: float  # negative means violated


@dataclass(frozen=True)
class CheckResult:
    violations: tuple[Violation, ...]
    objective: float

    @property
    def feasible(self) -> bool:
        return not self.violations


def compute_bigM(net: MlpNetwork, p) -> float:
    """Valid bound on |y_L| entries given the unit-ball input normalization.

    The gate matrices never increase an induced norm, so the product of the
    plain layer norms bounds the whole y-recursion; a 1.01 safety factor
    and a floor of 1.0 guard degenerate all-zero stacks.
    """
    p = check_norm_kind(p)
    prod = 1.0
    for layer in net.layers:
        prod *= operator_norm(layer.weights, p)
    return max(1.0, 1.01 * prod)


class _Builder:
    def __init__(self):
        self.variables: list[Variable] = []
        self.index: dict[str, int] = {}
        self.linear: list[LinearConstraint] = []
        self.quadratic: list[QuadraticConstraint] = []

    def var(self, name, kind=CONTINUOUS, lower=None, upper=None) -> str:
        if name in self.index:
            raise ModelFormatError(f"duplicate variable {name}")
        self.index[name] = len(self.variables)
        self.variables.append(Variable(name, kind, lower, upper))
        return name

    def vec(self, prefix, n, **kw) -> list[str]:
        return [self.var(f"{prefix}_{i + 1}", **kw) for i in range(n)]

    def tri(self, a: str, b: str, coef: float) -> tuple[str, str, float]:
        if self.index[a] >= self.index[b]:
            return (a, b, float(coef))
        return (b, a, float(coef))

    def lin_con(self, cid, coeffs, rel, rhs):
        coeffs = tuple((n, float(c)) for n, c in coeffs if c != 0.0)
        self.linear.append(LinearConstraint(cid, coeffs, rel, float(rhs)))

    def quad_con(self, cid, quad, lin, rel, rhs):
        quad = tuple(t for t in quad if t[2] != 0.0)
        lin = tuple((n, float(c)) for n, c in lin if c != 0.0)
        self.quadratic.append(QuadraticConstraint(cid, quad, lin, rel, float(rhs)))


def build_model(
    net: MlpNetwork,
    domain: InputDomain,
    p,
    eps: float,
    *,
    linearize_inf_objective: bool = False,
) -> MiqcqpModel:
    """Materialize the eps-margin norm problem for one p as a model object."""
    p = check_norm_kind(p)
    eps = check_eps(eps)
    check_domain_dim(domain, net.input_dim)
    widths = net.widths
    L = net.depth
    n0, nL = widths[0], widths[-1]

    b = _Builder()
    x = [b.vec("x0", n0)]
    for k in range(1, L):
        x.append(b.vec(f"x{k}", widths[k]))
    sigma = [b.vec(f"sigma{k}", widths[k], kind=BINARY, lower=0.0, upper=1.0) for k in range(1, L)]
    y_bounds = {}
    if p in (1, INF):
        y_bounds = {"lower": -1.0, "upper": 1.0}
    y = [b.vec("y0", n0, **y_bounds)]
    for k in range(1, L + 1):
        y.append(b.vec(f"y{k}", widths[k]))

    big_m: Optional[float] = None
    groups: dict[str, tuple] = {
        "x": tuple(tuple(names) for names in x),
        "sigma": tuple(tuple(names) for names in sigma),
        "y": tuple(tuple(names) for names in y),
    }

    u = w = nu = mu = eta = None
    if p == 1:
        big_m = compute_bigM(net, 1)
        u = b.vec("u", n0)
        nu = b.vec("nu", n0, kind=BINARY, lower=0.0, upper=1.0)
        w = b.vec("w", nL)
        mu = b.vec("mu", nL, kind=BINARY, lower=0.0, upper=1.0)
    elif p == INF:
        u = b.vec("u", nL, lower=0.0)
        mu = b.vec("mu", nL, kind=BINARY, lower=0.0, upper=1.0)
        eta = b.vec("eta", nL, kind=BINARY, lower=0.0, upper=1.0)
        if linearize_inf_objective:
            big_m = compute_bigM(net, INF)
            w = b.vec("w", nL)
    for key, names in (("u", u), ("w", w), ("nu", nu), ("mu", mu), ("eta", eta)):
        groups[key] = tuple(names) if names is not None else ()

    # y recursion: y1 = M1 y0 (linear), yk = Mk diag(sigma_{k-1}) y_{k-1} (bilinear)
    M1 = net.layers[0].weights
    for i in range(widths[1]):
        coeffs = [(y[1][i], 1.0)] + [(y[0][j], -M1[i, j]) for j in range(n0)]
        b.lin_con(f"yrec1[{i + 1}]", coeffs, EQ, 0.0)
    for k in range(2, L + 1):
        Mk = net.layers[k - 1].weights
        for i in range(widths[k]):
            quad = [
                b.tri(sigma[k - 2][j], y[k - 1][j], -Mk[i, j])
                for j in range(widths[k - 1])
                if Mk[i, j] != 0.0
            ]
            b.quad_con(f"yrec{k}[{i + 1}]", quad, [(y[k][i], 1.0)], EQ, 0.0)

    # x recursion and margin constraints for every hidden layer
    for k in range(1, L):
        Mk = net.layers[k - 1].weights
        bk = net.layers[k - 1].bias
        for i in range(widths[k]):
            quad = [
                b.tri(sigma[k - 1][i], x[k - 1][j], -Mk[i, j])
                for j in range(widths[k - 1])
                if Mk[i, j] != 0.0
            ]
            lin = [(x[k][i], 1.0), (sigma[k - 1][i], -bk[i])]
            b.quad_con(f"xrec{k}[{i + 1}]", quad, lin, EQ, 0.0)
            quad = [
                b.tri(sigma[k - 1][i], x[k - 1][j], Mk[i, j])
                for j in range(widths[k - 1])
                if Mk[i, j] != 0.0
            ]
            lin = [(x[k - 1][j], -0.5 * Mk[i, j]) for j in range(widths[k - 1])]
            lin.append((sigma[k - 1][i], bk[i]))
            b.quad_con(f"slack{k}[{i + 1}]", quad, lin, GE, eps + 0.5 * bk[i])

    # x0 in the domain
    if isinstance(domain, Box):
        vars_ = list(b.variables)
        for j in range(n0):
            vars_[j] = Variable(x[0][j], CONTINUOUS, float(domain.lower[j]), float(domain.upper[j]))
        b.variables = vars_
    elif isinstance(domain, Polytope):
        for r in range(domain.A.shape[0]):
            coeffs = [(x[0][j], domain.A[r, j]) for j in range(n0)]
            b.lin_con(f"dom[{r + 1}]", coeffs, LE, float(domain.b[r]))
    elif isinstance(domain, L2Ball):
        c = domain.center
        quad = [(x[0][j], x[0][j], 1.0) for j in range(n0)]
        lin = [(x[0][j], -2.0 * c[j]) for j in range(n0)]
        rhs = float(domain.radius**2 - c @ c)
        b.quad_con("dom_ball", quad, lin, LE, rhs)
    elif not isinstance(domain, AllSpace):
        raise TypeError(f"unknown domain {type(domain).__name__}")

    # per-p blocks
    if p == 2:
        b.quad_con("ynorm", [(n, n, 1.0) for n in y[0]], [], LE, 1.0)
        objective = Objective("max", tuple((n, n, 1.0) for n in y[L]), (), 0.0)
    elif p == 1:
        C = big_m
        for i in range(n0):
            b.lin_con(f"u_abs_lo1[{i + 1}]", [(y[0][i], 1.0), (u[i], -1.0)], LE, 0.0)
            b.lin_con(f"u_abs_lo2[{i + 1}]", [(y[0][i], -1.0), (u[i], -1.0)], LE, 0.0)
            b.lin_con(f"u_sign_hi[{i + 1}]", [(y[0][i], 1.0), (nu[i], 1.0)], LE, 1.0)
            b.lin_con(f"u_sign_lo[{i + 1}]", [(y[0][i], 1.0), (nu[i], 1.0)], GE, 0.0)
            b.lin_con(
                f"u_abs_hi1[{i + 1}]", [(u[i], 1.0), (y[0][i], 1.0), (nu[i], 2.0)], LE, 2.0
            )
            b.lin_con(
                f"u_abs_hi2[{i + 1}]", [(u[i], 1.0), (y[0][i], -1.0), (nu[i], -2.0)], LE, 0.0
            )
        b.lin_con("u_budget", [(n, 1.0) for n in u], LE, 1.0)
        for i in range(nL):
            b.lin_con(f"w_abs_lo1[{i + 1}]", [(y[L][i], 1.0), (w[i], -1.0)], LE, 0.0)
            b.lin_con(f"w_abs_lo2[{i + 1}]", [(y[L][i], -1.0), (w[i], -1.0)], LE, 0.0)
            b.lin_con(f"w_sign_hi[{i + 1}]", [(y[L][i], 1.0), (mu[i], C)], LE, C)
            b.lin_con(f"w_sign_lo[{i + 1}]", [(y[L][i], 1.0), (mu[i], C)], GE, 0.0)
            b.lin_con(
                f"w_abs_hi1[{i + 1}]", [(w[i], 1.0), (y[L][i], 1.0), (mu[i], 2.0 * C)], LE, 2.0 * C
            )
            b.lin_con(
                f"w_abs_hi2[{i + 1}]", [(w[i], 1.0), (y[L][i], -1.0), (mu[i], -2.0 * C)], LE, 0.0
            )
        objective = Objective("max", (), tuple((n, 1.0) for n in w), 0.0)
    else:
        for i in range(nL):
            quad = [b.tri(mu[i], y[L][i], -2.0)]
            lin = [(u[i], 1.0), (y[L][i], 1.0)]
            b.quad_con(f"uabs[{i + 1}]", quad, lin, EQ, 0.0)
        b.lin_con("selector", [(n, 1.0) for n in eta], EQ, 1.0)
        if linearize_inf_objective:
            C = big_m
            for i in range(nL):
                b.lin_con(f"wlin_cap[{i + 1}]", [(w[i], 1.0), (eta[i], -C)], LE, 0.0)
                b.lin_con(f"wlin_u[{i + 1}]", [(w[i], 1.0), (u[i], -1.0)], LE, 0.0)
                b.lin_con(
                    f"wlin_lo[{i + 1}]", [(w[i], 1.0), (u[i], -1.0), (eta[i], -C)], GE, -C
                )
                b.lin_con(f"wlin_pos[{i + 1}]", [(w[i], 1.0)], GE, 0.0)
            objective = Objective("max", (), tuple((n, 1.0) for n in w), 0.0)
        else:
            objective = Objective(
                "max", tuple(b.tri(eta[i], u[i], 1.0) for i in range(nL)), (), 0.0
            )

    return MiqcqpModel(
        format_version=FORMAT_VERSION,
        p=p,
        eps=eps,
        big_m=big_m,
        groups=groups,
        variables=tuple(b.variables),
        linear_constraints=tuple(b.linear),
        quadratic_constraints=tuple(b.quadratic),
        objective=objective,
    )


# --- assignments -----------------------------------------------------------


def _eval_terms(lin, quad, values) -> float:
    total = 0.0
    for name, coef in lin:
        total += coef * values[name]
    for a, bb, coef in quad:
        total += coef * values[a] * values[bb]
    return total


def check_assignment(model: MiqcqpModel, assignment: dict, tol: float = 1e-7) -> CheckResult:
    """Evaluate every constraint, bound, and binary at the assignment.

    The returned violations are empty iff the assignment is feasible
    within tol; the objective value is always reported.
    """
    values = {}
    for v in model.variables:
        if v.name not in assignment:
            raise ModelFormatError(f"assignment is missing variable {v.name!r}")
        values[v.name] = float(assignment[v.name])
    violations: list[Violation] = []

    def judge(cid, lhs, rel, rhs):
        if rel == LE:
            slack = rhs - lhs
        elif rel == GE:
            slack = lhs - rhs
        else:
            slack = -abs(lhs - rhs)
        if slack < -tol:
            violations.append(Violation(cid, lhs, rhs, slack))

    for v in model.variables:
        val = values[v.name]
        if v.lower is not None:
            judge(f"bound_lo[{v.name}]", val, GE, v.lower)
        if v.upper is not None:
            judge(f"bound_hi[{v.name}]", val, LE, v.upper)
        if v.kind == BINARY:
            judge(f"integrality[{v.name}]", -abs(val - round(val)), GE, 0.0)
    for c in model.linear_constraints:
        judge(c.cid, _eval_terms(c.coeffs, (), values), c.rel, c.rhs)
    for c in model.quadratic_constraints:
        judge(c.cid, _eval_terms(c.lin, c.quad, values), c.rel, c.rhs)

    obj = model.objective
    value = _eval_terms(obj.lin, obj.quad, values) + obj.constant
    return CheckResult(tuple(violations), value)


def assignment_for_pattern(
    net: MlpNetwork,
    domain: InputDomain,
    p,
    eps: float,
    sigma: ActivationPattern,
    *,
    linearize_inf_objective: bool = False,
) -> dict:
    """Feasible assignment realizing the given pattern at margin level eps.

    x follows the gated forward recursion from the region witness, y the
    norm-argument recursion from the norm witness; the auxiliary binaries
    are set by their defining sign rules (zeros resolve to the bit giving
    a deterministic choice).
    """
    p = check_norm_kind(p)
    widths = net.widths
    L = net.depth
    x0 = witness_at_level(net, sigma, domain, float(eps))
    xs = [np.asarray(x0, float)]
    for k in range(1, L):
        layer = net.layers[k - 1]
        gate = np.asarray(sigma.bits[k - 1], float)
        xs.append(gate * (layer.weights @ xs[-1] + layer.bias))
    J = jacobian(net, sigma)
    y0 = norm_witness(J, p)
    ys = [np.asarray(y0, float)]
    ys.append(net.layers[0].weights @ ys[0])
    for k in range(2, L + 1):
        gate = np.asarray(sigma.bits[k - 2], float)
        ys.append(net.layers[k - 1].weights @ (gate * ys[-1]))

    values: dict[str, float] = {}

    def put(prefix, vec):
        for i, val in enumerate(np.atleast_1d(vec)):
            values[f"{prefix}_{i + 1}"] = float(val)

    for k in range(L):
        put(f"x{k}", xs[k])
    for k in range(1, L):
        put(f"sigma{k}", np.asarray(sigma.bits[k - 1], float))
    for k in range(L + 1):
        put(f"y{k}", ys[k])

    yL = np.atleast_1d(ys[L])
    if p == 1:
        put("u", np.abs(ys[0]))
        put("nu", np.where(np.atleast_1d(ys[0]) <= 0.0, 1.0, 0.0))
        put("w", np.abs(yL))
        put("mu", np.where(yL <= 0.0, 1.0, 0.0))
    elif p == INF:
        put("u", np.abs(yL))
        put("mu", np.where(yL >= 0.0, 1.0, 0.0))
        eta = np.zeros(len(yL))
        eta[int(np.abs(yL).argmax())] = 1.0
        put("eta", eta)
        if linearize_inf_objective:
            put("w", eta * np.abs(yL))
    return values


def witness_from_bounds(
    net: MlpNetwork,
    domain: InputDomain,
    p,
    eps: float,
    report: BoundsReport,
    *,
    linearize_inf_objective: bool = False,
) -> dict:
    """Assignment realizing the report's optimum at level eps.

    Its checked objective equals the reported bound (squared for p=2).
    """
    p = check_norm_kind(p)
    eps = float(eps)
    if eps == 0.0:
        sigma = report.argmax_upper
    else:
        if eps in report.eps_empty:
            raise WitnessUnavailableError(f"no pattern is feasible at eps={eps}")
        sigma = report.eps_argmax.get(eps)
    if sigma is None:
        raise WitnessUnavailableError(f"report carries no argmax pattern for eps={eps}")
    return assignment_for_pattern(
        net, domain, p, eps, sigma, linearize_inf_objective=linearize_inf_objective
    )


# --- serialization ---------------------------------------------------------


def _p_to_json(p):
    return "inf" if p == INF else p


def _p_from_json(raw):
    try:
        return check_norm_kind(raw)
    except ValueError as exc:
        raise ModelFormatError(f"metadata.p: {exc}") from exc


def _groups_to_json(groups: dict) -> dict:
    out = {}
    for k, v in groups.items():
        if k in ("x", "y", "sigma"):
            out[k] = [list(layer) for layer in v]
        else:
            out[k] = list(v)
    return out


def emit_json(model: MiqcqpModel) -> str:
    """Serialize the model; parse_json(emit_json(m)) is structurally m."""
    doc = {
        "format_version": model.format_version,
        "metadata": {
            "p": _p_to_json(model.p),
            "eps": model.eps,
            "big_m": model.big_m,
            "groups": _groups_to_json(model.groups),
        },
        "variables": [
            {"name": v.name, "kind": v.kind, "lower": v.lower, "upper": v.upper}
            for v in model.variables
        ],
        "linear_constraints": [
            {"id": c.cid, "coeffs": [[n, co] for n, co in c.coeffs], "rel": c.rel, "rhs": c.rhs}
            for c in model.linear_constraints
        ],
        "quadratic_constraints": [
            {
                "id": c.cid,
                "quad": [[a, bb, co] for a, bb, co in c.quad],
                "lin": [[n, co] for n, co in c.lin],
                "rel": c.rel,
                "rhs": c.rhs,
            }
            for c in model.quadratic_constraints
        ],
        "objective": {
            "sense": model.objective.sense,
            "quad": [[a, bb, co] for a, bb, co in model.objective.quad],
            "lin": [[n, co] for n, co in model.objective.lin],
            "constant": model.objective.constant,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _require(doc, key, path):
    if key not in doc:
        raise ModelFormatError(f"{path}: missing {key!r}")
    return doc[key]


def parse_json(text: str) -> MiqcqpModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("top level must be an object")
    version = _require(doc, "format_version", "$")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version}")
    meta = _require(doc, "metadata", "$")
    p = _p_from_json(_require(meta, "p", "metadata"))
    eps = float(_require(meta, "eps", "metadata"))
    big_m = meta.get("big_m")
    raw_groups = meta.get("groups", {})
    groups = {}
    for k, v in raw_groups.items():
        if k in ("x", "y", "sigma"):
            groups[k] = tuple(tuple(g) for g in v)
        else:
            groups[k] = tuple(v)

    variables = []
    for i, v in enumerate(_require(doc, "variables", "$")):
        path = f"variables[{i}]"
        variables.append(
            Variable(
                str(_require(v, "name", path)),
                str(_require(v, "kind", path)),
                None if v.get("lower") is None else float(v["lower"]),
                None if v.get("upper") is None else float(v["upper"]),
            )
        )

    def parse_lin(raw, path):
        out = []
        for t in raw:
            if len(t) != 2:
                raise ModelFormatError(f"{path}: linear term must be [name, coef]")
            out.append((str(t[0]), float(t[1])))
        return tuple(out)

    def parse_quad(raw, path):
        out = []
        for t in raw:
            if len(t) != 3:
                raise ModelFormatError(f"{path}: quadratic term must be [a, b, coef]")
            out.append((str(t[0]), str(t[1]), float(t[2])))
        return tuple(out)

    linear = []
    for i, c in enumerate(doc.get("linear_constraints", [])):
        path = f"linear_constraints[{i}]"
        linear.append(
            LinearConstraint(
                str(_require(c, "id", path)),
                parse_lin(_require(c, "coeffs", path), path),
                str(_require(c, "rel", path)),
                float(_require(c, "rhs", path)),
            )
        )
    quadratic = []
    for i, c in enumerate(doc.get("quadratic_constraints", [])):
        path = f"quadratic_constraints[{i}]"
        quadratic.append(
            QuadraticConstraint(
                str(_require(c, "id", path)),
                parse_quad(_require(c, "quad", path), path),
                parse_lin(c.get("lin", []), path),
                str(_require(c, "rel", path)),
                float(_require(c, "rhs", path)),
            )
        )
    raw_obj = _require(doc, "objective", "$")
    objective = Objective(
        str(_require(raw_obj, "sense", "objective")),
        parse_quad(raw_obj.get("quad", []), "objective"),
        parse_lin(raw_obj.get("lin", []), "objective"),
        float(raw_obj.get("constant", 0.0)),
    )
    return MiqcqpModel(
        format_version=version,
        p=p,
        eps=eps,
        big_m=None if big_m is None else float(big_m),
        groups=groups,
        variables=tuple(variables),
        linear_constraints=tuple(linear),
        quadratic_constraints=tuple(quadratic),
        objective=objective,
    )


# --- algebraic text --------------------------------------------------------


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".17g")


def _render_terms(quad, lin, constant=0.0) -> str:
    parts = []

    def push(coef, body):
        if coef == 0.0:
            return
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        text = body if mag == 1.0 and body else (f"{_fmt(mag)} {body}".strip())
        if not parts:
            parts.append(text if sign == "+" else f"- {text}")
        else:
            parts.append(f"{sign} {text}")

    for name, coef in lin:
        push(coef, name)
    for a, bb, coef in quad:
        push(coef, f"{a} ^ 2" if a == bb else f"{a} * {bb}")
    if constant:
        push(constant, "")
    return " ".join(parts) if parts else "0"


def emit_lp_text(model: MiqcqpModel) -> str:
    """Human-readable algebraic rendering, deterministic byte-for-byte."""
    lines = [
        f"\\ lipbound model format_version {model.format_version}",
        f"\\ p={_p_to_json(model.p)} eps={_fmt(model.eps)} big_m="
        + ("none" if model.big_m is None else _fmt(model.big_m)),
        "Maximize",
        " obj: "
        + _render_terms(model.objective.quad, model.objective.lin, model.objective.constant),
    ]
    if model.linear_constraints:
        lines.append("Subject To")
        for c in model.linear_constraints:
            lines.append(f" {c.cid}: {_render_terms((), c.coeffs)} {c.rel} {_fmt(c.rhs)}")
    if model.quadratic_constraints:
        lines.append("Quadratic Constraints")
        for c in model.quadratic_constraints:
            lines.append(f" {c.cid}: {_render_terms(c.quad, c.lin)} {c.rel} {_fmt(c.rhs)}")
    bound_lines = []
    for v in model.variables:
        if v.kind == BINARY:
            continue
        if v.lower is None and v.upper is None:
            bound_lines.append(f" {v.name} free")
        elif v.lower is not None and v.upper is not None:
            bound_lines.append(f" {_fmt(v.lower)} <= {v.name} <= {_fmt(v.upper)}")
        elif v.lower is not None:
            bound_lines.append(f" {v.name} >= {_fmt(v.lower)}")
        else:
            bound_lines.append(f" {v.name} <= {_fmt(v.upper)}")
    if bound_lines:
        lines.append("Bounds")
        lines.extend(bound_lines)
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


# --- assignment files ------------------------------------------------------


def emit_assignment_json(assignment: dict) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "values": {k: float(v) for k, v in assignment.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_assignment_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "values" not in doc:
        raise ModelFormatError('assignment file needs a "values" object')
    values = doc["values"]
    if not isinstance(values, dict):
        raise ModelFormatError('"values" must map variable names to numbers')
    out = {}
    for k, v in values.items():
        try:
            out[str(k)] = float(v)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"values[{k!r}]: not a number") from exc
    return out
