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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import BoundsReport
from .errors import ModelFormatError, WitnessUnavailableError
from .network import (
    ActivationPattern,
    Box,
    InputDomain,
    L2Ball,
    MlpNetwork,
    Polytope,
    _json_doc,
    check_domain_dim,
    jacobian,
)
from .norms import INF, check_norm_kind, inf_to_str, norm_witness, operator_norm
from .regions import check_eps, witness_at_level

FORMAT_VERSION = 1
LE, GE, EQ = "<=", ">=", "="

CONTINUOUS = "continuous"
BINARY = "binary"


def _finite(x) -> bool:
    """Whether the number x, an int or a float (np.float64 included), is
    finite as a float; an int beyond the float range is not. Anything else,
    a bool, np.bool_ or np.int64 too, raises TypeError: the writer would
    spell it true, or not at all."""
    if type(x) is not int and not isinstance(x, float):
        raise TypeError(f"{x!r} is not a number")
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_number(x, what: str) -> None:
    try:
        finite = _finite(x)
    except TypeError:
        raise ModelFormatError(f"{what} is not a number") from None
    if not finite:
        raise ModelFormatError(f"{what} is not finite")


def _json_plain(v) -> bool:
    """v is made of what the reader builds from JSON: tuples, str-keyed
    dicts, str, bool, None, ints and finite floats."""
    if type(v) is tuple:
        return all(map(_json_plain, v))
    if type(v) is dict:
        return all(type(k) is str and _json_plain(x) for k, x in v.items())
    return v is None or type(v) in (str, bool, int) or (isinstance(v, float) and math.isfinite(v))


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: Optional[float] = None
    upper: Optional[float] = None


@dataclass(frozen=True)
class Constraint:
    """sum(lin) + sum(quad) rel rhs; a linear constraint has quad == ()."""

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
    """A model whose every field is checked at construction, with the
    messages of the reader, which checks no value itself: names, ids, kinds,
    rel and sense are str; variables, rows and terms are tuples; a number is
    an int or a float and finite (_finite); groups hold JSON values. So
    emit_json writes every model, and parse_json reads it back equal."""

    format_version: int
    p: float
    eps: float
    big_m: Optional[float]
    groups: dict[str, tuple]
    variables: tuple[Variable, ...]
    linear_constraints: tuple[Constraint, ...]
    quadratic_constraints: tuple[Constraint, ...]
    objective: Objective

    def __post_init__(self):
        # A plain finite float passes each number's first test; only other
        # values reach _finite, and a message is formatted only to raise.
        _check_version(self.format_version)
        if type(_p_from_json(self.p)) is not type(self.p):  # 2.0 would be written as 2.0 and read as 2
            raise ModelFormatError(f"metadata.p: unsupported norm order {self.p!r}; expected 1, 2, or inf")
        _check_number(self.eps, "metadata: eps")
        if self.big_m is not None:
            _check_number(self.big_m, "metadata: big_m")
        if type(self.groups) is not dict or not _json_plain(self.groups):
            raise ModelFormatError("metadata: groups must be an object of JSON values")
        rows = (("linear_constraints", self.linear_constraints),
                ("quadratic_constraints", self.quadratic_constraints))
        for key, records in (("variables", self.variables), *rows):
            if type(records) is not tuple:
                raise ModelFormatError(f"{key} must be a tuple")
        for i, v in enumerate(self.variables):
            if type(v.name) is not str or type(v.kind) is not str:
                field = "kind" if type(v.name) is str else "name"
                raise ModelFormatError(f"variables[{i}]: {field} is not a string")
            for key, bound in (("lower", v.lower), ("upper", v.upper)):
                if bound is not None and (type(bound) is not float or not -INF < bound < INF):
                    _check_number(bound, f"variables[{i}]: {key}")
            if v.kind not in (CONTINUOUS, BINARY):
                raise ModelFormatError(f"variable {v.name}: unknown kind {v.kind!r}")
            if v.kind == BINARY and (v.lower, v.upper) != (0.0, 1.0):
                raise ModelFormatError(f"binary variable {v.name} must carry bounds [0, 1]")
        index = self.variable_index
        if len(index) != len(self.variables):
            raise ModelFormatError("duplicate variable names")

        def check_terms(key, i, label, lin, quad):
            """Record i of key, or the objective for i None. A term of the wrong
            shape or types raises TypeError (a name that is no str is not in
            index, or unhashable) and is named by path, other faults by label."""
            shape = "terms must be tuples"
            try:
                if type(lin) is not tuple or type(quad) is not tuple:
                    raise TypeError
                shape = 'linear term must be ["name", coef]'
                for t in lin:
                    if type(t) is not tuple or len(t) != 2:
                        raise TypeError
                    name, coef = t
                    if name not in index:
                        if type(name) is not str:
                            raise TypeError
                        raise ModelFormatError(f"{label}: unknown variable {name!r}")
                    if (type(coef) is not float or not -INF < coef < INF) and not _finite(coef):
                        raise ModelFormatError(f"{label}: coefficient of {name} is not finite")
                shape = 'quadratic term must be ["a", "b", coef]'
                for t in quad:
                    if type(t) is not tuple or len(t) != 3:
                        raise TypeError
                    a, b, coef = t
                    ia, ib = index.get(a), index.get(b)
                    if ia is None or ib is None:
                        if type(a) is not str or type(b) is not str:
                            raise TypeError
                        raise ModelFormatError(f"{label}: unknown variable {a if ia is None else b!r}")
                    if ia < ib:
                        raise ModelFormatError(
                            f"{label}: quadratic term ({a},{b}) is not lower-triangular"
                        )
                    if (type(coef) is not float or not -INF < coef < INF) and not _finite(coef):
                        raise ModelFormatError(f"{label}: coefficient of {a}*{b} is not finite")
            except TypeError:
                where = key if i is None else f"{key}[{i}]"
                raise ModelFormatError(f"{where}: {shape}") from None

        for key, records in rows:
            for i, c in enumerate(records):
                cid, rel, rhs = c.cid, c.rel, c.rhs
                if type(cid) is not str or type(rel) is not str:
                    field = "rel" if type(cid) is str else "id"
                    raise ModelFormatError(f"{key}[{i}]: {field} is not a string")
                if type(rhs) is not float or not -INF < rhs < INF:
                    _check_number(rhs, f"{key}[{i}]: rhs")
                if rel not in (LE, GE, EQ):
                    raise ModelFormatError(f"{cid}: unknown relation {rel!r}")
                if c.quad and key == "linear_constraints":
                    raise ModelFormatError(f"{cid}: a linear constraint has quadratic terms")
                check_terms(key, i, cid, c.lin, c.quad)
        obj = self.objective
        if type(obj.sense) is not str:
            raise ModelFormatError("objective: sense is not a string")
        if obj.sense != "max":
            raise ModelFormatError(f"objective sense must be 'max', got {obj.sense!r}")
        check_terms("objective", None, "objective", obj.lin, obj.quad)
        _check_number(obj.constant, "objective: constant")

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
    prod = 1.0
    for layer in net.layers:
        prod *= operator_norm(layer.weights, p)
    return max(1.0, 1.01 * prod)


class _Builder:
    def __init__(self):
        self.variables: list[Variable] = []
        self.index: dict[str, int] = {}
        self.linear: list[Constraint] = []
        self.quadratic: list[Constraint] = []

    def var(self, name, kind=CONTINUOUS, lower=None, upper=None) -> str:
        self.index[name] = len(self.variables)
        self.variables.append(Variable(name, kind, lower, upper))
        return name

    def vec(self, prefix, n, **kw) -> list[str]:
        return [self.var(f"{prefix}_{i + 1}", **kw) for i in range(n)]

    def tri(self, a: str, b: str, coef: float) -> tuple[str, str, float]:
        if self.index[a] >= self.index[b]:
            return (a, b, float(coef))
        return (b, a, float(coef))

    def con(self, cid, lin, rel, rhs, quad=None):
        """Add a constraint, quadratic when quad is given; zero terms are dropped."""
        rows = self.linear if quad is None else self.quadratic
        quad = tuple(t for t in quad or () if t[2] != 0.0)
        lin = tuple((n, float(c)) for n, c in lin if c != 0.0)
        rows.append(Constraint(cid, quad, lin, rel, float(rhs)))

    def abs_block(self, tag, y, mag, neg, C):
        """mag_i = |y_i| with neg_i = [y_i <= 0], valid while |y_i| <= C."""
        for i, (yi, mi, ni) in enumerate(zip(y, mag, neg), 1):
            self.con(f"{tag}_abs_lo1[{i}]", [(yi, 1.0), (mi, -1.0)], LE, 0.0)
            self.con(f"{tag}_abs_lo2[{i}]", [(yi, -1.0), (mi, -1.0)], LE, 0.0)
            self.con(f"{tag}_sign_hi[{i}]", [(yi, 1.0), (ni, C)], LE, C)
            self.con(f"{tag}_sign_lo[{i}]", [(yi, 1.0), (ni, C)], GE, 0.0)
            self.con(f"{tag}_abs_hi1[{i}]", [(mi, 1.0), (yi, 1.0), (ni, 2.0 * C)], LE, 2.0 * C)
            self.con(f"{tag}_abs_hi2[{i}]", [(mi, 1.0), (yi, -1.0), (ni, -2.0 * C)], LE, 0.0)


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
        b.con(f"yrec1[{i + 1}]", coeffs, EQ, 0.0)
    for k in range(2, L + 1):
        Mk = net.layers[k - 1].weights
        for i in range(widths[k]):
            quad = [b.tri(sigma[k - 2][j], y[k - 1][j], -Mk[i, j]) for j in range(widths[k - 1])]
            b.con(f"yrec{k}[{i + 1}]", [(y[k][i], 1.0)], EQ, 0.0, quad)

    # x recursion and margin constraints for every hidden layer
    for k in range(1, L):
        Mk = net.layers[k - 1].weights
        bk = net.layers[k - 1].bias
        for i in range(widths[k]):
            gated = [b.tri(sigma[k - 1][i], x[k - 1][j], Mk[i, j]) for j in range(widths[k - 1])]
            lin = [(x[k][i], 1.0), (sigma[k - 1][i], -bk[i])]
            b.con(f"xrec{k}[{i + 1}]", lin, EQ, 0.0, [(s, v, -c) for s, v, c in gated])
            lin = [(x[k - 1][j], -0.5 * Mk[i, j]) for j in range(widths[k - 1])]
            lin.append((sigma[k - 1][i], bk[i]))
            b.con(f"slack{k}[{i + 1}]", lin, GE, eps + 0.5 * bk[i], gated)

    # x0 in the domain
    if isinstance(domain, Box):
        for j in range(n0):
            b.variables[j] = Variable(
                x[0][j], CONTINUOUS, float(domain.lower[j]), float(domain.upper[j])
            )
    elif isinstance(domain, Polytope):
        for r in range(domain.A.shape[0]):
            coeffs = [(x[0][j], domain.A[r, j]) for j in range(n0)]
            b.con(f"dom[{r + 1}]", coeffs, LE, float(domain.b[r]))
    elif isinstance(domain, L2Ball):
        c = domain.center
        quad = [(x[0][j], x[0][j], 1.0) for j in range(n0)]
        lin = [(x[0][j], -2.0 * c[j]) for j in range(n0)]
        b.con("dom_ball", lin, LE, float(domain.radius**2 - c @ c), quad)

    # per-p blocks
    if p == 2:
        b.con("ynorm", [], LE, 1.0, [(n, n, 1.0) for n in y[0]])
        objective = Objective("max", tuple((n, n, 1.0) for n in y[L]), (), 0.0)
    elif p == 1:
        b.abs_block("u", y[0], u, nu, 1.0)
        b.con("u_budget", [(n, 1.0) for n in u], LE, 1.0)
        b.abs_block("w", y[L], w, mu, big_m)
        objective = Objective("max", (), tuple((n, 1.0) for n in w), 0.0)
    else:
        for i in range(nL):
            lin = [(u[i], 1.0), (y[L][i], 1.0)]
            b.con(f"uabs[{i + 1}]", lin, EQ, 0.0, [b.tri(mu[i], y[L][i], -2.0)])
        b.con("selector", [(n, 1.0) for n in eta], EQ, 1.0)
        if linearize_inf_objective:
            C = big_m
            for i in range(nL):
                b.con(f"wlin_cap[{i + 1}]", [(w[i], 1.0), (eta[i], -C)], LE, 0.0)
                b.con(f"wlin_u[{i + 1}]", [(w[i], 1.0), (u[i], -1.0)], LE, 0.0)
                b.con(f"wlin_lo[{i + 1}]", [(w[i], 1.0), (u[i], -1.0), (eta[i], -C)], GE, -C)
                b.con(f"wlin_pos[{i + 1}]", [(w[i], 1.0)], GE, 0.0)
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
    within tol; the objective value is always reported. A NaN anywhere
    (in a value or from an overflowing term) counts as a violation.
    """
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
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
        if not slack >= -tol:  # a NaN slack fails this test too
            violations.append(Violation(cid, lhs, rhs, slack))

    for v in model.variables:
        val = values[v.name]
        if v.lower is not None:
            judge(f"bound_lo[{v.name}]", val, GE, v.lower)
        if v.upper is not None:
            judge(f"bound_hi[{v.name}]", val, LE, v.upper)
        if v.kind == BINARY:
            judge(f"integrality[{v.name}]", -abs(val - float(np.rint(val))), GE, 0.0)
    for c in model.linear_constraints + model.quadratic_constraints:
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
    x0 = witness_at_level(net, sigma, domain, eps)
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
        for mag, neg, vec in (("u", "nu", np.atleast_1d(ys[0])), ("w", "mu", yL)):
            put(mag, np.abs(vec))
            put(neg, np.where(vec <= 0.0, 1.0, 0.0))
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
    eps = check_eps(eps)
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


def _p_from_json(raw):
    try:
        return check_norm_kind(raw)
    except ValueError as exc:
        raise ModelFormatError(f"metadata.p: {exc}") from exc


_enc = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__


def _number(x) -> str:
    """A checked number or None as json.dumps writes it.

    MiqcqpModel lets through only None, ints and finite floats, so no
    NaN, infinity or boolean spelling is needed. Floats go through
    float.__repr__, so an np.float64 prints as 1.5 and not as
    np.float64(1.5); ints stay ints.
    """
    if x is None:
        return "null"
    if type(x) is int:
        return int.__repr__(x)
    return _float_repr(x)


# A float coefficient skips the call to _number.
def _lin_json(lin, pad: str) -> str:
    """[name, coef] terms as a list whose items are indented by pad."""
    if not lin:
        return "[]"
    inner = pad + "  "
    items = ",\n".join([
        f"{pad}[\n{inner}{_enc(n)},\n"
        f"{inner}{_float_repr(c) if type(c) is float else _number(c)}\n{pad}]"
        for n, c in lin
    ])
    return f"[\n{items}\n{pad[:-2]}]"


def _quad_json(quad, pad: str) -> str:
    """[a, b, coef] terms as a list whose items are indented by pad."""
    if not quad:
        return "[]"
    inner = pad + "  "
    items = ",\n".join([
        f"{pad}[\n{inner}{_enc(a)},\n{inner}{_enc(b)},\n"
        f"{inner}{_float_repr(c) if type(c) is float else _number(c)}\n{pad}]"
        for a, b, c in quad
    ])
    return f"[\n{items}\n{pad[:-2]}]"


def _records_json(records) -> str:
    """A top-level list of already written records."""
    if not records:
        return "[]"
    items = ",\n".join(records)
    return f"[\n{items}\n  ]"


def emit_json(model: MiqcqpModel) -> str:
    """The model as json.dumps(doc, indent=2) + "\\n" writes the document
    {"format_version", "metadata": {"p", "eps", "big_m", "groups"},
    "variables", "linear_constraints", "quadratic_constraints", "objective"},
    byte for byte, but with one f-string per variable, record and term; only
    p and groups go through json.dumps. parse_json reads the text back equal."""
    variables = [
        f'    {{\n      "name": {_enc(v.name)},\n      "kind": {_enc(v.kind)},\n'
        f'      "lower": {_number(v.lower)},\n      "upper": {_number(v.upper)}\n    }}'
        for v in model.variables
    ]
    linear = [
        f'    {{\n      "id": {_enc(c.cid)},\n      "coeffs": {_lin_json(c.lin, " " * 8)},\n'
        f'      "rel": {_enc(c.rel)},\n      "rhs": {_number(c.rhs)}\n    }}'
        for c in model.linear_constraints
    ]
    quadratic = [
        f'    {{\n      "id": {_enc(c.cid)},\n      "quad": {_quad_json(c.quad, " " * 8)},\n'
        f'      "lin": {_lin_json(c.lin, " " * 8)},\n      "rel": {_enc(c.rel)},\n'
        f'      "rhs": {_number(c.rhs)}\n    }}'
        for c in model.quadratic_constraints
    ]
    obj = model.objective
    groups = json.dumps(model.groups, indent=2).replace("\n", "\n    ")
    return (
        f'{{\n  "format_version": {_number(model.format_version)},\n'
        f'  "metadata": {{\n    "p": {json.dumps(inf_to_str(model.p))},\n'
        f'    "eps": {_number(model.eps)},\n    "big_m": {_number(model.big_m)},\n'
        f'    "groups": {groups}\n  }},\n'
        f'  "variables": {_records_json(variables)},\n'
        f'  "linear_constraints": {_records_json(linear)},\n'
        f'  "quadratic_constraints": {_records_json(quadratic)},\n'
        f'  "objective": {{\n    "sense": {_enc(obj.sense)},\n'
        f'    "quad": {_quad_json(obj.quad, " " * 6)},\n'
        f'    "lin": {_lin_json(obj.lin, " " * 6)},\n'
        f'    "constant": {_number(obj.constant)}\n  }}\n}}\n'
    )


_REQUIRED = object()


def _get(doc, key, path, default=_REQUIRED):
    try:
        return doc[key]
    except TypeError:
        raise ModelFormatError(f"{path} must be an object") from None
    except KeyError:
        if default is _REQUIRED:
            raise ModelFormatError(f"{path}: missing {key!r}") from None
        return default


def _check_version(version) -> None:
    if type(version) not in (int, float) or version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version}")


def _list(raw, what) -> list:
    if not isinstance(raw, list):
        raise ModelFormatError(f"{what} must be a list")
    return raw


def _tuples(raw):
    """raw with every JSON array in it a tuple, as a model holds it."""
    if isinstance(raw, list):
        return tuple(map(_tuples, raw))
    if isinstance(raw, dict):
        return {k: _tuples(v) for k, v in raw.items()}
    return raw


def _terms(raw, path) -> tuple:
    """A list of terms, each term a tuple when it is a list."""
    return tuple([tuple(t) if type(t) is list else t for t in _list(raw, f"{path}: terms")])


def _variable(raw, path) -> Variable:
    return Variable(
        _get(raw, "name", path),
        _get(raw, "kind", path),
        _get(raw, "lower", path, None),
        _get(raw, "upper", path, None),
    )


def _constraint(raw, path, linear) -> Constraint:
    """A linear record carries "coeffs"; a quadratic one "quad" and "lin"."""
    return Constraint(
        _get(raw, "id", path),
        () if linear else _terms(_get(raw, "quad", path), path),
        _terms(_get(raw, "coeffs", path) if linear else _get(raw, "lin", path, []), path),
        _get(raw, "rel", path),
        _get(raw, "rhs", path),
    )


def parse_json(text: str) -> MiqcqpModel:
    """Read a model file.

    Only the document's shape is read here: its objects, lists and keys,
    p's "inf" spelling, and JSON arrays as tuples. Every value goes to
    MiqcqpModel as the file spells it, an integer literal as an int, and
    MiqcqpModel checks them all.
    """
    doc = _json_doc(text, ModelFormatError)
    meta = _get(doc, "metadata", "$")
    variables = tuple(
        _variable(v, f"variables[{i}]")
        for i, v in enumerate(_list(_get(doc, "variables", "$"), "variables"))
    )
    constraints = {
        key: tuple(
            _constraint(c, f"{key}[{i}]", key == "linear_constraints")
            for i, c in enumerate(_list(_get(doc, key, "$", []), key))
        )
        for key in ("linear_constraints", "quadratic_constraints")
    }
    raw_obj = _get(doc, "objective", "$")
    return MiqcqpModel(
        format_version=_get(doc, "format_version", "$"),
        p=_p_from_json(_get(meta, "p", "metadata")),
        eps=_get(meta, "eps", "metadata"),
        big_m=_get(meta, "big_m", "metadata", None),
        groups=_tuples(_get(meta, "groups", "metadata", {})),
        variables=variables,
        **constraints,
        objective=Objective(
            _get(raw_obj, "sense", "objective"),
            _terms(_get(raw_obj, "quad", "objective", []), "objective"),
            _terms(_get(raw_obj, "lin", "objective", []), "objective"),
            _get(raw_obj, "constant", "objective", 0.0),
        ),
    )


# --- algebraic text --------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x + 0.0, ".17g")  # + 0.0 prints -0.0 as 0


def _render_terms(quad, lin, constant=0.0) -> str:
    terms = list(lin)
    terms += [(f"{a} ^ 2" if a == bb else f"{a} * {bb}", coef) for a, bb, coef in quad]
    if constant:
        terms.append(("", constant))
    parts = []
    for body, coef in terms:
        if coef != 0.0:
            mag = abs(coef)
            text = body if mag == 1.0 and body else f"{_fmt(mag)} {body}".strip()
            parts.append(f"- {text}" if coef < 0 else f"+ {text}")
    if not parts:
        return "0"
    if parts[0][0] == "+":
        parts[0] = parts[0][2:]
    return " ".join(parts)


def emit_lp_text(model: MiqcqpModel) -> str:
    """Human-readable algebraic rendering, deterministic byte-for-byte."""
    lines = [
        f"\\ lipbound model format_version {model.format_version}",
        f"\\ p={inf_to_str(model.p)} eps={_fmt(model.eps)} big_m="
        + ("none" if model.big_m is None else _fmt(model.big_m)),
        "Maximize",
        " obj: "
        + _render_terms(model.objective.quad, model.objective.lin, model.objective.constant),
    ]
    for header, rows in (
        ("Subject To", model.linear_constraints),
        ("Quadratic Constraints", model.quadratic_constraints),
    ):
        if rows:
            lines.append(header)
            for c in rows:
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
    doc = _json_doc(text, ModelFormatError)
    if not isinstance(doc, dict) or "values" not in doc:
        raise ModelFormatError('assignment file needs a "values" object')
    _check_version(_get(doc, "format_version", "$"))
    values = doc["values"]
    if not isinstance(values, dict):
        raise ModelFormatError('"values" must map variable names to numbers')
    for k, v in values.items():
        _check_number(v, f"values[{k!r}]")
    return {k: float(v) for k, v in values.items()}
