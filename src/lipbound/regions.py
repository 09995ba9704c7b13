"""Activation-region feasibility via the maximal-slack linear program.

For a fixed pattern, the region depth is the largest t such that some x in
the domain keeps every signed pre-activation margin (sigma - 1/2) * theta
at least t. The LP constrains the pattern's affine preactivation forms;
those equal the true network preactivations wherever all margins are
nonnegative (the gates then agree with the ReLU states), so every
feasibility threshold used here (closed, strict, eps >= 0) is decided
exactly and nonnegative slacks are exact depths. A negative slack is a
valid certificate that the closed region misses the domain, but its
magnitude is relative to the affine forms, not the true network.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainEmptyError, NonPolyhedralDomainError
from .network import (
    ActivationPattern,
    AllSpace,
    Box,
    InputDomain,
    L2Ball,
    MlpNetwork,
    _affine_layers,
    _check_pattern,
    check_domain_dim,
    forward,
)
from .simplex import LE, LinearProgram, LpSolution, lp_solve, lp_stack

# The two tolerances of meets_level, the one rule that turns a slack into a
# feasibility decision: the open region needs a slack above TAU_STRICT, the
# closed region (eps = 0) a slack of at least TAU_CLOSED.
TAU_STRICT = 1e-9
TAU_CLOSED = -1e-9


def meets_level(slack: float, eps: Optional[float]) -> bool:
    """Whether a region of depth `slack` meets a level.

    eps=None asks for a nonempty open region (slack > TAU_STRICT); a float
    eps asks for the closed eps-margin set (slack >= eps, with eps = 0
    using TAU_CLOSED). A NaN slack, the mark of an empty domain, meets none.
    """
    if eps is None:
        return slack > TAU_STRICT
    return slack >= (TAU_CLOSED if eps == 0.0 else eps)


def check_eps(eps) -> float:
    """eps as a float; a ValueError unless it is a finite nonnegative real
    number. Strings, bytes and booleans are refused, numpy scalars taken."""
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real):  # numpy booleans are not Real
        raise ValueError(f"eps must be a number, got {eps!r}")
    eps = float(eps)
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    return eps


@dataclass(frozen=True)
class SlackResult:
    """Outcome of the maximal-slack LP for one pattern.

    status is "bounded" (slack attained at witness), "unbounded" (slack
    grows without bound along ray; slack is +inf), or "infeasible" (the
    domain itself is empty, impossible otherwise since t is free; slack is
    NaN, so it meets no level).
    """

    status: str
    slack: float
    witness: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None
    ray_slack_rate: Optional[float] = None
    pivots: int = 0  # simplex pivots of the LP

    @property
    def feasible_strict(self) -> bool:
        return meets_level(self.slack, None)

    def feasible_closed(self, eps: float = 0.0) -> bool:
        return meets_level(self.slack, eps)


def _domain_rows_bounds(domain: InputDomain, n0: int):
    """(A, b, bounds) for x in the domain: rows A x <= b and per-variable bounds."""
    bounds: list[tuple[Optional[float], Optional[float]]] = [(None, None)] * n0
    A, b = np.zeros((0, n0)), np.zeros(0)
    if isinstance(domain, AllSpace):
        pass
    elif isinstance(domain, Box):
        bounds = list(zip(domain.lower.tolist(), domain.upper.tolist()))
    elif isinstance(domain, L2Ball):
        raise NonPolyhedralDomainError(
            "L2 ball domains are not polyhedral; relax to the circumscribed box explicitly"
        )
    else:  # a Polytope
        A, b = domain.A, domain.b
    return A, b, bounds


def domain_nonempty(domain: InputDomain, n0: int) -> bool:
    """Decide whether the polyhedral domain contains any point (one LP)."""
    check_domain_dim(domain, n0)
    A, b, bounds = _domain_rows_bounds(domain, n0)
    if not b.size:
        return True  # boxes and all-space are nonempty by construction
    rel = np.full(b.size, LE, dtype=object)
    sol = lp_solve(LinearProgram(np.zeros(n0), A, rel, b, bounds))
    return sol.status != "infeasible"


def margin_rows(gate: np.ndarray, coeff: np.ndarray, offset: np.ndarray):
    """(A, b): the <= rows of the slack LP over (x, t) for neuron forms coeff x + offset.

    A neuron with gate sigma (0 or 1) has sign s = sigma - 1/2 and gives
    [-s*coeff, 1] (x, t) <= s*offset, that is t <= s*(coeff.x + offset).
    Leading axes of gate, coeff and offset make a stack of row sets.
    """
    sgn = gate - 0.5
    A = np.empty((*sgn.shape, coeff.shape[-1] + 1))
    A[..., :-1] = -sgn[..., None] * coeff
    A[..., -1] = 1.0
    return A, sgn * offset


def slack_lp(domain: InputDomain, n0: int, A: np.ndarray, b: np.ndarray) -> LinearProgram:
    """max t subject to the margin rows A (x, t) <= b and x in the domain.

    Variables are (x, t); the domain rows come first, then the margin rows.
    A of shape (k, m, n0 + 1) and b of shape (k, m) give a stack of k LPs.
    """
    A_dom, b_dom, xb = _domain_rows_bounds(domain, n0)
    stack = b.shape[:-1]
    rows = np.zeros((*stack, b_dom.size + b.shape[-1], n0 + 1))
    rows[..., : b_dom.size, :n0] = A_dom
    rows[..., b_dom.size :, :] = A
    objective = np.zeros(n0 + 1)
    objective[-1] = 1.0
    rhs = np.empty(rows.shape[:-1])
    rhs[..., : b_dom.size] = b_dom
    rhs[..., b_dom.size :] = b
    return LinearProgram(objective, rows, np.full(rhs.shape[-1], LE, dtype=object), rhs, xb + [(None, None)])


def slack_result(sol: LpSolution) -> SlackResult:
    """The SlackResult of a solved slack LP over (x, t)."""
    if sol.status == "optimal":
        return SlackResult("bounded", float(sol.value), witness=sol.x[:-1], pivots=sol.pivots)
    if sol.status == "unbounded":
        return SlackResult(
            "unbounded",
            math.inf,
            witness=sol.x[:-1],
            ray=sol.ray[:-1],
            ray_slack_rate=float(sol.ray[-1]),
            pivots=sol.pivots,
        )
    return SlackResult("infeasible", math.nan, pivots=sol.pivots)


def _pattern_rows(net: MlpNetwork, flats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The margin rows (A, b) of each row of flat pattern bits, shape (k, n):
    A of shape (k, n, n0 + 1) and b of shape (k, n), one row per hidden
    neuron, layer-major."""
    cuts = list(itertools.accumulate(net.hidden_widths[:-1]))
    forms = _affine_layers(net, np.hsplit(flats, cuts)[:-1])
    k = flats.shape[0]
    coeff = np.concatenate([np.broadcast_to(c, (k, *c.shape[-2:])) for c, _ in forms], axis=-2)
    offset = np.concatenate([np.broadcast_to(o, (k, o.shape[-1])) for _, o in forms], axis=-1)
    return margin_rows(flats, coeff, offset)


def max_slack(net: MlpNetwork, sigma: ActivationPattern, domain: InputDomain) -> SlackResult:
    """Maximal common margin of the pattern's region inside the domain: the
    slack LP over the margins of every hidden neuron, with its witness and,
    when the slack is unbounded, its ray."""
    _check_pattern(net, sigma.bits, "pattern")
    check_domain_dim(domain, net.input_dim)
    A, b = _pattern_rows(net, np.array([sigma.flat]))
    return slack_result(lp_solve(slack_lp(domain, net.input_dim, A[0], b[0])))


def max_slacks(net: MlpNetwork, flats: np.ndarray, domain: InputDomain) -> tuple[np.ndarray, np.ndarray]:
    """max_slack's slack and pivot count for each row of flat pattern bits.

    flats has shape (k, total hidden bits). The k slack LPs are built as
    one stack and solved by one lp_stack call, so each slack and pivot
    count is bit-identical to max_slack's for that pattern alone: +inf
    for an unbounded slack, NaN for an empty domain.
    """
    check_domain_dim(domain, net.input_dim)
    A, b = _pattern_rows(net, np.asarray(flats))
    status, value, pivots = lp_stack(slack_lp(domain, net.input_dim, A, b))
    slacks = np.where(status == "unbounded", math.inf, value)
    return slacks, pivots


def region_feasible(
    net: MlpNetwork,
    sigma: ActivationPattern,
    domain: InputDomain,
    mode: float | str = "strict",
) -> bool:
    """Membership test for the pattern's constraint set.

    mode="strict" asks for a nonempty open region; a float eps asks for the
    closed eps-margin set. meets_level decides both.
    """
    eps = None if mode == "strict" else check_eps(mode)
    return meets_level(max_slack(net, sigma, domain).slack, eps)


def witness_at_level(
    net: MlpNetwork,
    sigma: ActivationPattern,
    domain: InputDomain,
    eps: float,
    *,
    slack: Optional[SlackResult] = None,
) -> np.ndarray:
    """A concrete x whose margins under sigma all reach eps.

    For unbounded regions the LP ray is followed far enough to clear the
    level; the ray increases every margin at the t-component rate, so the
    required step is explicit. slack is the pattern's max_slack result
    when the caller already has it; otherwise its LP is solved here.
    """
    eps = check_eps(eps)
    res = max_slack(net, sigma, domain) if slack is None else slack
    if res.status == "infeasible":
        raise DomainEmptyError("domain is empty; no witness exists")
    if res.status == "bounded":
        if not res.feasible_closed(eps):
            raise ValueError(f"region slack {res.slack} is below requested level {eps}")
        return np.array(res.witness)
    margins = _margins(net, sigma, res.witness)
    rate = res.ray_slack_rate
    if rate is None or rate <= 0:
        raise ValueError("unbounded slack without a positive ray rate")
    lam = max(0.0, (eps + 1.0 - float(margins.min())) / rate)
    return np.array(res.witness) + lam * np.array(res.ray)


def _margins(net: MlpNetwork, sigma: ActivationPattern, x: Sequence[float]) -> np.ndarray:
    """Signed margins (sigma - 1/2) * theta at x, flat over hidden neurons."""
    _, preacts = forward(net, x)
    parts = []
    for theta, layer_bits in zip(preacts, sigma.bits):
        parts.append((np.asarray(layer_bits, float) - 0.5) * theta)
    return np.concatenate(parts)
