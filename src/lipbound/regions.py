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

import math
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
    Polytope,
    _affine_layers,
    _check_pattern,
    check_domain_dim,
    forward,
)
from .simplex import GE, LE, LinearProgram, LpSolution, lp_solve

# Strictness knob: a slack above this counts as a nonempty open region.
TAU_STRICT = 1e-9
# Closed-region tolerance: a slack above this counts as touching the region closure.
TAU_CLOSED = -1e-9


@dataclass(frozen=True)
class SlackResult:
    """Outcome of the maximal-slack LP for one pattern.

    status is "bounded" (slack attained at witness), "unbounded" (slack
    grows without bound along ray; slack is +inf), or "infeasible" (the
    domain itself is empty; impossible otherwise since t is free).
    """

    status: str
    slack: float
    witness: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None
    ray_slack_rate: Optional[float] = None
    pivots: int = 0  # simplex pivots of the LP

    @property
    def feasible_strict(self) -> bool:
        return self.status != "infeasible" and self.slack > TAU_STRICT

    def feasible_closed(self, eps: float = 0.0) -> bool:
        if self.status == "infeasible":
            return False
        threshold = TAU_CLOSED if eps == 0.0 else eps
        return self.slack >= threshold


def _domain_rows_bounds(domain: InputDomain, n0: int):
    """(A, b, bounds) for x in the domain: rows A x <= b and per-variable bounds."""
    bounds: list[tuple[Optional[float], Optional[float]]] = [(None, None)] * n0
    A, b = np.zeros((0, n0)), np.zeros(0)
    if isinstance(domain, AllSpace):
        pass
    elif isinstance(domain, Box):
        bounds = list(zip(domain.lower.tolist(), domain.upper.tolist()))
    elif isinstance(domain, Polytope):
        A, b = domain.A, domain.b
    elif isinstance(domain, L2Ball):
        raise NonPolyhedralDomainError(
            "L2 ball domains are not polyhedral; relax to the circumscribed box explicitly"
        )
    else:
        raise TypeError(f"unknown domain {type(domain).__name__}")
    return A, b, bounds


def domain_nonempty(domain: InputDomain, n0: int) -> bool:
    """Decide whether the polyhedral domain contains any point (one LP)."""
    check_domain_dim(domain, n0)
    A, b, bounds = _domain_rows_bounds(domain, n0)
    if not b.size:
        return True  # boxes and all-space are nonempty by construction
    rel = np.full(b.size, LE, dtype=object)
    sol = lp_solve(LinearProgram.from_arrays(np.zeros(n0), A, rel, b, bounds))
    return sol.status != "infeasible"


def _slack_lp(
    forms: Sequence[tuple[np.ndarray, np.ndarray]],
    bits: Sequence[Sequence[int]],
    domain: InputDomain,
    n0: int,
) -> LpSolution:
    """Build and solve max t s.t. (sigma-1/2)*theta >= t, x in domain.

    Variables are (x, t); the domain rows come first, then one margin row
    per neuron.
    """
    A_dom, b_dom, xb = _domain_rows_bounds(domain, n0)
    sgn = np.concatenate([np.asarray(layer_bits, dtype=float) for layer_bits in bits]) - 0.5
    coeff = np.vstack([c for c, _ in forms])
    offset = np.concatenate([o for _, o in forms])
    A = np.zeros((b_dom.size + sgn.size, n0 + 1))
    A[: b_dom.size, :n0] = A_dom
    A[b_dom.size :, :n0] = sgn[:, None] * coeff
    A[b_dom.size :, n0] = -1.0
    b = np.concatenate([b_dom, -sgn * offset])
    rel = np.full(b.size, GE, dtype=object)
    rel[: b_dom.size] = LE
    objective = np.zeros(n0 + 1)
    objective[-1] = 1.0
    return lp_solve(LinearProgram.from_arrays(objective, A, rel, b, xb + [(None, None)]))


def max_slack(
    net: MlpNetwork,
    sigma: ActivationPattern,
    domain: InputDomain,
    *,
    neurons: Optional[int] = None,
) -> SlackResult:
    """Maximal common margin of the pattern's region inside the domain.

    With neurons=k only the margins of the first k hidden neurons, in
    layer-major order, are imposed (the branch-and-bound prefix
    relaxation; a neuron's form uses only the bits of earlier layers, so
    the bits after position k are ignored); default is every neuron.
    """
    _check_pattern(net, sigma)
    check_domain_dim(domain, net.input_dim)
    widths = net.hidden_widths
    k = sum(widths) if neurons is None else neurons
    if not 1 <= k <= sum(widths):
        raise ValueError(f"neuron prefix {k} outside 1..{sum(widths)}")
    upto, start = 1, 0  # hidden layers the prefix touches; first neuron of the last one
    while start + widths[upto - 1] < k:
        start += widths[upto - 1]
        upto += 1
    forms = _affine_layers(net, sigma.bits, upto)
    bits = list(sigma.bits[:upto])
    coeff, offset = forms[-1]
    forms[-1], bits[-1] = (coeff[: k - start], offset[: k - start]), bits[-1][: k - start]
    sol = _slack_lp(forms, bits, domain, net.input_dim)
    if sol.status == "infeasible":
        return SlackResult("infeasible", math.nan, pivots=sol.pivots)
    if sol.status == "unbounded":
        return SlackResult(
            "unbounded",
            math.inf,
            witness=sol.x[:-1],
            ray=sol.ray[:-1],
            ray_slack_rate=float(sol.ray[-1]),
            pivots=sol.pivots,
        )
    return SlackResult("bounded", float(sol.value), witness=sol.x[:-1], pivots=sol.pivots)


def region_feasible(
    net: MlpNetwork,
    sigma: ActivationPattern,
    domain: InputDomain,
    mode: float | str = "strict",
) -> bool:
    """Membership test for the pattern's constraint set.

    mode="strict" asks for a nonempty open region (slack > 1e-9); a float
    eps asks for the closed eps-margin set (slack >= eps, with eps=0 using
    the -1e-9 closure tolerance).
    """
    res = max_slack(net, sigma, domain)
    if mode == "strict":
        return res.feasible_strict
    return res.feasible_closed(float(mode))


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
