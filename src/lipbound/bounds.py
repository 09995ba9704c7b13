"""Certified Lipschitz bounds by activation-pattern search.

The upper bound maximizes the pattern-Jacobian norm over patterns whose
closed region meets the domain; the lower bound restricts to patterns with
a nonempty open region; the eps-margin value further demands region depth
at least eps. All of them are one maximization over (region depth, norm)
points with different depth thresholds, so one aggregator reads every
bound, every eps value and the exact eps-curve (the decreasing envelope
of the points, with breakpoints at the region depths themselves) off one
set of points. The enumeration oracle solves the slack LPs of all 2^n
patterns in stacks by one lockstep simplex, then norms the Jacobians of
the closed-feasible ones alone, bit-identical to one at a time; the
branch-and-bound feeds it the leaves of one depth-first search that
checks the prefix slack LP after every fixed bit and prunes only
closed-infeasible or strictly dominated prefixes. The root's LP caps the
slack by a symbolic +infinity and is the search's one cold LP; every
other prefix, leaves included, that the value prune keeps takes its own
LP, warm started from its parent's final tableau with one margin row
appended, and the dual simplex that re-optimizes it stops as soon as its
upper bound on the prefix slack misses the closed level. The full slack
LPs of the kept leaves that no other kept leaf dominates are then solved
again in stacks, as the oracle solves its own, so both modes hand the
aggregator exact slacks. Both give identical reports; only the
statistics differ.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainEmptyError, EnumerationGuardError
from .network import ActivationPattern, InputDomain, MlpNetwork, Polytope, _gated_form, _jacobian_from_bits
from .norms import INF, _operator_norms, check_norm_kind, inf_to_str, operator_norm, pattern_norms
from .regions import (
    TAU_STRICT,
    check_eps,
    domain_nonempty,
    margin_rows,
    max_slack,
    max_slacks,
    meets_level,
    slack_lp,
    witness_at_level,
)
from .simplex import append_row, dual_simplex, lp_tableau, symbolic_rhs

# A prefix is value-pruned only when it cannot even tie the envelope.
_PRUNE_MARGIN = 1e-12


# Brute-force enumeration refuses beyond this many hidden bits.
ENUMERATION_GUARD_BITS = 24

# Bound on the tableau entries of one stack of the oracle's slack LPs.
_STACK_ENTRIES = 1 << 15


@dataclass
class SearchStats:
    """Deterministic counters of one report's search.

    nodes_explored counts every prefix visited, those pruned by value
    before their LP included. For the branch-and-bound, lp_calls counts
    the root's cold LP, the warm LPs of prefixes and leaves, the stacked
    exact LP of every kept leaf that no other kept leaf dominates (so such
    a leaf counts two), the domain probe when it solves one and the lower
    argmax's witness LP; warm_lps counts the LPs re-optimized from a
    parent tableau, one for every prefix below the root, leaves included,
    that the value prune keeps, so lp_calls less warm_lps is one
    plus the exact, probe and witness LPs; patterns_feasible counts the
    exact-checked leaves whose closed region meets the domain, so a
    dominated leaf is in neither; pivots sums the pivots of all these LPs
    but the probe. For the oracle,
    nodes_explored is 2^n; lp_calls is the 2^n pattern LPs, plus the domain
    probe, plus the witness LP; pivots sums the pattern LPs' pivots over
    every stack, plus the witness LP's.
    """

    nodes_explored: int = 0
    lp_calls: int = 0
    warm_lps: int = 0
    pivots: int = 0
    patterns_feasible: int = 0


@dataclass(frozen=True)
class CurveSegment:
    """One step of the eps-curve: value holds on (previous end, eps_end]."""

    eps_end: float
    value: float
    empty: bool = False


@dataclass(eq=False)
class BoundsReport:
    """Bounds, eps-curve, argmax patterns and search statistics."""

    p: float
    upper: Optional[float] = None
    lower: Optional[float] = None
    lower_empty: bool = False
    eps_values: dict[float, float] = field(default_factory=dict)
    eps_empty: set[float] = field(default_factory=set)
    curve: list[CurveSegment] = field(default_factory=list)
    argmax_upper: Optional[ActivationPattern] = None
    argmax_lower: Optional[ActivationPattern] = None
    eps_argmax: dict[float, ActivationPattern] = field(default_factory=dict)
    witness_x_lower: Optional[np.ndarray] = None
    stats: SearchStats = field(default_factory=SearchStats)

    def validate(self) -> None:
        if self.upper is not None and self.lower is not None:
            if self.lower > self.upper + 1e-9:
                raise AssertionError(f"lower {self.lower} exceeds upper {self.upper}")
        values = [seg.value for seg in self.curve]
        if any(b > a for a, b in zip(values, values[1:])):
            raise AssertionError("curve values must be non-increasing")


# --- shared aggregation ----------------------------------------------------


class _Envelope:
    """Best norm among collected points of region depth >= s, as a staircase.

    slacks ascend and norms strictly descend, so at(s) is one bisection.
    Each value keeps its deepest slack, so over the strictly feasible
    points the staircase is the eps-curve: norms[i] holds on
    (slacks[i-1], slacks[i]].
    """

    __slots__ = ("slacks", "norms")

    def __init__(self):
        self.slacks: list[float] = []
        self.norms: list[float] = []

    def at(self, s: float) -> float:
        i = bisect.bisect_left(self.slacks, s)
        return self.norms[i] if i < len(self.norms) else -INF

    def add(self, s: float, norm: float) -> None:
        i = bisect.bisect_left(self.slacks, s)
        if i < len(self.norms) and self.norms[i] >= norm:
            return
        j = i
        while j > 0 and self.norms[j - 1] <= norm:
            j -= 1
        end = i + 1 if i < len(self.slacks) and self.slacks[i] == s else i
        self.slacks[j:end] = [s]
        self.norms[j:end] = [norm]


def _lower_witness(net, domain, p, sigma, slack: float, norm: float, stats) -> np.ndarray:
    """A point of the lower argmax's open region, from its slack LP solved alone.

    That one max_slack call is counted in stats, and the pattern's slack and
    norm, each computed alone, must equal those it was aggregated with, bit
    for bit.
    """
    res = max_slack(net, sigma, domain)
    stats.lp_calls += 1
    stats.pivots += res.pivots
    if res.slack != slack or operator_norm(_jacobian_from_bits(net, sigma.bits), p) != norm:
        raise AssertionError("a stacked slack or norm differs from its pattern's own")
    return witness_at_level(net, sigma, domain, 0.0 if res.status == "bounded" else 1.0, slack=res)


def _eps_values(eps_list: Sequence[float]) -> list[float]:
    return list(dict.fromkeys(check_eps(e) for e in eps_list))


def _check_domain(net: MlpNetwork, domain: InputDomain) -> int:
    """Raise DomainEmptyError on an empty domain; return the LPs the check solved."""
    if not domain_nonempty(domain, net.input_dim):
        raise DomainEmptyError("input domain is empty")
    return int(isinstance(domain, Polytope) and domain.A.shape[0] > 0)  # no LP otherwise


def _aggregate(net, domain, p, eps_list, slacks, norms, flats, stats) -> BoundsReport:
    """Every bound, argmax, eps value and the curve from points given as
    arrays: slacks (k,), norms (k,) and flat pattern bits (k, n).

    A target keeps the points whose slack meets its level: upper the closed
    level (eps 0), lower the open one (None), each eps value its own. Its
    value is their largest norm, its argmax the lowest flat among the points
    that reach it. The curve is the envelope of the strictly feasible points.
    The lower argmax's witness comes from _lower_witness.
    """
    widths = net.hidden_widths

    def best(level) -> Optional[int]:
        """Index of the target's argmax at level, or None when no point meets it."""
        tied = meets_level(slacks, level)
        if not tied.any():
            return None
        tied = np.flatnonzero(tied & (norms == norms[tied].max()))
        return tied[np.lexsort(flats[tied].T[::-1])[0]]  # the lowest flat: column 0 leads

    def pattern(i: int) -> ActivationPattern:
        return ActivationPattern.from_flat(widths, tuple(flats[i].tolist()))

    report = BoundsReport(p=p, stats=stats)
    up, lo = best(0.0), best(None)
    if up is not None:
        report.upper, report.argmax_upper = float(norms[up]), pattern(up)
    report.lower_empty = lo is None
    report.lower = 0.0 if lo is None else float(norms[lo])
    if lo is not None:
        sigma = report.argmax_lower = pattern(lo)
        report.witness_x_lower = _lower_witness(net, domain, p, sigma, slacks[lo], norms[lo], stats)
    for e in eps_list:
        i = best(e)
        report.eps_values[e] = 0.0 if i is None else float(norms[i])
        if i is None:
            report.eps_empty.add(e)
        else:
            report.eps_argmax[e] = pattern(i)
    env = _Envelope()
    strict = meets_level(slacks, None)
    for s, v in zip(slacks[strict].tolist(), norms[strict].tolist()):
        env.add(s, v)
    report.curve = [CurveSegment(s, v) for s, v in zip(env.slacks, env.norms)]
    if not env.slacks or env.slacks[-1] != INF:
        report.curve.append(CurveSegment(INF, 0.0, empty=True))
    report.validate()
    return report


# --- brute-force oracle ----------------------------------------------------


def _lp_entries(net: MlpNetwork, domain: InputDomain) -> int:
    """A bound on the entries of one pattern's compact tableau in lp_stack:
    one row per margin, box bound and polytope row, plus the cost row; two
    columns per variable, the auxiliary and the right-hand side. The
    slacks' unit columns are not stored, so they take no entries."""
    n0 = net.input_dim
    rows = net.total_hidden_bits + n0 + (domain.A.shape[0] if isinstance(domain, Polytope) else 0)
    return (rows + 1) * (2 * (n0 + 1) + 2)


def _closed_points(net: MlpNetwork, domain: InputDomain, count: int, stack, stats: SearchStats):
    """The slacks and the indices (kept) of those of patterns 0..count-1
    whose closed region meets the domain, by the slack of each one's own LP.

    stack(i, j) gives the flat bits (j - i, n) of patterns i..j-1. They go
    to max_slacks in stacks of at most _STACK_ENTRIES compact tableau
    entries, _lp_entries per pattern, so a stack holds about three times
    the LPs that full tableaus would fit. Each slack and pivot count is
    max_slack's for that pattern alone, whatever the stack. lp_calls and
    pivots count these LPs, and patterns_feasible the patterns kept.
    """
    step = max(1, _STACK_ENTRIES // _lp_entries(net, domain))
    parts = [(np.empty(0), np.empty(0, dtype=int))]
    for i in range(0, count, step):
        slacks, pivots = max_slacks(net, stack(i, min(i + step, count)), domain)
        stats.pivots += int(pivots.sum())
        keep = np.flatnonzero(meets_level(slacks, 0.0))
        stats.patterns_feasible += keep.size
        parts.append((slacks[keep], i + keep))
    stats.lp_calls += count
    return tuple(np.concatenate(part) for part in zip(*parts))


def brute_force_bounds(
    net: MlpNetwork, domain: InputDomain, p, eps_list: Sequence[float] = ()
) -> BoundsReport:
    """Enumerate every pattern, solve its slack LP, and aggregate all bounds.

    The oracle for the branch-and-bound: one full LP per pattern and no
    pruning. The patterns go in itertools.product order through
    _closed_points, which solves their LPs a stack at a time; then one
    pattern_norms call norms the Jacobians of the closed-feasible ones
    alone, bit-identical to one pattern at a time. lp_calls counts the 2^n
    pattern LPs, the domain probe when it solves an LP, and the lower
    argmax's max_slack, which gives its witness; pivots sums the pivots of
    the pattern LPs and of that last one. Refuses networks with more than
    ENUMERATION_GUARD_BITS hidden neurons.
    """
    p = check_norm_kind(p)
    eps_list = _eps_values(eps_list)
    nbits = net.total_hidden_bits
    if nbits > ENUMERATION_GUARD_BITS:
        raise EnumerationGuardError(
            f"{nbits} hidden bits exceed the enumeration guard ({ENUMERATION_GUARD_BITS})"
        )
    stats = SearchStats(lp_calls=_check_domain(net, domain), nodes_explored=1 << nbits)
    shifts = np.arange(nbits - 1, -1, -1)
    slacks, kept = _closed_points(
        net, domain, 1 << nbits, lambda i, j: (np.arange(i, j)[:, None] >> shifts) & 1, stats
    )
    flats = (kept[:, None] >> shifts) & 1
    return _aggregate(net, domain, p, eps_list, slacks, pattern_norms(net, flats, p), flats, stats)


# --- branch and bound ------------------------------------------------------


def _sign_split(net: MlpNetwork) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W+, W-) = (max(W, 0), min(W, 0)) of every layer, input to output."""
    return [(np.maximum(layer.weights, 0.0), np.minimum(layer.weights, 0.0)) for layer in net.layers]


def _node_bound(c: np.ndarray, fixed: Sequence[int], later: Sequence[tuple], p) -> float:
    """Bound on the pattern-Jacobian norm of every completion of a prefix.

    c holds the pre-activation coefficients of the hidden layer the prefix
    ends in, under the fixed gates of the layers below; fixed gives the
    gates of its first len(fixed) neurons, the rest are free in {0, 1}; later
    is _sign_split of every layer above it, the output layer last. Each
    Jacobian entry is bounded by an interval (Fast-Lip, Weng et al. 2018;
    RecurJac, Zhang et al. 2019): a fixed gate g gives the row g*c exactly,
    a free one [min(c, 0), max(c, 0)]; a layer maps [lo, hi] to
    [W+ lo + W- hi, W+ hi + W- lo], and every later hidden gate widens it
    to [min(lo, 0), max(hi, 0)]. The induced 1-, 2- and inf-norms are
    monotone in the entrywise absolute value, so the norm of
    max(-lo, hi) bounds them all. p is as check_norm_kind returns it, and
    the norm is taken unchecked: an interval that overflows gives an inf
    or NaN bound, which prunes nothing.
    """
    k = len(fixed)
    lo, hi = np.minimum(c, 0.0), np.maximum(c, 0.0)
    lo[:k] = hi[:k] = np.asarray(fixed, dtype=float)[:, None] * c[:k]
    for j, (pos, neg) in enumerate(later):
        if j:
            lo, hi = np.minimum(lo, 0.0), np.maximum(hi, 0.0)
        lo, hi = pos @ lo + neg @ hi, pos @ hi + neg @ lo
    return float(_operator_norms(np.maximum(-lo, hi), p))


def _meets_closed(bound: float) -> bool:
    """The prefix LP's stop test: its bound on the slack meets the closed level."""
    return meets_level(bound, 0.0)


def _search(net: MlpNetwork, domain: Optional[InputDomain], p, stats: SearchStats):
    """Depth-first search over patterns, bit 1 before bit 0, one bit per node.

    The order is walked on an explicit stack of pending prefixes, each
    entry (prefix length, last bit, parent slack, parent tableau), so the
    depth is not bounded by Python's recursion limit.

    Returns the flat bits (k, n) and the norms (k,) of the leaves it keeps
    that no other kept leaf dominates. A prefix, a leaf included, is
    dropped when its prefix slack (the LP over the margins of its fixed
    neurons, an upper bound on every completion's depth) misses the closed
    level. The one value prune runs before the LP: a prefix goes when its
    interval-Jacobian bound (_node_bound) on every completion's norm is
    strictly below the envelope at its parent's slack s plus 2 TAU_STRICT
    (at s itself when s <= TAU_STRICT, where no point is strict), as
    every completion then loses, on every target, to a deeper point.
    Retesting at the prefix's own slack after the LP would save no LP: a
    child's bound never exceeds its parent's and the envelope only grows,
    so each child of such a prefix fails its own pre-LP test. A kept leaf
    joins the envelope at its search slack, which can differ from
    max_slack's in the last bits; the tests hold every search slack to
    within 1e-9 of its exact one, so the 2 TAU_STRICT margin never prunes
    a point that an exact slack would keep. The same bound drops a kept
    leaf when another kept leaf has a strictly larger norm and a search
    slack at least 2 TAU_STRICT deeper: it is then never an argmax and
    never on the curve, so its exact LP would be wasted. The envelope
    holds exactly the kept leaves, so that is a leaf whose norm is below
    the envelope at its slack plus 2 TAU_STRICT. The caller takes the
    survivors' exact slacks from _closed_points. domain=None skips all
    feasibility work (the unconstrained problem; every depth is +inf).

    Every search LP is warm but the root's. The root solves max t over the
    domain with t <= W, W a symbolic +infinity (simplex.symbolic_rhs), so
    every prefix LP is bounded and every node has a dual-feasible tableau
    to start from. A node that needs an LP appends its margin row to its
    parent's tableau and re-optimizes with the dual simplex, which stops as
    soon as its objective, an upper bound on the prefix slack, misses the
    closed level, so a closed-infeasible prefix is pruned before its
    optimum is reached. A slack with a positive W part is +inf. Every
    prefix below the root, leaves included, that the value prune keeps
    takes this LP, so its slack is its own prefix LP's optimum.
    """
    widths = net.hidden_widths
    nbits = sum(widths)
    starts = [0, *itertools.accumulate(widths)]  # flat index of each layer's first bit
    layer_of = [h for h, w in enumerate(widths) for _ in range(w)] + [len(widths)]
    split = _sign_split(net)
    # coeff[h], offset[h]: affine pre-activation form of layer h under the
    # fixed gates of the layers below; coeff[-1] is the pattern Jacobian.
    # rows[h][b]: the margin rows (A, b) of layer h's neurons with gate b.
    coeff = [net.layers[0].weights] + [None] * (net.depth - 1)
    offset = [net.layers[0].bias] + [None] * (net.depth - 1)
    rows: list = [None] * len(widths)
    env = _Envelope()
    flats: list = []  # the kept leaves, their norms and their search slacks
    norms: list = []
    slacks: list = []
    bits: list[int] = []  # the popped entry's prefix
    tab = None
    if domain is not None:
        n0 = net.input_dim
        root = slack_lp(domain, n0, np.eye(1, n0 + 1, n0), np.zeros(1))  # max t, t <= 0
        sol, tab = lp_tableau(root)
        stats.lp_calls += 1
        stats.pivots += sol.pivots
        tab = symbolic_rhs(tab, root.b.size - 1)  # t <= W
    stack = [(0, 0, INF, tab)]  # (prefix length, last bit, parent slack, parent tableau)
    while stack:
        k, b, s, tab = stack.pop()
        if k:
            bits[k - 1 :] = (b,)
        stats.nodes_explored += 1
        h = layer_of[k]
        if k == starts[h]:
            if h > 0:
                gate = bits[starts[h - 1] :]
                coeff[h], offset[h] = _gated_form(net.layers[h], gate, coeff[h - 1], offset[h - 1])
            if domain is not None and h < len(widths):
                rows[h] = tuple(margin_rows(np.full(widths[h], g), coeff[h], offset[h]) for g in (0.0, 1.0))
        best = env.at(s + 2 * TAU_STRICT if s > TAU_STRICT else s)
        if k == nbits:
            ub = operator_norm(coeff[h], p)
        else:
            ub = _node_bound(coeff[h], bits[starts[h] :], split[h + 1 :], p) if best > -INF else None
        if ub is not None and ub < best - _PRUNE_MARGIN:
            continue
        if domain is not None and k:  # the prefix LP, warm from its parent's tableau
            hk = layer_of[k - 1]
            A, rhs = rows[hk][b]
            stats.lp_calls += 1
            stats.warm_lps += 1
            tab = append_row(tab, A[k - 1 - starts[hk]], rhs[k - 1 - starts[hk]])
            sol = dual_simplex(tab, _meets_closed)
            stats.pivots += sol.pivots
            s = sol.value if sol.status == "optimal" else -INF  # a stopped or infeasible LP misses
            if not meets_level(s, 0.0):
                continue
        if k == nbits:
            flats.append(tuple(bits))
            norms.append(ub)
            slacks.append(s)
            env.add(s, ub)
        else:
            stack += ((k + 1, 0, s, tab), (k + 1, 1, s, tab))  # bit 1 pops first
    keep = np.array([not env.at(s + 2 * TAU_STRICT) > v for s, v in zip(slacks, norms)], dtype=bool)
    return np.array(flats, dtype=int).reshape(len(flats), nbits)[keep], np.array(norms)[keep]


def branch_and_bound(
    net: MlpNetwork, domain: InputDomain, p, eps_list: Sequence[float] = ()
) -> BoundsReport:
    """The full report from one pruned search; agrees with brute_force_bounds.

    Upper, lower, every eps value of eps_list and the curve all come out of
    the same search.
    """
    p = check_norm_kind(p)
    eps_list = _eps_values(eps_list)
    stats = SearchStats(lp_calls=_check_domain(net, domain))
    flats, norms = _search(net, domain, p, stats)
    slacks, kept = _closed_points(net, domain, len(flats), lambda i, j: flats[i:j], stats)
    return _aggregate(net, domain, p, eps_list, slacks, norms[kept], flats[kept], stats)


def unconstrained_bound(net: MlpNetwork, p) -> float:
    """max over all patterns of the pattern norm, ignoring region feasibility.

    This is the chain-rule relaxation bound: dropping the membership
    constraint makes every binary gate assignment admissible.
    """
    p = check_norm_kind(p)
    return float(_search(net, None, p, SearchStats())[1].max())


def compute_report(
    net: MlpNetwork,
    domain: InputDomain,
    p,
    eps_list: Sequence[float] = (),
    mode: str = "bnb",
) -> BoundsReport:
    """Full report (upper, lower, requested eps values, exact curve).

    mode="oracle" aggregates the exhaustive enumeration; mode="bnb"
    aggregates the leaves of one pruned search (one branch_and_bound
    call). Both feed the same aggregator and produce identical values;
    only the statistics differ.
    """
    if mode == "oracle":
        return brute_force_bounds(net, domain, p, eps_list)
    if mode != "bnb":
        raise ValueError(f"unknown mode {mode!r}")
    return branch_and_bound(net, domain, p, eps_list)


# --- serialization ---------------------------------------------------------


def _eps_key(e: float) -> str:
    return repr(float(e))


def report_to_dict(report: BoundsReport) -> dict:
    """JSON-ready dict; infinities become the string "inf". It holds no
    timing, so identical inputs serialize to identical bytes. The CLI's
    report file adds "version", "config" and "domain_relaxed" to it."""

    def pattern(sig):
        return [list(layer) for layer in sig.bits] if sig is not None else None

    return {
        "p": inf_to_str(report.p),
        "upper": report.upper,
        "lower": report.lower,
        "lower_empty": report.lower_empty,
        "eps_values": {_eps_key(e): v for e, v in report.eps_values.items()},
        "eps_empty": sorted(_eps_key(e) for e in report.eps_empty),
        "curve": [
            {"eps": inf_to_str(seg.eps_end), "value": seg.value, **({"empty": True} if seg.empty else {})}
            for seg in report.curve
        ],
        "argmax_upper": pattern(report.argmax_upper),
        "argmax_lower": pattern(report.argmax_lower),
        "argmax_eps": {_eps_key(e): pattern(s) for e, s in report.eps_argmax.items()},
        "witness_x": None
        if report.witness_x_lower is None
        else [float(v) for v in report.witness_x_lower],
        "stats": asdict(report.stats),
    }
