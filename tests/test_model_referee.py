"""A referee for the exported model: its optimum equals the engine's value.

The engine's own assignments, scored in the model, show only that the
model's optimum is at least the engine's value. Here the model is solved
outright: every binary that appears in a product term (sigma, and for
p=inf also mu, and eta unless the objective is linearized) is enumerated
and substituted, and what is left, now linear, goes to HiGHS through
scipy.optimize.milp, with the other binaries (nu and mu for p=1, eta for
the linearized p=inf) kept integral. The largest optimum must equal
the 2^n oracle's upper bound at eps 0 and its eps value above, and the
model must be infeasible exactly when the oracle lists eps as empty. On
the box at eps 0, a model with one margin row dropped, or with a big-M too
small, must fail.
p=2 and L2 balls are out of scope: they multiply two continuous
variables.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

import lipbound.miqcqp as miqcqp_module  # noqa: E402
from lipbound import AllSpace, Polytope, brute_force_bounds, build_model  # noqa: E402
from lipbound.miqcqp import BINARY, GE, LE  # noqa: E402

from conftest import random_net, unit_box  # noqa: E402

SEEDS = range(4)
EPS = (0.0, 0.1)
NORMS = {"1": (1, False), "inf": (math.inf, False), "inf-lin": (math.inf, True)}
DOMAINS = ("box", "poly", "all")


@functools.cache
def net(seed):
    return random_net(seed, n_hidden_layers=2, max_width=2)


def domain(seed, name):
    n0 = net(seed).input_dim
    return {
        "box": unit_box(net(seed)),
        "poly": Polytope(np.vstack([np.eye(n0), -np.eye(n0)]), np.ones(2 * n0)),
        "all": AllSpace(),
    }[name]


@functools.cache
def engine(seed, dom, p, eps):
    """The oracle's value at eps, or None when no pattern meets eps."""
    report = brute_force_bounds(net(seed), domain(seed, dom), p, [eps] if eps else [])
    if eps == 0.0:
        return report.upper
    return None if eps in report.eps_empty else report.eps_values[eps]


def referee(model):
    """The model's optimum over all of its points, or None if it has none."""
    index = model.variable_index
    n = len(model.variables)
    rows = model.linear_constraints + model.quadratic_constraints
    A = np.zeros((len(rows), n))
    quad = []  # (row, a, b, coef); row -1 is the objective
    for r, c in enumerate(rows):
        for name, coef in c.lin:
            A[r, index[name]] += coef
        quad += [(r, index[a], index[b], coef) for a, b, coef in c.quad]
    rhs = np.array([c.rhs for c in rows])
    rel = np.array([c.rel for c in rows])
    row_lo = np.where(rel == LE, -np.inf, rhs)
    row_hi = np.where(rel == GE, np.inf, rhs)  # and rhs for EQ
    cost = np.zeros(n)
    for name, coef in model.objective.lin:
        cost[index[name]] += coef
    quad += [(-1, index[a], index[b], coef) for a, b, coef in model.objective.quad]
    lower = np.array([-np.inf if v.lower is None else v.lower for v in model.variables])
    upper = np.array([np.inf if v.upper is None else v.upper for v in model.variables])
    binary = np.array([v.kind == BINARY for v in model.variables])
    R, I, J, C = (np.array(col) for col in zip(*quad))
    fixed = np.zeros(n, dtype=bool)
    fixed[I[binary[I]]] = fixed[J[binary[J]]] = True
    enumerated = np.flatnonzero(fixed)
    integral = (binary & ~fixed).astype(int)
    # every product has a factor that is enumerated; the other one stays
    other = np.where(fixed[J], I, J)
    factor = np.where(fixed[J], J, I)
    assert fixed[factor].all()
    in_row = R >= 0

    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(enumerated)):
        value = np.zeros(n)
        value[enumerated] = bits
        A_fixed, cost_fixed = A.copy(), cost.copy()
        np.add.at(A_fixed, (R[in_row], other[in_row]), C[in_row] * value[factor[in_row]])
        np.add.at(cost_fixed, other[~in_row], C[~in_row] * value[factor[~in_row]])
        lo, hi = lower.copy(), upper.copy()
        lo[enumerated] = hi[enumerated] = bits
        res = optimize.milp(
            -cost_fixed,
            constraints=optimize.LinearConstraint(A_fixed, row_lo, row_hi),
            bounds=optimize.Bounds(lo, hi),
            integrality=integral,
        )
        assert res.status in (0, 2), res.message  # optimal or infeasible
        if res.status == 0:
            got = -res.fun + model.objective.constant
            best = got if best is None else max(best, got)
    return best


def models(doms=DOMAINS, norms=NORMS, levels=EPS):
    for seed, dom, norm, eps in itertools.product(SEEDS, doms, norms, levels):
        p, lin = NORMS[norm]
        yield (seed, dom, p, eps), build_model(
            net(seed), domain(seed, dom), p, eps, linearize_inf_objective=lin
        )


def mismatch(case, model):
    want, got = engine(*case), referee(model)
    if want is None or got is None:
        return want is not got
    return abs(got - want) > 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("dom", DOMAINS)
def test_model_optimum_equals_engine(dom):
    for case, model in models(doms=(dom,)):
        assert not mismatch(case, model), (case, engine(*case), referee(model))


def test_dropped_margin_row_is_caught():
    caught = 0
    for case, model in models(doms=("box",), norms=("1", "inf"), levels=(0.0,)):
        rows = tuple(c for c in model.quadratic_constraints if c.cid != "slack2[1]")
        assert len(rows) == len(model.quadratic_constraints) - 1
        caught += mismatch(case, dataclasses.replace(model, quadratic_constraints=rows))
    assert caught


@pytest.mark.parametrize("norm", ["1", "inf-lin"])
def test_halved_big_m_is_caught(monkeypatch, norm):
    compute = miqcqp_module.compute_bigM
    monkeypatch.setattr(miqcqp_module, "compute_bigM", lambda net, p: 0.5 * compute(net, p))
    box = models(doms=("box",), norms=(norm,), levels=(0.0,))
    assert sum(mismatch(case, model) for case, model in box)
