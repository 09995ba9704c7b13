"""Heuristic lower estimates by sampling: pattern norms at random inputs
and pairwise difference quotients. Never part of a certified output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainEmptyError
from .network import (
    ActivationPattern,
    AllSpace,
    Box,
    InputDomain,
    L2Ball,
    MlpNetwork,
    Polytope,
    check_domain_dim,
    forward,
    pattern_of,
)
from .norms import INF, check_norm_kind, pattern_norm
from .simplex import GE, LE, LinearProgram, lp_solve

# Pre-activations must clear this margin for a sample to count: it keeps
# every sampled pattern strictly inside its region.
BOUNDARY_MARGIN = 1e-6

_HIT_AND_RUN_STEPS = 5
_CHORD_CAP = 1e3  # truncation for unbounded chords; sampling is heuristic anyway


def vector_norm(v: np.ndarray, p) -> float:
    p = check_norm_kind(p)
    if p == INF:
        return float(np.abs(v).max())
    return float(np.abs(v).sum()) if p == 1 else float(np.linalg.norm(v))


@dataclass(frozen=True)
class SampleEstimate:
    value: float
    best_x: Optional[np.ndarray]
    best_pattern: Optional[ActivationPattern]
    n_valid: int  # samples with all pre-activations clear of the boundary


def chebyshev_center(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the largest ball inside {x : A x <= b}.

    max r  s.t.  A_i x + ||A_i||_2 r <= b_i,  0 <= r <= cap. The radius cap
    keeps the LP bounded on unbounded polytopes.
    """
    A = np.atleast_2d(np.asarray(A, float))
    b = np.atleast_1d(np.asarray(b, float))
    m, n = A.shape
    rows = np.hstack([A, np.linalg.norm(A, axis=1)[:, None]])
    rel = np.full(m, LE, dtype=object)
    obj = np.zeros(n + 1)
    obj[-1] = 1.0
    bounds = [(None, None)] * n + [(0.0, _CHORD_CAP)]
    sol = lp_solve(LinearProgram.from_arrays(obj, rows, rel, b, bounds))
    if sol.status == "infeasible":
        raise DomainEmptyError("polytope is empty")
    return sol.x[:n], float(sol.x[n])


def _hit_and_run(A, b, start, n_samples, rng):
    """Uniform-ish samples from {A x <= b} by hit-and-run from start."""
    x = np.array(start, float)
    out = np.empty((n_samples, x.shape[0]))
    for s in range(n_samples):
        for _ in range(_HIT_AND_RUN_STEPS):
            d = rng.standard_normal(x.shape[0])
            d /= np.linalg.norm(d)
            Ad = A @ d
            resid = b - A @ x
            lo, hi = -_CHORD_CAP, _CHORD_CAP
            for a, r in zip(Ad, resid):
                if a > 1e-12:
                    hi = min(hi, r / a)
                elif a < -1e-12:
                    lo = max(lo, r / a)
            if hi <= lo:
                continue  # numerically on the boundary; try another direction
            x = x + rng.uniform(lo, hi) * d
        out[s] = x
    return out


def sample_domain(domain: InputDomain, n0: int, n_samples: int, rng) -> np.ndarray:
    """Random points inside the domain, shape (n_samples, n0)."""
    if isinstance(domain, AllSpace):
        return 10.0 * rng.standard_normal((n_samples, n0))
    if isinstance(domain, Box):
        return rng.uniform(domain.lower, domain.upper, size=(n_samples, n0))
    if isinstance(domain, L2Ball):
        g = rng.standard_normal((n_samples, n0))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = domain.radius * rng.uniform(0.0, 1.0, size=(n_samples, 1)) ** (1.0 / n0)
        return domain.center + radii * g
    if isinstance(domain, Polytope):
        center, _ = chebyshev_center(domain.A, domain.b)
        return _hit_and_run(domain.A, domain.b, center, n_samples, rng)
    raise TypeError(f"unknown domain {type(domain).__name__}")


def sampled_lower_bound(
    net: MlpNetwork,
    domain: InputDomain,
    p,
    n_samples: int,
    seed: int,
) -> SampleEstimate:
    """Largest pattern norm seen over random inputs.

    Only samples whose pre-activations all clear the boundary margin count,
    so each one certifies a strictly feasible pattern; on polyhedral
    domains the estimate therefore never exceeds the strict lower bound.
    """
    p = check_norm_kind(p)
    if n_samples <= 0:
        raise ValueError(f"need a positive sample count, got {n_samples}")
    check_domain_dim(domain, net.input_dim)
    rng = np.random.default_rng(seed)
    xs = sample_domain(domain, net.input_dim, n_samples, rng)
    best = 0.0
    best_x = None
    best_pattern = None
    n_valid = 0
    for x in xs:
        _, preacts = forward(net, x)
        if min(float(np.abs(t).min()) for t in preacts) <= BOUNDARY_MARGIN:
            continue
        n_valid += 1
        sigma = pattern_of(net, x)
        value = pattern_norm(net, sigma, p)
        if value > best:
            best, best_x, best_pattern = value, np.array(x), sigma
    return SampleEstimate(best, best_x, best_pattern, n_valid)


def pairwise_quotient_estimate(
    net: MlpNetwork,
    domain: InputDomain,
    p,
    n_pairs: int,
    seed: int,
) -> float:
    """Largest difference quotient ||f(y)-f(x)||_p / ||y-x||_p over sampled pairs."""
    p = check_norm_kind(p)
    if n_pairs <= 0:
        raise ValueError(f"need a positive pair count, got {n_pairs}")
    check_domain_dim(domain, net.input_dim)
    rng = np.random.default_rng(seed)
    xs = sample_domain(domain, net.input_dim, n_pairs, rng)
    ys = sample_domain(domain, net.input_dim, n_pairs, rng)
    best = 0.0
    for x, y in zip(xs, ys):
        gap = vector_norm(y - x, p)
        if gap == 0.0:
            continue  # coincident pair
        fx, _ = forward(net, x)
        fy, _ = forward(net, y)
        best = max(best, vector_norm(fy - fx, p) / gap)
    return best
