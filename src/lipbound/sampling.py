"""Heuristic lower estimates by sampling: pattern norms at random inputs
and pairwise difference quotients. Never part of a certified output.

Each estimate is one batched pass. One forward over all samples gives the
pre-activations, the boundary mask and the bit patterns together; the
Jacobians of the distinct patterns are formed and normed in stacks by
pattern_norms. The reported sample is the first one that reaches the
maximum, and its value is recomputed on the single-point path
(pattern_of, pattern_norm), so it is the same number a per-sample loop
would give.
The pairwise quotient comes from two batched forwards and row-wise
norms; it can differ from a per-pair loop in the last ulps, because a
batched matrix product and a row-wise norm round differently.
"""

from __future__ import annotations

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
    check_domain_dim,
    forward,
    pattern_of,
)
from .norms import check_norm_kind, pattern_norm, pattern_norms
from .simplex import LinearProgram, lp_solve

# Pre-activations must clear this margin for a sample to count: it keeps
# every sampled pattern strictly inside its region.
BOUNDARY_MARGIN = 1e-6

_HIT_AND_RUN_STEPS = 5
_CHORD_CAP = 1e3  # truncation for unbounded chords; sampling is heuristic anyway


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
    n = A.shape[1]
    rows = np.hstack([A, np.linalg.norm(A, axis=1)[:, None]])
    obj = np.zeros(n + 1)
    obj[-1] = 1.0
    bounds = [(None, None)] * n + [(0.0, _CHORD_CAP)]
    sol = lp_solve(LinearProgram(obj, rows, b, bounds))
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
            up, down = Ad > 1e-12, Ad < -1e-12
            hi = np.min(resid[up] / Ad[up], initial=_CHORD_CAP)
            lo = np.max(resid[down] / Ad[down], initial=-_CHORD_CAP)
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
    center, _ = chebyshev_center(domain.A, domain.b)  # a Polytope
    return _hit_and_run(domain.A, domain.b, center, n_samples, rng)


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
    _, preacts = forward(net, xs)
    theta = np.hstack(preacts)
    valid = np.all(np.abs(theta) > BOUNDARY_MARGIN, axis=1)
    n_valid = int(valid.sum())
    if n_valid == 0:
        return SampleEstimate(0.0, None, None, 0)
    patterns, which = np.unique(theta[valid] > 0.0, axis=0, return_inverse=True)
    values = pattern_norms(net, patterns, p)[which.reshape(-1)]  # numpy 2.0.0 gives a column
    first = int(values.argmax())  # argmax returns the first of tied maxima
    if not values[first] > 0.0:
        return SampleEstimate(0.0, None, None, n_valid)
    best_x = np.array(xs[valid][first])
    sigma = pattern_of(net, best_x)
    return SampleEstimate(pattern_norm(net, sigma, p), best_x, sigma, n_valid)


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
    gaps = np.linalg.norm(ys - xs, p, axis=-1)
    apart = gaps != 0.0  # coincident pairs are skipped
    if not apart.any():
        return 0.0
    fx, _ = forward(net, xs[apart])
    fy, _ = forward(net, ys[apart])
    return float((np.linalg.norm(fy - fx, p, axis=-1) / gaps[apart]).max())
