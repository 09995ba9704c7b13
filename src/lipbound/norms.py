"""Induced operator norms for p in {1, 2, inf} and norm-achieving witnesses.

p=1 is the max column absolute sum, p=inf the max row absolute sum, and
p=2 the largest singular value, taken from one LAPACK SVD (np.linalg.svd);
the witness for p=2 is the first right singular vector. LAPACK's SVD is
backward stable: the computed singular values are exact for A + E with
||E||_2 <= c(m, n) * u * ||A||_2, c growing like max(m, n) and u the unit
roundoff, so by Weyl's inequality the p=2 value is within that relative
error of the true norm. It scales A internally, so entries near the ends
of the floating-point range neither overflow nor underflow.

Every value is a round-to-nearest result, none rounded outward: the
p=1 and p=inf sums carry the same kind of O(n * u) relative error, and an
outward step would move values that are exact in floating point, such as
the norm 1.0 of an identity-like pattern Jacobian, off that value.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .network import ActivationPattern, MlpNetwork, _jacobian_from_bits, jacobian

INF = math.inf
_STACK_ENTRIES = 1 << 22  # bound on one Jacobian stack's intermediates (32 MB)


def check_norm_kind(p) -> float:
    """Normalize p to one of 1, 2, inf; reject anything else, booleans too."""
    if isinstance(p, (bool, np.bool_)):  # True == 1, but it names no norm
        raise ValueError(f"{p!r} is not a norm order")
    if p in (1, 2):
        return int(p)
    if p == INF or p == np.inf or (isinstance(p, str) and p.lower() == "inf"):
        return INF
    raise ValueError(f"unsupported norm order {p!r}; expected 1, 2, or inf")


def inf_to_str(v):
    """v as this package writes it to JSON and text: +inf becomes the string
    "inf", which check_norm_kind reads back; any other value is unchanged."""
    return "inf" if v == INF else v


def operator_norms(A: Sequence, p) -> np.ndarray:
    """Induced p-norms of a stack of dense matrices, shape (..., m, n) -> (...).

    Each value is bit-identical to operator_norm of that matrix alone.
    """
    p = check_norm_kind(p)
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    if p == 1:
        return np.abs(A).sum(axis=-2).max(axis=-1)
    if p == INF:
        return np.abs(A).sum(axis=-1).max(axis=-1)
    return np.linalg.svd(A, compute_uv=False)[..., 0]


def operator_norm(A: Sequence, p) -> float:
    """Induced p-norm of a dense matrix."""
    return float(operator_norms(np.atleast_2d(A), p))


def pattern_norm(net: MlpNetwork, sigma: ActivationPattern, p) -> float:
    """Induced p-norm of the Jacobian selected by the pattern."""
    return operator_norm(jacobian(net, sigma), p)


def pattern_norms(net: MlpNetwork, flats: np.ndarray, p) -> np.ndarray:
    """pattern_norm of each row of flat pattern bits, shape (k, n) -> (k,).

    The Jacobians are formed and normed in stacks of bounded size; each
    value is bit-identical to pattern_norm of that pattern alone.
    """
    cuts = list(itertools.accumulate(net.hidden_widths[:-1]))
    step = max(1, _STACK_ENTRIES // (max(net.widths) * net.input_dim))
    return np.concatenate([
        operator_norms(_jacobian_from_bits(net, np.hsplit(flats[i : i + step], cuts)), p)
        for i in range(0, len(flats), step)
    ])


def norm_witness(A: Sequence, p) -> np.ndarray:
    """Unit-p-norm vector y with ||A y||_p equal to the induced norm.

    Ties (p=1 column choice, p=inf row choice) resolve to the lowest index.
    For p=2 the sign, which LAPACK leaves open, makes the entry of largest
    magnitude positive, the lowest index among (near-)equal magnitudes.
    A zero matrix yields e_1, which attains its norm 0 exactly.
    """
    p = check_norm_kind(p)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    n = A.shape[1]
    if not np.any(A):
        y = np.zeros(n)
        y[0] = 1.0
        return y
    if p == 1:
        j = int(np.abs(A).sum(axis=0).argmax())
        y = np.zeros(n)
        y[j] = 1.0
        return y
    if p == INF:
        i = int(np.abs(A).sum(axis=1).argmax())
        y = np.where(A[i] >= 0.0, 1.0, -1.0)
        return y
    y = np.linalg.svd(A, full_matrices=False)[2][0]
    # Entries equal in exact arithmetic come out a few ulps apart, so
    # magnitudes within 1e-9 of the largest count as tied.
    mag = np.abs(y)
    j = int((mag >= (1.0 - 1e-9) * mag.max()).argmax())
    return -y if y[j] < 0.0 else y
