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

import math
import warnings
from typing import Sequence

import numpy as np

from .network import ActivationPattern, MlpNetwork, jacobian

INF = math.inf
NORM_KINDS = (1, 2, INF)


def check_norm_kind(p) -> float:
    """Normalize p to one of 1, 2, inf; reject anything else."""
    if p in (1, 2):
        return int(p)
    if p == INF or p == np.inf or (isinstance(p, str) and p.lower() == "inf"):
        return INF
    raise ValueError(f"unsupported norm order {p!r}; expected 1, 2, or inf")


def operator_norm(A: Sequence, p) -> float:
    """Induced p-norm of a dense matrix."""
    p = check_norm_kind(p)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    if p == 1:
        return float(np.abs(A).sum(axis=0).max())
    if p == INF:
        return float(np.abs(A).sum(axis=1).max())
    return float(np.linalg.svd(A, compute_uv=False)[0])


def pattern_norm(net: MlpNetwork, sigma: ActivationPattern, p) -> float:
    """Induced p-norm of the Jacobian selected by the pattern."""
    return operator_norm(jacobian(net, sigma), p)


def norm_witness(A: Sequence, p) -> np.ndarray:
    """Unit-p-norm vector y with ||A y||_p equal to the induced norm.

    Ties (p=1 column choice, p=inf row choice) resolve to the lowest index.
    For p=2 the sign, which LAPACK leaves open, makes the entry of largest
    magnitude positive, the lowest index among (near-)equal magnitudes.
    A zero matrix yields e_1 with a warning; any unit vector is as good.
    """
    p = check_norm_kind(p)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    n = A.shape[1]
    if not np.any(A):
        warnings.warn("zero matrix: witness is arbitrary", UserWarning)
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
