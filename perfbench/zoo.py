"""Seeded benchmark inputs: the small-net zoo and the large-net stream.

Every instance is a pure function of (seed, index). The seed moves the
weights, the polytope cuts and the sample points; the shapes and the
class / domain / p rotation depend on the index only, so every seed sees
the same mix of sizes and a run's throughput reflects the program rather
than which shapes the seed happened to draw.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

CLASSES = ("one_hidden", "two_hidden", "three_hidden", "degenerate")
DOMAINS = ("box", "polytope", "all")
P_VALUES = (1, 2, math.inf)

# class = i % 4, domain = i % 3 and p = (i // 3) % 3: (domain, p) cycles
# with period 9, coprime to the class period 4, so 36 consecutive indices
# hold every class x domain x p combination, and any 12 consecutive ones
# hold every class and every domain x p pair.
ROTATION = len(CLASSES) * len(DOMAINS) * len(P_VALUES)

MAX_ZOO_BITS = 12


def p_label(p) -> str:
    return "inf" if p == math.inf else str(p)


def combo(index: int) -> tuple[str, str, float]:
    """(class, domain, p) of zoo instance `index`."""
    cls = CLASSES[index % 4]
    dom = DOMAINS[index % 3]
    p = P_VALUES[(index // 3) % 3]
    return cls, dom, p


def _hidden_widths(cls: str, k: int) -> tuple[int, ...]:
    """Hidden widths of the k-th instance of a class."""
    if cls == "one_hidden":
        return (7 + k % 4,)
    if cls == "two_hidden":
        return (3 + k % 3, 3 + (k + 1) % 3)
    if cls == "three_hidden":
        return (2 + k % 2, 2 + (k // 2) % 2, 2 + (k + 1) % 2)
    return (4 + k % 2, 3)


def _layers(rng, widths, bias_scale):
    out = []
    for k in range(len(widths) - 1):
        w = rng.standard_normal((widths[k + 1], widths[k])) / math.sqrt(widths[k])
        b = bias_scale * rng.standard_normal(widths[k + 1])
        out.append((w, b))
    return out


def _net_doc(layers) -> dict:
    return {"layers": [{"weights": w.tolist(), "bias": b.tolist()} for w, b in layers]}


def _domain_doc(kind: str, n0: int, rng) -> dict:
    if kind == "all":
        return {"type": "all"}
    if kind == "box":
        return {"type": "box", "lower": [-1.0] * n0, "upper": [1.0] * n0}
    # The box plus two cuts c.x <= beta that keep the origin strictly inside.
    eye = np.eye(n0)
    cuts = rng.standard_normal((2, n0))
    beta = rng.uniform(0.2, 0.8, size=2) * np.abs(cuts).sum(axis=1)
    A = np.vstack([eye, -eye, cuts])
    b = np.concatenate([np.ones(2 * n0), beta])
    return {"type": "polytope", "A": A.tolist(), "b": b.tolist()}


def zoo_instance(seed: int, index: int) -> dict:
    """One small zoo net with its domain and p; at most 12 hidden bits."""
    cls, dom, p = combo(index)
    k = index // 4
    n0 = 2 + k % 2
    n_out = 1 + (index // 8) % 2
    widths = (n0,) + _hidden_widths(cls, k) + (n_out,)
    rng = np.random.default_rng([seed, index])
    if cls == "degenerate":
        # Zero bias everywhere, so every region is a cone through the origin
        # (unbounded slack on AllSpace), and one first-layer neuron copies or
        # negates another, so some closed regions have an empty interior.
        layers = _layers(rng, widths, 0.0)
        w0, b0 = layers[0]
        w0[1] = w0[0] if k % 2 == 0 else -w0[0]
        layers[0] = (w0, b0)
    else:
        layers = _layers(rng, widths, 0.5)
    return {
        "index": index,
        "cls": cls,
        "p": p,
        "widths": widths,
        "net": _net_doc(layers),
        "domain": _domain_doc(dom, n0, rng),
    }


def large_instance(seed: int, index: int) -> dict:
    """One large net on the box [-1, 1]^n0 with a seeded point inside it.

    8-16 inputs, two hidden layers of 12-24 neurons, 2-8 outputs, weights
    scaled by 1/sqrt(fan-in); p rotates through 1, 2, inf.
    """
    n0 = 8 + (index // 3) % 9
    h1 = 12 + (5 * index) % 13
    h2 = 12 + (7 * index + 6) % 13
    n_out = 2 + index % 7
    widths = (n0, h1, h2, n_out)
    rng = np.random.default_rng([seed, index, 1])
    layers = _layers(rng, widths, 0.5)
    return {
        "index": index,
        "cls": "large",
        "p": P_VALUES[index % 3],
        "widths": widths,
        "net": _net_doc(layers),
        "domain": {"type": "box", "lower": [-1.0] * n0, "upper": [1.0] * n0},
        "point": rng.uniform(-1.0, 1.0, size=n0).tolist(),
        "sample_seed": int(rng.integers(0, 2**31)),
    }


def fingerprint(instances) -> str:
    """Short digest of the generated inputs, to tie stored references to them."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(json.dumps([inst["net"], inst["domain"], p_label(inst["p"])]).encode())
    return h.hexdigest()[:16]
