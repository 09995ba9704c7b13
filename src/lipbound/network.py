"""ReLU multi-layer perceptrons and their activation-pattern geometry.

A network is a stack of affine layers with element-wise ReLU between them.
Fixing a binary on/off pattern for every hidden neuron freezes the network
to an affine map; this module evaluates forward passes, extracts patterns,
reduces hidden pre-activations to affine functions of the input under a
fixed pattern, and forms the per-pattern Jacobian.

All values are immutable after construction and safe to share across
concurrent tasks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DomainFormatError, NetworkFormatError


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Layer:
    """One affine map: x -> weights @ x + bias."""

    weights: np.ndarray  # (n_out, n_in)
    bias: np.ndarray  # (n_out,)


@dataclass(frozen=True)
class MlpNetwork:
    """A ReLU MLP given by its affine layers, input to output.

    The k-th layer has weights of shape (n_k, n_{k-1}); ReLU is applied
    after every layer except the last. At least one hidden layer is
    required (two affine maps).
    """

    layers: tuple[Layer, ...]
    widths: tuple[int, ...] = field(init=False, repr=False, compare=False)  # (n_0, n_1, ..., n_L)

    def __post_init__(self):
        if len(self.layers) < 2:
            raise NetworkFormatError(
                f"need at least 2 affine layers (one hidden layer), got {len(self.layers)}"
            )
        clean = []
        prev_out = None
        for k, layer in enumerate(self.layers):
            w = np.asarray(layer.weights, dtype=float)
            b = np.asarray(layer.bias, dtype=float)
            if w.ndim != 2 or b.ndim != 1:
                raise NetworkFormatError(f"layer {k}: weights must be 2-D and bias 1-D")
            if w.shape[0] != b.shape[0]:
                raise NetworkFormatError(
                    f"layer {k}: weights have {w.shape[0]} rows but bias has {b.shape[0]} entries"
                )
            if w.shape[0] == 0 or w.shape[1] == 0:
                raise NetworkFormatError(f"layer {k}: empty weight matrix {w.shape}")
            if prev_out is not None and w.shape[1] != prev_out:
                raise NetworkFormatError(
                    f"layer {k}: expects {w.shape[1]} inputs but layer {k - 1} produces {prev_out}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NetworkFormatError(f"layer {k}: non-finite entry")
            prev_out = w.shape[0]
            clean.append(Layer(_readonly(w), _readonly(b)))
        object.__setattr__(self, "layers", tuple(clean))
        widths = (clean[0].weights.shape[1],) + tuple(layer.weights.shape[0] for layer in clean)
        object.__setattr__(self, "widths", widths)

    @classmethod
    def from_arrays(cls, layers: Sequence[tuple[Sequence, Sequence]]) -> "MlpNetwork":
        return cls(tuple(Layer(np.asarray(w, float), np.asarray(b, float)) for w, b in layers))

    @property
    def depth(self) -> int:
        """Number of affine maps L."""
        return len(self.layers)

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.widths[1:-1]

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def total_hidden_bits(self) -> int:
        return sum(self.hidden_widths)


# JSON numbers parse as int or float; true/false parse as bool, which
# float() would take for 1.0/0.0, and float() would also read "5" as 5.0.
_NUMBER_TYPES = {int, float}


def _json_floats(raw, what: str, error: type[Exception]) -> np.ndarray:
    """A JSON number or (nested) list of numbers as a float array; anything
    else in a number's place, a string, boolean, null or ragged list, raises
    error."""
    cells = np.asarray(raw, dtype=object)
    if not set(map(type, cells.flat)) <= _NUMBER_TYPES:
        bad = next(v for v in cells.flat if type(v) not in _NUMBER_TYPES)
        raise error(f"{what}: {bad!r} is not a number")
    try:
        return cells.astype(float)
    except OverflowError:  # an integer literal beyond the float range
        raise error(f"{what}: not finite") from None


def _json_doc(text: str, error: type[Exception]):
    """The document that text holds; text that is not JSON raises error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from exc


def load_network(text: str) -> MlpNetwork:
    """Parse a network from its JSON description.

    Schema: ``{"layers": [{"weights": [[...], ...], "bias": [...]}, ...]}``
    with row-major weights, layers ordered input to output.
    """
    doc = _json_doc(text, NetworkFormatError)
    if not isinstance(doc, dict) or "layers" not in doc:
        raise NetworkFormatError('missing top-level "layers" list')
    raw = doc["layers"]
    if not isinstance(raw, list) or not raw:
        raise NetworkFormatError('"layers" must be a non-empty list')
    layers = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict) or "weights" not in entry or "bias" not in entry:
            raise NetworkFormatError(f'layer {k}: needs "weights" and "bias"')
        w = _json_floats(entry["weights"], f"layer {k}: weights", NetworkFormatError)
        b = _json_floats(entry["bias"], f"layer {k}: bias", NetworkFormatError)
        layers.append(Layer(w, b))
    return MlpNetwork(tuple(layers))


@dataclass(frozen=True)
class ActivationPattern:
    """One binary on/off bit per hidden neuron, grouped by layer.

    Bits are stored as nested tuples so patterns are hashable and compare
    lexicographically in layer-major, neuron-minor order.
    """

    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(int(b) for b in layer) for layer in self.bits)
        for layer in norm:
            for b in layer:
                if b not in (0, 1):
                    raise ValueError(f"pattern bit {b} is not binary")
        object.__setattr__(self, "bits", norm)

    @classmethod
    def from_flat(cls, hidden_widths: Sequence[int], flat: Sequence[int]) -> "ActivationPattern":
        if len(flat) != sum(hidden_widths):
            raise ValueError(f"expected {sum(hidden_widths)} bits, got {len(flat)}")
        out, pos = [], 0
        for w in hidden_widths:
            out.append(tuple(flat[pos : pos + w]))
            pos += w
        return cls(tuple(out))

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(b for layer in self.bits for b in layer)


def _check_pattern(net: MlpNetwork, layers: Sequence[Sequence], what: str) -> None:
    """Raise ValueError unless layers, a pattern's bits or a relaxed
    pattern's gates, holds one entry per hidden neuron of net."""
    shape = tuple(len(layer) for layer in layers)
    if shape != net.hidden_widths:
        raise ValueError(f"{what} shape {shape} does not match hidden widths {net.hidden_widths}")


@dataclass(frozen=True)
class RelaxedPattern:
    """Per-neuron gates in [0, 1]; the continuous relaxation of a pattern."""

    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(float(v) for v in layer) for layer in self.values)
        for layer in norm:
            for v in layer:
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"gate {v} outside [0, 1]")
        object.__setattr__(self, "values", norm)


@dataclass(frozen=True)
class AffineForm:
    """An affine function of the network input: x -> coeffs . x + offset."""

    coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _readonly(np.atleast_1d(self.coeffs)))
        object.__setattr__(self, "offset", float(self.offset))

    def __call__(self, x: Sequence[float]) -> float:
        return float(self.coeffs @ np.asarray(x, float)) + self.offset


# --- input domains ---------------------------------------------------------


@dataclass(frozen=True)
class AllSpace:
    """The whole input space R^{n_0}."""


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, float))
        up = np.atleast_1d(np.asarray(self.upper, float))
        if lo.shape != up.shape or lo.ndim != 1:
            raise DomainFormatError("box lower/upper must be vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise DomainFormatError("box bounds must be finite")
        if np.any(lo > up):
            raise DomainFormatError("box has lower > upper in some coordinate")
        object.__setattr__(self, "lower", _readonly(lo))
        object.__setattr__(self, "upper", _readonly(up))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class Polytope:
    """Half-space intersection {x : A x <= b}."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, float))
        b = np.atleast_1d(np.asarray(self.b, float))
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise DomainFormatError("polytope needs A (m x n) and b (m,)")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise DomainFormatError("polytope has non-finite entries")
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "b", _readonly(b))

    @property
    def dim(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class L2Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, float))
        r = np.asarray(self.radius, float)
        if c.ndim != 1 or not np.isfinite(c).all():
            raise DomainFormatError("ball center must be a finite vector")
        if r.ndim:
            raise DomainFormatError(f"ball radius must be a number, got {r.tolist()}")
        if not (r > 0 and math.isfinite(r)):
            raise DomainFormatError(f"ball radius must be positive and finite, got {r}")
        object.__setattr__(self, "center", _readonly(c))
        object.__setattr__(self, "radius", float(r))

    @property
    def dim(self) -> int:
        return self.center.shape[0]


InputDomain = Union[AllSpace, Box, Polytope, L2Ball]


def load_domain(text: str) -> InputDomain:
    """Parse an input domain from JSON.

    Schema: ``{"type":"all"} | {"type":"box","lower":[...],"upper":[...]} |
    {"type":"polytope","A":[[...]],"b":[...]} |
    {"type":"l2ball","center":[...],"radius":r}``.
    """
    doc = _json_doc(text, DomainFormatError)
    if not isinstance(doc, dict) or "type" not in doc:
        raise DomainFormatError('missing "type" field')
    kind = doc["type"]

    def num(key: str) -> np.ndarray:
        return _json_floats(doc[key], f"domain type {kind!r}: {key}", DomainFormatError)

    try:
        if kind == "all":
            return AllSpace()
        if kind == "box":
            return Box(num("lower"), num("upper"))
        if kind == "polytope":
            return Polytope(num("A"), num("b"))
        if kind == "l2ball":
            return L2Ball(num("center"), num("radius"))
    except KeyError as exc:
        raise DomainFormatError(f"domain type {kind!r}: missing field {exc}") from exc
    raise DomainFormatError(f"unknown domain type {kind!r}")


def check_domain_dim(domain: InputDomain, n0: int) -> None:
    """Raise TypeError unless the domain is an InputDomain, the one type check
    of every entry point, and DomainFormatError unless it lives in R^n0."""
    if not isinstance(domain, InputDomain):
        raise TypeError(f"unknown domain {type(domain).__name__}")
    if not isinstance(domain, AllSpace) and domain.dim != n0:
        raise DomainFormatError(f"domain dimension {domain.dim} does not match network input dim {n0}")


# --- core operations -------------------------------------------------------


def forward(net: MlpNetwork, x: Sequence[float]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Evaluate the network at one point x of shape (n0,), or at each row of
    a batch x of shape (m, n0).

    Returns (output, preactivations) where preactivations[k] is the hidden
    layer k+1 value before its ReLU; a batch gives (m, n_out) outputs and
    (m, n_k) pre-activations. A batch row can differ from the single-point
    result in the last ulps, because the matrix product rounds differently.
    """
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim > 2 or v.shape[-1:] != (net.input_dim,):
        raise ValueError(
            f"input has shape {v.shape}, expected ({net.input_dim},) or (m, {net.input_dim})"
        )

    def affine(layer, v):
        return (layer.weights @ v if v.ndim == 1 else v @ layer.weights.T) + layer.bias

    preacts = []
    for layer in net.layers[:-1]:
        theta = affine(layer, v)
        preacts.append(theta)
        v = np.maximum(theta, 0.0)
    return affine(net.layers[-1], v), preacts


def pattern_of(net: MlpNetwork, x: Sequence[float]) -> ActivationPattern:
    """Activation pattern at one point x of shape (n0,): bit 1 iff the
    pre-activation is strictly positive.

    Exact zeros map to bit 0; either bit is a valid subgradient selection
    there, and a fixed rule keeps results deterministic.
    """
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (net.input_dim,):
        raise ValueError(f"input has shape {v.shape}, expected ({net.input_dim},)")
    _, preacts = forward(net, v)
    return ActivationPattern(tuple(tuple(int(t > 0.0) for t in theta) for theta in preacts))


def _gated_form(layer: Layer, gate, coeff: np.ndarray, offset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coeff, offset) of the pre-activation form of `layer`, given those of
    the layer below and its gates: W diag(gate) coeff and W diag(gate)
    offset + b. Gates of shape (k, n) with a (k, n, n_0) coeff and a (k, n)
    offset give a stack."""
    gate = np.asarray(gate, dtype=float)
    c = layer.weights @ (gate[..., None] * coeff)
    o = (layer.weights @ (gate * offset)[..., None])[..., 0] + layer.bias
    return c, o


def _affine_layers(net: MlpNetwork, bits: Sequence[Sequence[float]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (coeff matrix, offset vector) of the pre-activation forms of
    layers 1 through len(bits) + 1 under the given gating bits.

    Given every hidden layer's gates, the last form is the output layer's,
    and its coeff is the pattern Jacobian. Per-layer gates of shape (k, n_l)
    give a stack: coeff (k, n_l, n_0) and offset (k, n_l).
    """
    out = [(net.layers[0].weights, net.layers[0].bias)]
    for k, gate in enumerate(bits, 1):
        out.append(_gated_form(net.layers[k], gate, *out[-1]))
    return out


def affine_preactivations(net: MlpNetwork, sigma: ActivationPattern) -> list[AffineForm]:
    """Affine forms equal to every hidden pre-activation on the region of sigma.

    Returned flat, layer-major and neuron-minor; form (k, i) evaluates to
    theta_k^i(x) wherever the inputs realize sigma.
    """
    _check_pattern(net, sigma.bits, "pattern")
    forms = []
    for c, o in _affine_layers(net, sigma.bits[:-1]):
        for i in range(c.shape[0]):
            forms.append(AffineForm(c[i], o[i]))
    return forms


def _jacobian_from_bits(net: MlpNetwork, bits: Sequence[Sequence[float]]) -> np.ndarray:
    """Gated Jacobian, the output layer's coeff from _affine_layers; per-layer
    gates of shape (k, n_l) give a (k, n_L, n_0) stack."""
    return _affine_layers(net, bits)[-1][0]


def jacobian(net: MlpNetwork, sigma: ActivationPattern) -> np.ndarray:
    """Jacobian of the affine map selected by sigma (shape n_L x n_0)."""
    _check_pattern(net, sigma.bits, "pattern")
    return _jacobian_from_bits(net, sigma.bits)


def relaxed_jacobian(net: MlpNetwork, gates: RelaxedPattern) -> np.ndarray:
    """Jacobian with continuous gates in [0, 1] instead of binary bits."""
    if not isinstance(gates, RelaxedPattern):
        gates = RelaxedPattern(tuple(tuple(layer) for layer in gates))
    _check_pattern(net, gates.values, "gate")
    return _jacobian_from_bits(net, gates.values)
