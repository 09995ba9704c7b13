import itertools

import numpy as np
import pytest

from lipbound import ActivationPattern, Box, MlpNetwork
from lipbound.bounds import _node_bound, _sign_split
from lipbound.network import _affine_layers, forward, pattern_of
from lipbound.norms import pattern_norm
from lipbound.regions import max_slack
from lipbound.sampling import BOUNDARY_MARGIN, SampleEstimate, sample_domain


@pytest.fixture
def ex1():
    """f(x) = max(x-1,0) - max(1-x,0) = x - 1."""
    return MlpNetwork.from_arrays([([[1.0], [-1.0]], [-1.0, 1.0]), ([[1.0, -1.0]], [0.0])])


@pytest.fixture
def ex2():
    """f(x) = max(x+1,0) - max(x-1,0)."""
    return MlpNetwork.from_arrays([([[1.0], [1.0]], [-1.0, 1.0]), ([[-1.0, 1.0]], [0.0])])


def random_net(seed, n_hidden_layers=None, max_width=4, bias_scale=0.5):
    """Seeded random network with widths in 1..max_width."""
    rng = np.random.default_rng(seed)
    if n_hidden_layers is None:
        n_hidden_layers = int(rng.integers(2, 4))
    widths = (
        [int(rng.integers(1, max_width + 1))]
        + [int(rng.integers(1, max_width + 1)) for _ in range(n_hidden_layers)]
        + [int(rng.integers(1, max_width + 1))]
    )
    layers = [
        (rng.normal(size=(widths[k + 1], widths[k])), bias_scale * rng.normal(size=widths[k + 1]))
        for k in range(len(widths) - 1)
    ]
    return MlpNetwork.from_arrays(layers)


def unit_box(net):
    n0 = net.input_dim
    return Box(-np.ones(n0), np.ones(n0))


def prefix_max_slack(net, prefix, domain):
    """The slack LP over the margins of the first len(prefix) hidden
    neurons alone, under the prefix's bits: max_slack of the net cut after
    them, that is the layers below whole, the prefix's layer cut to its
    first rows and a one-output layer on top."""
    widths = net.hidden_widths
    h, start = 0, 0  # the hidden layer the prefix ends in, and its first flat index
    while start + widths[h] < len(prefix):
        start += widths[h]
        h += 1
    j = len(prefix) - start
    last = net.layers[h]
    cut = MlpNetwork.from_arrays(
        [(layer.weights, layer.bias) for layer in net.layers[:h]]
        + [(last.weights[:j], last.bias[:j]), (np.ones((1, j)), [0.0])]
    )
    return max_slack(cut, ActivationPattern.from_flat(cut.hidden_widths, tuple(prefix)), domain)


def assert_node_bound_sound(net, p):
    """The search's bound at every prefix that ends inside the hidden layers
    is at least the largest pattern norm of its completions, within a
    relative 1e-12."""
    widths = net.hidden_widths
    nbits = sum(widths)
    starts = [0, *itertools.accumulate(widths)]
    split = _sign_split(net)
    norms = {
        flat: pattern_norm(net, ActivationPattern.from_flat(widths, flat), p)
        for flat in itertools.product((0, 1), repeat=nbits)
    }
    for k in range(nbits):
        h = max(h for h, start in enumerate(starts[:-1]) if start <= k)
        for prefix in itertools.product((0, 1), repeat=k):
            below = ActivationPattern.from_flat(widths, prefix + (0,) * (nbits - k)).bits
            c = _affine_layers(net, below)[h][0]
            got = _node_bound(c, prefix[starts[h] :], split[h + 1 :], p)
            want = max(norms[prefix + rest] for rest in itertools.product((0, 1), repeat=nbits - k))
            assert got >= want * (1.0 - 1e-12), (prefix, got, want)


# --- per-sample references for the batched sampling pass ------------------


def reference_sampled_lower_bound(net, domain, p, n_samples, seed):
    """The per-sample loop that sampled_lower_bound's batched pass replaced:
    the first sample to reach the largest pattern norm wins."""
    xs = sample_domain(domain, net.input_dim, n_samples, np.random.default_rng(seed))
    best, best_x, best_pattern, n_valid = 0.0, None, None, 0
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


def reference_vector_norm(v, p):
    if p == np.inf:
        return float(np.abs(v).max())
    return float(np.abs(v).sum()) if p == 1 else float(np.linalg.norm(v))


def reference_pairwise_quotient(net, domain, p, n_pairs, seed):
    """The per-pair loop that pairwise_quotient_estimate's batched pass replaced."""
    rng = np.random.default_rng(seed)
    xs = sample_domain(domain, net.input_dim, n_pairs, rng)
    ys = sample_domain(domain, net.input_dim, n_pairs, rng)
    best = 0.0
    for x, y in zip(xs, ys):
        gap = reference_vector_norm(y - x, p)
        if gap == 0.0:
            continue
        fx, _ = forward(net, x)
        fy, _ = forward(net, y)
        best = max(best, reference_vector_norm(fy - fx, p) / gap)
    return best


def assert_same_estimate(got, want):
    """Bit-for-bit equality of two SampleEstimates."""
    assert got.value == want.value
    assert got.n_valid == want.n_valid
    assert got.best_pattern == want.best_pattern
    if want.best_x is None:
        assert got.best_x is None
    else:
        assert np.array_equal(got.best_x, want.best_x)
