"""Quantizer tests: forward bit-exactness against a scalar-loop reference,
straight-through gradients against the indicator and finite differences,
calibration, and composition with conv/linear."""

import numpy as np
import pytest

import oracles
from bwrf import tensor as T
from bwrf.network import Conv2d, Linear
from bwrf.quantizer import Quantizer, init_scale, quantize_forward
from bwrf.tensor import Tensor
from rules import rule, rule_arrays


def make_q(bits=3, signed=True, grad_scale=False, scale=1.0):
    q = Quantizer(bits, signed=signed, grad_scale_enabled=grad_scale)
    q.set_scale(scale)
    return q


def ste_grads(upstream, v, q):
    """(input gradient, scale gradient) of sum(upstream * quantize_forward(v))."""
    vt = Tensor(v, requires_grad=True)
    q.scale.grad = None
    T.mul(quantize_forward(vt, q), Tensor(upstream)).sum().backward()
    return vt.grad, q.scale.grad.item()


# -- construction ---------------------------------------------------------------

def test_threshold_formulas():
    q = Quantizer(3, signed=True)
    assert (q.qmin, q.qmax) == (-4, 3)
    q = Quantizer(4, signed=True)
    assert (q.qmin, q.qmax) == (-8, 7)
    q = Quantizer(4, signed=False)
    assert (q.qmin, q.qmax) == (0, 15)
    q = Quantizer(8, signed=False)
    assert (q.qmin, q.qmax) == (0, 255)


def test_bits_lower_bound():
    with pytest.raises(ValueError, match="bits"):
        Quantizer(1, signed=True)


# -- forward ---------------------------------------------------------------------

def test_forward_hand_example():
    q = make_q(bits=3, signed=True, scale=0.5)
    out = quantize_forward(Tensor(np.array([-0.6, 0.2, 1.4], np.float32)), q)
    np.testing.assert_array_equal(out.data, np.array([-0.5, 0.0, 1.5], np.float32))


def test_forward_zero_maps_to_zero():
    for scale in (0.1, 1.0, 7.3):
        q = make_q(bits=4, signed=True, scale=scale)
        assert quantize_forward(Tensor(np.zeros(3, np.float32)), q).data.sum() == 0.0


def test_forward_saturates_at_qmax():
    q = make_q(bits=3, signed=True, scale=1.0)
    out = quantize_forward(Tensor(np.array([100.0], np.float32)), q)
    assert out.data[0] == 3.0


def test_tie_rounds_away_from_zero():
    q = make_q(bits=4, signed=True, scale=1.0)
    out = quantize_forward(Tensor(np.array([2.5, -2.5], np.float32)), q)
    np.testing.assert_array_equal(out.data, np.array([3.0, -3.0], np.float32))


def test_forward_bit_exact_vs_scalar_loop():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        bits = int(rng.integers(2, 9))
        signed = bool(rng.integers(0, 2))
        s = float(10.0 ** rng.uniform(-3, 1))
        v = float(rng.standard_normal() * 10.0 ** rng.uniform(-2, 2))
        q = make_q(bits=bits, signed=signed, scale=s)
        got = quantize_forward(Tensor(np.array([v], np.float32)), q).data[0]
        want = oracles.quantize_scalar_ref(v, s, q.qmin, q.qmax)
        assert got == want, (v, s, bits, signed, got, want)


def test_forward_rejects_nonpositive_scale():
    q = make_q()
    q.scale.data = np.zeros(1, np.float32)
    with pytest.raises(ValueError, match="positive"):
        quantize_forward(Tensor(np.ones(2, np.float32)), q)


# -- properties -------------------------------------------------------------------

def test_idempotence():
    rng = np.random.default_rng(3)
    q = make_q(bits=4, signed=True, scale=0.37)
    v = Tensor((rng.standard_normal(256) * 3).astype(np.float32))
    once = quantize_forward(v, q).data
    twice = quantize_forward(Tensor(once), q).data
    np.testing.assert_array_equal(once, twice)


def test_output_range_and_level_count():
    rng = np.random.default_rng(4)
    q = make_q(bits=3, signed=True, scale=0.25)
    out = quantize_forward(Tensor((rng.standard_normal(4096) * 5).astype(np.float32)), q).data
    assert out.min() >= q.qmin * 0.25 and out.max() <= q.qmax * 0.25
    assert len(np.unique(out)) <= q.qmax - q.qmin + 1


def test_inrange_rounding_error_bound():
    rng = np.random.default_rng(5)
    s = 0.5
    q = make_q(bits=4, signed=True, scale=s)
    v = rng.uniform(q.qmin * s, q.qmax * s, size=512).astype(np.float32)
    out = quantize_forward(Tensor(v), q).data
    assert np.abs(out - v).max() <= s / 2 * (1 + 1e-5)


# -- input gradient ----------------------------------------------------------------

def test_input_grad_passes_in_range():
    q = make_q(bits=3, signed=True, scale=1.0)
    g = np.array([0.7], np.float32)
    out, _ = ste_grads(g, np.array([1.2], np.float32), q)
    np.testing.assert_array_equal(out, g)


def test_input_grad_zero_outside_range():
    q = make_q(bits=3, signed=True, scale=1.0)
    out, _ = ste_grads(np.ones(1, np.float32), np.array([5.0], np.float32), q)
    assert out[0] == 0.0


def test_input_grad_mask_matches_scalar_indicator():
    rng = np.random.default_rng(6)
    q = make_q(bits=3, signed=True, scale=0.73)
    v = (rng.standard_normal(300) * 4).astype(np.float32)
    g = rng.standard_normal(300).astype(np.float32)
    got, _ = ste_grads(g, v, q)
    want = np.array([g[i] * oracles.ste_mask_scalar_ref(v[i], 0.73, q.qmin, q.qmax)
                     for i in range(300)], np.float32)
    np.testing.assert_array_equal(got, want)


# -- scale gradient -----------------------------------------------------------------

def test_scale_grad_saturated_values():
    q = make_q(bits=3, signed=True, scale=1.0, grad_scale=False)
    ones = np.ones(1, np.float32)
    assert ste_grads(ones, np.array([10.0], np.float32), q)[1] == 3.0
    assert ste_grads(ones, np.array([-10.0], np.float32), q)[1] == -4.0


def test_scale_grad_in_range_value_and_fd():
    q = make_q(bits=3, signed=True, scale=1.0, grad_scale=False)
    _, got = ste_grads(np.ones(1, np.float32), np.array([1.2], np.float32), q)
    assert abs(float(got) - (-0.2)) < 1e-6
    fd = oracles.scale_grad_fd_ref(np.float32(1.2), 1.0, q.qmin, q.qmax, h=1e-5)
    assert abs(float(got) - fd) < 1e-3


def test_scale_grad_matches_fd_sweep():
    """Random points kept >= 0.01 away from ties and clip thresholds."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        bits = int(rng.integers(2, 9))
        signed = bool(rng.integers(0, 2))
        q = make_q(bits=bits, signed=signed, scale=float(10.0 ** rng.uniform(-2, 1)),
                   grad_scale=False)
        u = float(rng.uniform(q.qmin - 3, q.qmax + 3))
        frac = abs(u - np.trunc(u))
        if (abs(u - q.qmin) < 0.02 or abs(u - q.qmax) < 0.02
                or abs(frac - 0.5) < 0.02):
            continue
        s = q.scale.data.item()
        v = np.float32(u * s)
        _, got = ste_grads(np.ones(1, np.float32), np.array([v], np.float32), q)
        h = 1e-3 * s / max(1.0, abs(u))
        fd = oracles.scale_grad_fd_ref(v, s, q.qmin, q.qmax, h=h)
        denom = max(abs(fd), 1e-3)
        assert abs(got - fd) / denom < 1e-3, (u, s, bits, signed, got, fd)
        checked += 1


def test_scale_grad_upstream_weighting_and_grad_scale_factor():
    rng = np.random.default_rng(8)
    v = (rng.standard_normal(64) * 2).astype(np.float32)
    g = rng.standard_normal(64).astype(np.float32)
    q = make_q(bits=4, signed=True, scale=0.5, grad_scale=False)
    _, base = ste_grads(g, v, q)
    want = sum(g[i] * oracles.scale_grad_scalar_ref(v[i], 0.5, q.qmin, q.qmax)
               for i in range(64))
    assert abs(base - want) < 1e-4
    qs = make_q(bits=4, signed=True, scale=0.5, grad_scale=True)
    _, scaled = ste_grads(g, v, qs)
    assert abs(scaled - base / np.sqrt(64 * 7)) < 1e-6


# -- calibration --------------------------------------------------------------------

def test_init_scale_floor_on_zeros():
    q = Quantizer(3, signed=True)
    assert init_scale(np.zeros(16, np.float32), q) == 1e-8


def test_init_scale_formula():
    q = Quantizer(3, signed=True)
    s = init_scale(np.array([1.0, -1.0, 1.0, -1.0], np.float32), q)
    assert abs(s - 2 / np.sqrt(3)) < 1e-6


def test_init_scale_homogeneity():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(128).astype(np.float32)
    q = Quantizer(4, signed=True)
    for c in (0.5, 3.0, 17.0):
        assert np.isclose(init_scale(c * v, q), c * init_scale(v, q), rtol=1e-5)


def test_init_scale_rejects_empty():
    with pytest.raises(ValueError, match="non-empty"):
        init_scale(np.zeros(0, np.float32), Quantizer(3, signed=True))


def test_lazy_calibration_on_first_forward():
    q = Quantizer(4, signed=False)
    assert not q.initialized
    v = np.abs(np.random.default_rng(10).standard_normal(100)).astype(np.float32)
    quantize_forward(Tensor(v), q)
    assert q.initialized
    assert abs(q.scale.data.item() - init_scale(v, q)) < 1e-7


# -- graph integration ----------------------------------------------------------------

def test_graph_grads_route_to_input_and_scale():
    rng = np.random.default_rng(11)
    q = make_q(bits=3, signed=True, scale=0.8, grad_scale=True)
    v = Tensor((rng.standard_normal(32) * 2).astype(np.float32), requires_grad=True)
    g = rng.standard_normal(32).astype(np.float32)
    loss = T.mul(quantize_forward(v, q), Tensor(g)).sum()
    loss.backward()
    s = q.scale.data.item()
    mask = np.array([oracles.ste_mask_scalar_ref(x, s, q.qmin, q.qmax) for x in v.data],
                    np.float32)
    np.testing.assert_allclose(v.grad, g * mask, atol=1e-7)
    want = sum(g[i] * oracles.scale_grad_scalar_ref(v.data[i], s, q.qmin, q.qmax)
               for i in range(32)) / np.sqrt(32 * q.qmax)
    np.testing.assert_allclose(q.scale.grad, [want], atol=1e-7)


def test_disabled_quantizer_is_same_node():
    q = make_q()
    q.enabled = False
    v = Tensor(np.ones(4, np.float32), requires_grad=True)
    assert quantize_forward(v, q) is v


# -- composition with linear operators --------------------------------------------------

def test_quantized_conv_matches_explicit_composition():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
    conv = Conv2d(3, 4, 3, stride=1, padding=1, rng=rng)
    conv.weight = wt = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
    conv.wq = wq = make_q(bits=4, signed=True, scale=0.11)
    conv.aq = aq = make_q(bits=4, signed=False, scale=0.21)
    got = conv(x)
    want = T.conv2d(quantize_forward(x, aq), quantize_forward(wt, wq), stride=1, padding=1)
    np.testing.assert_array_equal(got.data, want.data)


def test_quantized_conv_identity_kernel_returns_quantized_input():
    x = Tensor(np.random.default_rng(13).standard_normal((1, 1, 4, 4)).astype(np.float32))
    conv = Conv2d(1, 1, 1, rng=np.random.default_rng(0))
    conv.weight = Tensor(np.ones((1, 1, 1, 1), np.float32))
    conv.wq = make_q(bits=3, signed=True, scale=1.0)
    conv.aq = aq = make_q(bits=3, signed=True, scale=0.4)
    got = conv(x)
    np.testing.assert_array_equal(got.data, quantize_forward(x, aq).data)


def test_high_bit_quantizer_approaches_identity():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
    layer = Linear(5, 4, rng=rng)
    layer.weight = wt = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
    layer.bias = b = Tensor(rng.standard_normal(4).astype(np.float32))
    layer.wq = make_q(bits=16, signed=True, scale=1e-4)
    layer.aq = make_q(bits=16, signed=True, scale=1e-4)
    got = layer(x)
    want = T.linear(x, wt, b)
    np.testing.assert_allclose(got.data, want.data, atol=1e-3)


# -- saved state ---------------------------------------------------------------------


def retained_bytes(fn):
    """(result, bytes still allocated once fn has returned) under tracemalloc."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_taped_quantize_keeps_only_a_code_and_a_term_array():
    import weakref

    q = make_q(bits=4, signed=False, scale=0.1)
    v = Tensor(np.random.default_rng(0).uniform(-1, 3, (8, 4, 32, 32)).astype(np.float32),
               requires_grad=True)
    out, kept = retained_bytes(lambda: quantize_forward(v, q))
    saved = rule_arrays(out)
    assert sorted((a.dtype.name, a.shape) for a in saved) == [
        ("float32", v.shape), ("uint8", v.shape)]
    code, s32 = out.node.compact
    assert any(code is a for a in saved), "the compact form is not the rule's own code"
    assert np.multiply(code, s32, dtype=np.float32).tobytes() == out.data.tobytes()
    # the node, its closure and the cells take a few KB; any activation-sized
    # float array beyond the term would take 128 KB
    assert kept - out.data.nbytes - v.size * 5 < 16384, "more than the code and the term kept"
    refs = [weakref.ref(a) for a in saved]
    del out, saved, code
    assert all(r() is None for r in refs), "the saved arrays outlive the node"


def lattice_grid(q, s):
    """v/s on every integer and half-integer from qmin - 2 to qmax + 2, each
    with its float32 neighbours one ulp either side, and +-0, +-inf and NaN."""
    steps = np.arange(2 * (q.qmin - 2), 2 * (q.qmax + 2) + 1, dtype=np.float32) / 2
    v = (steps * np.float32(s)).astype(np.float32)
    v = np.concatenate([v, np.nextafter(v, np.float32(np.inf)),
                        np.nextafter(v, np.float32(-np.inf))])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32)
    return np.concatenate([v, special])


@pytest.mark.parametrize("bits", range(2, 9))
@pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
def test_the_rebuilt_mask_gives_the_bool_mask_kernels_bytes_at_every_width(bits, signed):
    """The backward rebuilds the in-range mask from the code and the term:
    out, the input gradient and the scale gradient keep the bytes of the
    kernel that kept a bool mask, on the lattice ties and their ulp
    neighbours, at powers-of-two and other scales, for zeros of both signs,
    infinities and NaN, and no warning escapes the NaN's cast."""
    import warnings

    rng = np.random.default_rng(bits)
    for s in (0.25, 1.0, 0.1, 0.0371):
        q = make_q(bits=bits, signed=signed, grad_scale=True, scale=s)
        spread = rng.uniform(q.qmin - 2, q.qmax + 2, 4000).astype(np.float32) * np.float32(s)
        v = np.concatenate([lattice_grid(q, s), spread]).astype(np.float32)
        g = rng.standard_normal(v.shape).astype(np.float32)
        want = oracles.quantize_bool_mask(v, s, q.qmin, q.qmax, True, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = quantize_forward(Tensor(v, requires_grad=True), q)
            got = (out.data, *rule(out)(g))
        for name, a, b in zip(("out", "gv", "gs"), got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"{name} at scale {s}"


def test_a_quantized_conv_keeps_the_code_not_the_float_input():
    """A taped quantize -> conv: the conv's weight gradient reads the code,
    so the float quantized input dies with its Tensor, and the weight
    gradient has the bytes of a conv fed that float array directly."""
    import gc
    import weakref

    rng = np.random.default_rng(9)
    q = make_q(bits=4, signed=False, scale=0.1)
    v = Tensor(rng.uniform(-0.2, 1.6, (5, 3, 8, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal((5, 4, 8, 8)).astype(np.float32)
    xq = quantize_forward(v, q)
    _, want = rule(T.conv2d(Tensor(xq.data.copy()), w, padding=1))(g)
    out = T.conv2d(xq, w, padding=1)
    ref = weakref.ref(xq.data)
    del xq
    gc.collect()
    assert ref() is None, "the conv keeps the float quantized input"
    _, gw = rule(out)(g)
    assert gw.tobytes() == want.tobytes()


def test_untaped_quantize_keeps_nothing():
    q = make_q(bits=4, signed=False, scale=0.1)
    v = Tensor(np.random.default_rng(0).uniform(-1, 3, (8, 4, 32, 32)).astype(np.float32),
               requires_grad=True)
    with T.no_grad():
        out, kept = retained_bytes(lambda: quantize_forward(v, q))
    assert not out.requires_grad
    assert kept - out.data.nbytes < 16384, f"{kept - out.data.nbytes} bytes kept beyond the output"
