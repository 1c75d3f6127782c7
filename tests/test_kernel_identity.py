"""The batch-tiled conv2d, the quantizer that keeps only a mask and a term,
the batchnorm that centres once and the single-write gradient accumulation
must reproduce the kernels they replaced byte for byte: outputs, every
gradient and the signs of zeros. The replaced kernels are kept verbatim in
tests/oracles.py."""

import numpy as np
import pytest

import oracles
from bwrf import tensor as T
from bwrf.quantizer import Quantizer, quantize_forward
from bwrf.tensor import Tensor


def assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what} differs in {np.sum(got != want)} elements"


def first_arrival(param, g):
    """What the old accumulation stored for a first gradient g into param."""
    t = Tensor(param.data, requires_grad=True)
    oracles.accumulate_zero_fill(t, g)
    return t.grad


# -- conv2d --------------------------------------------------------------------------

# (in channels, out channels, kernel, stride, padding): the network's geometries
CONV_GEOMETRIES = {
    "k3s1p1": (16, 16, 3, 1, 1),
    "k3s2p1": (16, 32, 3, 2, 1),
    "k1s2p0": (16, 32, 1, 2, 0),
    "stem": (3, 16, 3, 1, 1),
}
# around and across the batch tile boundaries
TILE_BATCHES = (1, T.CONV_TILE - 1, T.CONV_TILE + 1, 2 * T.CONV_TILE + 3)


def check_conv(n, c, o, k, s, p, extent, seed, compare=assert_same_bytes):
    """k and extent are an int or a (rows, columns) pair."""
    (kh, kw), (h, wd) = np.broadcast_to(k, 2), np.broadcast_to(extent, 2)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, wd)).astype(np.float32)
    w = (rng.standard_normal((o, c, kh, kw)) * 0.2).astype(np.float32)
    oh, ow = (h + 2 * p - kh) // s + 1, (wd + 2 * p - kw) // s + 1
    g = rng.standard_normal((n, o, oh, ow)).astype(np.float32)
    ref_out, ref_gx, ref_gw = oracles.conv2d_one_pass(x, w, s, p, g)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = T.conv2d(xt, wt, stride=s, padding=p)
    out.backward(g)
    compare(out.data, ref_out, "out")
    compare(xt.grad, first_arrival(xt, ref_gx), "gx")
    compare(wt.grad, first_arrival(wt, ref_gw), "gw")

    # frozen weight and untaped: the same tile-sized forward, same output
    frozen = T.conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=s, padding=p)
    compare(frozen.data, ref_out, "frozen-weight out")
    with T.no_grad():
        compare(T.conv2d(xt, wt, stride=s, padding=p).data, ref_out, "no_grad out")


@pytest.mark.parametrize("n", TILE_BATCHES)
@pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
def test_conv2d_matches_the_one_pass_kernel(geometry, n):
    c, o, k, s, p = CONV_GEOMETRIES[geometry]
    check_conv(n, c, o, k, s, p, extent=8, seed=n)
    check_conv(n, c, o, k, s, p, extent=8, seed=n + 100)


# (in channels, out channels, kernel, stride, padding, extent): every resnet
# conv that takes an input gradient, at its stage's extent
STAGE_CONVS = {
    "stem-32": (3, 16, 3, 1, 1, 32),
    "16-32": (16, 16, 3, 1, 1, 32),
    "32-16": (32, 32, 3, 1, 1, 16),
    "64-8": (64, 64, 3, 1, 1, 8),
    "k3s2-16to32-32": (16, 32, 3, 2, 1, 32),
    "k3s2-32to64-16": (32, 64, 3, 2, 1, 16),
    "k1s2-16to32-32": (16, 32, 1, 2, 0, 32),
    "k1s2-32to64-16": (32, 64, 1, 2, 0, 16),
}


@pytest.mark.parametrize("geometry", STAGE_CONVS)
def test_conv2d_matches_the_one_pass_kernel_at_stage_shapes(geometry):
    c, o, k, s, p, extent = STAGE_CONVS[geometry]
    check_conv(2 * T.CONV_TILE + 3, c, o, k, s, p, extent, seed=c)


# GEMMs with few rows: numpy's matmul was seen to round a strided weight view
# differently from a contiguous one there, so every tap weight must stay
# C-contiguous; numpy also sends a matmul with one row to BLAS gemv, which
# rounds differently from gemm at K = 64. The tiled forward's last tile of
# 2 * CONV_TILE + 1 images at 1x1 is one row, and so is the one-pass input
# gradient's GEMM for one 32 -> 64 stride-2 image at 2x2: those two shapes
# are compared for closeness, every other one byte for byte.
SMALL_CONVS = {"k3s1c32": (32, 32, 3, 1, 1), "k3s1c64": (64, 64, 3, 1, 1),
               "k3s2c32to64": (32, 64, 3, 2, 1)}
GEMV_CASES = {("k3s1c64", 1, 2 * T.CONV_TILE + 1), ("k3s2c32to64", 2, 1)}
SMALL_CASES = sorted({(geometry, extent, n) for geometry in SMALL_CONVS
                      for extent in (1, 2) for n in (1, 2)} | GEMV_CASES)


def assert_close(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6, err_msg=what)


@pytest.mark.parametrize("geometry,extent,n", SMALL_CASES)
def test_conv2d_matches_the_one_pass_kernel_at_small_extents(geometry, extent, n):
    c, o, k, s, p = SMALL_CONVS[geometry]
    compare = assert_close if (geometry, extent, n) in GEMV_CASES else assert_same_bytes
    check_conv(n, c, o, k, s, p, extent, seed=extent + 10 * n, compare=compare)


# (in channels, out channels, kernel, stride, padding, extent): geometries
# conv2d accepts that the network does not use
ODD_CONVS = {
    "padding_past_kernel": (5, 6, 1, 1, 1, 5),
    "stride2_unread_rows": (5, 6, 3, 2, 0, 6),
    "stride3_unread_rows": (5, 6, 3, 3, 2, (6, 5)),
    "kernel1x3": (5, 6, (1, 3), 1, 1, (5, 6)),
    "kernel3x1_stride2": (5, 6, (3, 1), 2, 0, (7, 6)),
}


@pytest.mark.parametrize("n", (1, T.CONV_TILE + 1))
@pytest.mark.parametrize("geometry", ODD_CONVS)
def test_conv2d_matches_the_one_pass_kernel_outside_the_network(geometry, n):
    c, o, k, s, p, extent = ODD_CONVS[geometry]
    check_conv(n, c, o, k, s, p, extent, seed=n)


# -- quantizer -----------------------------------------------------------------------


def quantizer_inputs(q, s, rng):
    """v/s exactly on +-0.5 and +-1.5 ties, on and beyond qmin and qmax, zeros
    of both signs, and random values spread over and past the range."""
    special = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.0, -0.0, q.qmin, q.qmax, q.qmin - 0.5,
               q.qmax + 0.5, q.qmin - 3, q.qmax + 3, q.qmin + 0.5, q.qmax - 0.5]
    spread = rng.uniform(q.qmin - 2, q.qmax + 2, 240 - len(special))
    return (np.array(special + list(spread)) * s).astype(np.float32).reshape(4, 3, 4, 5)


@pytest.mark.parametrize("grad_scale", [True, False], ids=["grad_scale", "no_grad_scale"])
@pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
def test_quantize_matches_the_kernel_that_kept_vs_and_rc(signed, grad_scale):
    rng = np.random.default_rng(3)
    q = Quantizer(4, signed, grad_scale_enabled=grad_scale)
    s = 0.25  # a power of two: v/s is exact, so the ties are exact
    q.set_scale(s)
    v = quantizer_inputs(q, s, rng)
    g = rng.standard_normal(v.shape).astype(np.float32)
    ref_out, ref_gv, ref_gs = oracles.quantize_keep_vs(v, s, q.qmin, q.qmax, grad_scale, g)
    assert np.any(np.signbit(ref_gv) & (ref_gv == 0)), "inputs must give -0 input gradients"

    vt = Tensor(v, requires_grad=True)
    out = quantize_forward(vt, q)
    out.backward(g)
    assert_same_bytes(out.data, ref_out, "out")
    assert_same_bytes(vt.grad, first_arrival(vt, ref_gv), "gv")
    assert_same_bytes(q.scale.grad, first_arrival(q.scale, ref_gs), "gs")

    # an input that takes no gradient (the images) still trains the scale
    q.scale.grad = None
    out = quantize_forward(Tensor(v), q)
    out.backward(g)
    assert_same_bytes(out.data, ref_out, "out without input gradient")
    assert_same_bytes(q.scale.grad, first_arrival(q.scale, ref_gs), "gs")
    with T.no_grad():
        assert_same_bytes(quantize_forward(vt, q).data, ref_out, "no_grad out")


# -- batchnorm -----------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(4, 3, 5, 6), (4, 64, 5, 6), (2 * T.CONV_TILE + 3, 16, 32, 32)],
                         ids=["small", "wide", "stage"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batchnorm_matches_the_np_var_kernel(training, shape):
    rng = np.random.default_rng(5)
    c = shape[1]
    x = (rng.standard_normal(shape) * 2 + 0.7).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
    beta = rng.standard_normal(c).astype(np.float32)
    rm, rv = rng.standard_normal(c).astype(np.float32), rng.uniform(0.5, 2, c).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    ref_rm, ref_rv = rm.copy(), rv.copy()
    ref_out, ref_gx, ref_gg, ref_gb = oracles.batchnorm_np_var(
        x, gamma, beta, ref_rm, ref_rv, training, g)

    xt = Tensor(x, requires_grad=True)
    gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
    out = T.batchnorm2d(xt, gt, bt, rm, rv, training)
    out.backward(g)
    assert_same_bytes(out.data, ref_out, "out")
    assert_same_bytes(xt.grad, first_arrival(xt, ref_gx), "gx")
    assert_same_bytes(gt.grad, first_arrival(gt, ref_gg), "ggamma")
    assert_same_bytes(bt.grad, first_arrival(bt, ref_gb), "gbeta")
    assert_same_bytes(rm, ref_rm, "running mean")
    assert_same_bytes(rv, ref_rv, "running var")


# -- gradient accumulation -----------------------------------------------------------


# (parameter, first and second arrival): a vector, a 0-d loss node given
# numpy scalars, a float64 arrival cast to float32, a broadcast row
ACCUMULATE_CASES = {
    "vector": (np.ones(4, np.float32), np.array([-0.0, 0.0, -1.5, 2.0], np.float32),
               np.array([0.0, -0.0, 1.5, 0.25], np.float32)),
    "0-d": (np.float32(1.0), np.float32(-0.0), np.float32(-0.0)),
    "float64": (np.ones(3, np.float32), np.array([-0.0, 1e-40, 1 / 3]),
                np.array([0.1, -0.0, 2 / 3])),
    "broadcast": (np.ones((2, 3), np.float32), np.array([[-0.0, 1.0, -2.5]], np.float32),
                  np.array([[0.5], [-0.0]], np.float32)),
}


@pytest.mark.parametrize("case", sorted(ACCUMULATE_CASES))
def test_a_negative_zero_first_gradient_accumulates_as_positive_zero(case):
    data, g1, g2 = ACCUMULATE_CASES[case]
    t, want = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
    upstream = np.array(g1, copy=True)
    T._accumulate(t, g1)
    oracles.accumulate_zero_fill(want, g1)
    assert type(t.grad) is np.ndarray
    assert_same_bytes(t.grad, want.grad, "first arrival")
    assert not np.signbit(t.grad[t.grad == 0]).any()
    assert not np.shares_memory(t.grad, g1)
    T._accumulate(t, g2)
    oracles.accumulate_zero_fill(want, g2)
    assert_same_bytes(t.grad, want.grad, "second arrival")
    assert_same_bytes(np.asarray(g1), upstream, "upstream array")
