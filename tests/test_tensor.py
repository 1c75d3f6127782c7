"""Autodiff engine tests: forward values vs brute-force oracles, gradients
vs central finite differences, graph bookkeeping (accumulation, detach),
and error handling."""

import contextlib
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from bwrf import tensor as T
from bwrf.config import RunConfig
from bwrf.graft import bwrf_forward, total_loss
from bwrf.network import BlockSpec, build_model, init_lp_from_fp
from bwrf.tensor import Tensor


# -- conv2d forward -----------------------------------------------------------

def test_conv_identity_kernel():
    x = Tensor(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 1, 1), np.float32))
    out = T.conv2d(x, w)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_full_window_sum():
    x = Tensor(np.array([[1, 2], [3, 4]], np.float32).reshape(1, 1, 2, 2))
    w = Tensor(np.ones((1, 1, 2, 2), np.float32))
    out = T.conv2d(x, w)
    assert out.data.shape == (1, 1, 1, 1)
    assert out.item() == 10.0


def test_conv_ramp_strided_vs_bruteforce():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    w = np.array([[1, 0], [0, -1]], np.float32).reshape(1, 1, 2, 2)
    out = T.conv2d(Tensor(x), Tensor(w), stride=2)
    ref = oracles.conv2d_bruteforce(x, w, stride=2, padding=0)
    np.testing.assert_array_equal(out.data, ref.astype(np.float32))
    np.testing.assert_array_equal(out.data.reshape(2, 2), np.full((2, 2), -5.0, np.float32))


@pytest.mark.parametrize("stride,padding,k,extent", [
    pytest.param(1, 0, 3, (6, 5), id="1-0"),
    pytest.param(1, 1, 3, (6, 5), id="1-1"),
    pytest.param(2, 0, 3, (6, 5), id="2-0"),
    pytest.param(2, 1, 3, (6, 5), id="2-1"),
    pytest.param(3, 2, 3, (6, 5), id="3-2"),
    # the network's three fixed geometries, at an even extent as in the network
    pytest.param(1, 1, 3, (8, 8), id="k3s1p1"),
    pytest.param(2, 1, 3, (8, 8), id="k3s2p1"),
    pytest.param(2, 0, 1, (8, 8), id="k1s2p0"),
])
def test_conv_random_vs_bruteforce(stride, padding, k, extent):
    rng = np.random.default_rng(7 * stride + padding)
    x = rng.standard_normal((2, 3, *extent)).astype(np.float32)
    w = rng.standard_normal((4, 3, k, k)).astype(np.float32)
    out = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
    ref = oracles.conv2d_bruteforce(x, w, stride, padding)
    assert out.data.shape == ref.shape
    np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-5)


class AllocationSpy:
    """numpy, recording every buffer its allocators hand out."""

    def __init__(self):
        self.made = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("empty", "zeros", "empty_like", "zeros_like"):
            return fn

        def allocate(*args, **kwargs):
            arr = fn(*args, **kwargs)
            self.made.append(weakref.ref(arr))
            return arr

        return allocate

    def alive(self):
        gc.collect()
        return [r() for r in self.made if r() is not None]


@pytest.mark.parametrize("case", ["frozen", "trainable", "untaped"])
def test_conv_forward_keeps_no_buffer_alive(monkeypatch, case):
    """The forward pads each batch tile into one buffer and keeps no copy of
    its input, whether the weight is frozen, trains, or runs under no_grad:
    no buffer it allocates outlives it except the output."""
    x = Tensor(np.ones((2 * T.CONV_TILE + 1, 3, 6, 6), np.float32), requires_grad=True)
    w = Tensor(np.ones((4, 3, 3, 3), np.float32), requires_grad=case != "frozen")
    spy = AllocationSpy()
    monkeypatch.setattr(T, "np", spy)
    with T.no_grad() if case == "untaped" else contextlib.nullcontext():
        out = T.conv2d(x, w, padding=1)
    monkeypatch.undo()
    assert out.requires_grad == (case != "untaped")
    assert len(spy.made) >= 4, "the spy saw no forward buffer"
    assert all(a is out.data for a in spy.alive()), "a conv forward buffer outlives the forward"


def test_conv_backward_keeps_no_buffer_alive(monkeypatch):
    """The input gradient runs through a padded buffer and the weight
    gradient through its own padded input and a tap copy; none of them may
    outlive the backward, only the two gradients it stores."""
    x = Tensor(np.ones((2 * T.CONV_TILE + 1, 3, 6, 6), np.float32), requires_grad=True)
    w = Tensor(np.ones((4, 3, 3, 3), np.float32), requires_grad=True)
    out = T.conv2d(x, w, padding=1)
    spy = AllocationSpy()
    monkeypatch.setattr(T, "np", spy)
    out.backward(np.ones(out.shape, np.float32))
    monkeypatch.undo()
    assert x.grad is not None and w.grad is not None
    assert len(spy.made) >= 4, "the spy saw no backward buffer"
    assert all(a is x.grad or a is w.grad for a in spy.alive()), \
        "a conv backward buffer outlives the backward"


def test_no_grad_restores_the_tape_after_an_exception():
    w = Tensor(np.ones(3, np.float32), requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with T.no_grad():
            assert not T.relu(w).requires_grad
            raise RuntimeError("raised inside no_grad")
    assert T.relu(w).requires_grad


def test_conv_shape_errors():
    x = Tensor(np.zeros((1, 3, 4, 4), np.float32))
    with pytest.raises(ValueError, match="channels"):
        T.conv2d(x, Tensor(np.zeros((2, 4, 3, 3), np.float32)))
    with pytest.raises(ValueError, match="stride"):
        T.conv2d(x, Tensor(np.zeros((2, 3, 3, 3), np.float32)), stride=0)
    with pytest.raises(ValueError, match="NCHW"):
        T.conv2d(Tensor(np.zeros((3, 4, 4), np.float32)),
                 Tensor(np.zeros((2, 3, 3, 3), np.float32)))


def test_conv_takes_no_bias_and_only_keyword_stride_and_padding():
    """A call written for a conv with a bias, or with a positional stride,
    fails instead of reading the third operand as the stride."""
    x = Tensor(np.zeros((1, 3, 4, 4), np.float32))
    w = Tensor(np.zeros((2, 3, 3, 3), np.float32))
    with pytest.raises(TypeError):
        T.conv2d(x, w, Tensor(np.zeros(2, np.float32)))
    with pytest.raises(TypeError):
        T.conv2d(x, w, 1, 1)


# -- linear forward -----------------------------------------------------------

def test_linear_identity_and_zero_weight():
    x = np.arange(6, dtype=np.float32).reshape(2, 3)
    eye = Tensor(np.eye(3, dtype=np.float32))
    zero_b = Tensor(np.zeros(3, np.float32))
    np.testing.assert_array_equal(T.linear(Tensor(x), eye, zero_b).data, x)

    b = np.array([1.0, -2.0, 0.5, 3.0], np.float32)
    out = T.linear(Tensor(x), Tensor(np.zeros((4, 3), np.float32)), Tensor(b))
    np.testing.assert_array_equal(out.data, np.tile(b, (2, 1)))


def test_linear_random_vs_triple_loop():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3)).astype(np.float32)
    w = rng.standard_normal((4, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    out = T.linear(Tensor(x), Tensor(w), Tensor(b))
    ref = oracles.linear_bruteforce(x, w, b)
    np.testing.assert_allclose(out.data, ref, rtol=1e-6, atol=1e-6)


def test_linear_dim_mismatch():
    with pytest.raises(ValueError, match="feature size"):
        T.linear(Tensor(np.zeros((2, 3), np.float32)), Tensor(np.zeros((4, 5), np.float32)),
                 Tensor(np.zeros(4, np.float32)))
    with pytest.raises(ValueError, match="bias shape"):
        T.linear(Tensor(np.zeros((2, 3), np.float32)), Tensor(np.zeros((4, 3), np.float32)),
                 Tensor(np.zeros(3, np.float32)))


def test_linear_requires_a_bias():
    with pytest.raises(TypeError):
        T.linear(Tensor(np.zeros((2, 3), np.float32)), Tensor(np.zeros((4, 3), np.float32)))


# -- batchnorm ----------------------------------------------------------------

def test_batchnorm_eval_unit_stats_is_near_identity():
    x = np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32)
    out = T.batchnorm2d(Tensor(x), Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32)),
                        np.zeros(3, np.float32), np.ones(3, np.float32), training=False)
    np.testing.assert_allclose(out.data, x, rtol=1e-4, atol=1e-4)


def test_batchnorm_train_constant_input_normalizes_to_beta():
    x = np.full((2, 2, 3, 3), 7.5, np.float32)
    beta = np.array([0.25, -1.0], np.float32)
    out = T.batchnorm2d(Tensor(x), Tensor(np.ones(2, np.float32)), Tensor(beta),
                        np.zeros(2, np.float32), np.ones(2, np.float32), training=True)
    np.testing.assert_allclose(out.data, np.broadcast_to(beta[None, :, None, None], x.shape),
                               atol=1e-6)


def test_batchnorm_running_stats_update():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    rm = np.zeros(2, np.float32)
    rv = np.ones(2, np.float32)
    T.batchnorm2d(Tensor(x), Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)),
                  rm, rv, training=True, momentum=0.1)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    exp_rm = 0.1 * x.mean(axis=(0, 2, 3))
    exp_rv = 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * m / (m - 1)
    np.testing.assert_allclose(rm, exp_rm, rtol=1e-5)
    np.testing.assert_allclose(rv, exp_rv, rtol=1e-5)


def live_numpy_blocks(min_bytes):
    """Sizes of the numpy buffers of at least min_bytes that tracemalloc saw
    allocated since it started and that are still alive."""
    gc.collect()
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sorted(t.size for t in snap.traces if t.size >= min_bytes)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_taped_batchnorm_keeps_no_activation_beside_its_output(training):
    """Only the channel mean and inverse std are kept for the backward: of
    the activation-sized buffers the forward makes, only the output lives
    on. tracemalloc sees every numpy buffer; an allocation spy would miss
    the centred input, which an array operator makes."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2 * T.CONV_TILE + 1, 3, 6, 6)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    beta = Tensor(rng.standard_normal(3), requires_grad=True)
    stats = (np.zeros(3, np.float32), np.ones(3, np.float32))
    tracemalloc.start()
    try:
        out = T.batchnorm2d(x, gamma, beta, *stats, training=training)
        live = live_numpy_blocks(x.data.nbytes)
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert live == [out.data.nbytes], "batchnorm keeps an activation-sized array for its backward"


def test_batchnorm_errors():
    ones = Tensor(np.ones(2, np.float32))
    zeros = Tensor(np.zeros(2, np.float32))
    with pytest.raises(ValueError, match="eps"):
        T.batchnorm2d(Tensor(np.zeros((1, 2, 2, 2), np.float32)), ones, zeros,
                      np.zeros(2, np.float32), np.ones(2, np.float32), training=True, eps=0.0)
    with pytest.raises(ValueError, match="batch"):
        T.batchnorm2d(Tensor(np.zeros((0, 2, 2, 2), np.float32)), ones, zeros,
                      np.zeros(2, np.float32), np.ones(2, np.float32), training=True)


# -- simple ops ---------------------------------------------------------------

def test_relu_values():
    out = T.relu(Tensor(np.array([-1.0, 0.0, 2.0], np.float32)))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


@pytest.mark.parametrize("shape", [(1,), (7,), (9,), (3, 5), (2 * T.CONV_TILE + 1, 3, 5, 7)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_relu_gradient_has_the_bytes_of_the_bool_mask(monkeypatch, shape):
    """A taped relu keeps its mask as packed bits, whose element count is not
    a multiple of 8 here, so the last byte holds padding. Its rule gives the
    bytes of g * (x > 0), NaN and signed zeros included, for NaN, +-inf and
    +-0 inputs and a -0, NaN or +-inf upstream gradient."""
    rng = np.random.default_rng(sum(shape))
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], np.float32)
    xd, gd = (np.where(rng.random(shape) < 0.4, rng.choice(special, shape),
                       rng.standard_normal(shape)).astype(np.float32) for _ in range(2))
    xd.flat[:5] = special[:xd.size]
    xd.flat[-1], gd.flat[-1] = 1.0, -0.0
    arrivals = []
    first = T._first_arrival
    monkeypatch.setattr(T, "_first_arrival", lambda g: arrivals.append(g.copy()) or first(g))
    x = Tensor(xd, requires_grad=True)
    with np.errstate(invalid="ignore"):  # inf * 0
        T.relu(x).backward(gd)
        want = gd * (xd > 0)
    assert len(arrivals) == 1 and arrivals[0].tobytes() == want.tobytes()
    assert x.grad.tobytes() == (want + np.float32(0)).tobytes()


def test_add_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        T.add(Tensor(np.zeros((2, 3), np.float32)), Tensor(np.zeros((3, 2), np.float32)))


ARITHMETIC_OFF_THE_OP_SET = {
    "a + b": lambda a, b: a + b,
    "a + 1.0": lambda a, b: a + 1.0,
    "-a": lambda a, b: -a,
    "a - b": lambda a, b: a - b,
    "a / 2.0": lambda a, b: a / 2.0,
    "2.0 * a": lambda a, b: 2.0 * a,
    "a * b": lambda a, b: a * b,
}


@pytest.mark.parametrize("expr", sorted(ARITHMETIC_OFF_THE_OP_SET))
def test_tensor_arithmetic_is_scalar_only(expr):
    a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    b = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    with pytest.raises(TypeError):
        ARITHMETIC_OFF_THE_OP_SET[expr](a, b)


@pytest.mark.parametrize("expr, scale, shift", [
    (lambda a: a * 0.5, 0.5, 0.0),
    (lambda a: 1.0 - a, -1.0, 1.0),
], ids=["a * 0.5", "1.0 - a"])
def test_scalar_mul_and_rsub_keep_their_values_and_gradients(expr, scale, shift):
    vals = np.array([[1.5, -2.0], [0.0, 3.25]], np.float32)
    g = np.array([[0.25, 4.0], [-1.5, 2.0]], np.float32)
    a = Tensor(vals, requires_grad=True)
    out = expr(a)
    np.testing.assert_array_equal(out.data, vals * np.float32(scale) + np.float32(shift))
    T.mul(out, Tensor(g)).sum().backward()
    np.testing.assert_array_equal(a.grad, g * np.float32(scale))


def test_log_softmax_uniform_logits():
    out = T.log_softmax(Tensor(np.zeros((3, 5), np.float32)))
    np.testing.assert_allclose(out.data, np.full((3, 5), np.log(1 / 5)), rtol=1e-6)


def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(5)
    x = (rng.standard_normal((6, 10)) * 4).astype(np.float32)
    out = T.log_softmax(Tensor(x))
    np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(6), atol=1e-5)


def test_global_avg_pool_value():
    x = Tensor(np.array([[1, 2], [3, 4]], np.float32).reshape(1, 1, 2, 2))
    assert T.global_avg_pool(x).item() == 2.5


def test_nll_label_range_check():
    lp = T.log_softmax(Tensor(np.zeros((2, 3), np.float32)))
    with pytest.raises(ValueError, match="range"):
        T.nll_loss(lp, np.array([0, 3]))


# -- backward bookkeeping -------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3), np.float32))


def test_backward_accumulates_over_consumers():
    x = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    T.add(x, x).sum().backward()
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0, np.float32))


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2), np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.relu(x).backward()


def test_backward_seeds_a_non_scalar_output_with_the_grad_it_is_given():
    vals = np.array([[1.0, -2.0], [0.5, 3.0]], np.float32)
    g = np.array([[0.25, 4.0], [-1.5, 2.0]], np.float32)
    x = Tensor(vals, requires_grad=True)
    out = T.relu(x)
    with pytest.raises(ValueError, match="scalar"):
        out.backward()
    out.backward(g)
    np.testing.assert_array_equal(x.grad, np.where(vals > 0, g, 0))


def test_backward_rejects_a_grad_of_another_shape():
    out = T.relu(Tensor(np.zeros((2, 2), np.float32), requires_grad=True))
    with pytest.raises(ValueError, match=r"grad shape \(2, 3\) differs from output shape \(2, 2\)"):
        out.backward(np.ones((2, 3), np.float32))


def test_backward_rejects_a_grad_that_is_not_float32():
    out = T.relu(Tensor(np.zeros((2, 2), np.float32), requires_grad=True))
    with pytest.raises(ValueError, match="grad dtype float64 is not float32"):
        out.backward(np.ones((2, 2)))


def test_a_leaf_root_adds_a_copy_of_its_seed_to_its_gradient():
    """Seeding a leaf is an arrival like any other: the leaf keeps no
    reference to the caller's array, and a seed adds to what it holds."""
    g = np.array([1.0, 2.0, 3.0], np.float32)
    x = Tensor(np.zeros(3, np.float32), requires_grad=True)
    x.backward(g)
    (x * 10.0).sum().backward()
    np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(x.grad, [11.0, 12.0, 13.0])
    x.backward(g)
    np.testing.assert_array_equal(x.grad, [12.0, 14.0, 16.0])
    frozen = Tensor(np.zeros(3, np.float32))
    frozen.backward(g)
    assert frozen.grad is None


def test_split_consumers_match_combined_expression():
    # d/dx sum(3x) == d/dx [sum(x) + sum(2x)]
    rng = np.random.default_rng(9)
    data = rng.standard_normal((3, 3)).astype(np.float32)
    a = Tensor(data, requires_grad=True)
    (a * 3.0).sum().backward()
    combined = a.grad.copy()
    b = Tensor(data, requires_grad=True)
    T.add(b * 1.0, b * 2.0).sum().backward()
    np.testing.assert_allclose(b.grad, combined, rtol=1e-6)


def test_detach_severs_one_path():
    vals = np.array([[1.0, -2.0], [0.5, 3.0]], np.float32)
    x = Tensor(vals, requires_grad=True)
    d = x.detach()
    assert not d.requires_grad
    np.testing.assert_array_equal(d.data, vals)
    T.mul(d, x).sum().backward()
    np.testing.assert_array_equal(x.grad, vals)


def test_frozen_leaf_receives_no_grad():
    x = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    w = Tensor(np.ones((2, 2), np.float32), requires_grad=False)
    T.mul(x, w).sum().backward()
    assert w.grad is None
    assert x.grad is not None


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    runs = []
    for _ in range(2):
        out = T.global_avg_pool(T.relu(T.conv2d(Tensor(x), Tensor(w), stride=1, padding=1)))
        runs.append(out.data.copy())
    assert np.array_equal(runs[0], runs[1])


# -- gradients vs finite differences -------------------------------------------

@pytest.mark.parametrize("name", sorted(oracles.FD_CASES))
def test_gradients_match_finite_differences(name, fd_rng):
    case = oracles.FD_CASES[name]
    for trial in range(5):
        arrays, (op32, op64) = case(fd_rng)
        err = oracles.run_fd_case(arrays, op32, op64, fd_rng)
        assert err < 1e-3, f"{name} trial {trial}: rel err {err:.2e}"


# -- what the tape holds over a grafted step ------------------------------------------


def grafted_setup(arch, n, hw):
    """A fresh seeded LP/FP pair after one grafted forward that settles
    activation-scale calibration, and the loss of a grafted step (every
    switch on) as a function of no arguments."""
    spec = BlockSpec.from_arch(arch)
    fp = build_model(spec, "fp", seed=5).freeze()
    lp = build_model(spec, "lp", bits=4, seed=6)
    init_lp_from_fp(lp, fp)
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((n, 3, hw, hw)).astype(np.float32))
    labels = rng.integers(0, 10, size=n)
    cfg = RunConfig()
    bwrf_forward(lp, fp, x, cfg)
    return lp, lambda: total_loss(bwrf_forward(lp, fp, x, cfg), labels, cfg)[0]


def grafted_loss(arch, n, hw):
    """The loss node of a grafted step after the calibrating forward, and the LP model."""
    lp, loss = grafted_setup(arch, n, hw)
    return loss(), lp


def held_tensors(fn):
    """The Tensors a closure holds in its cells, directly or in a tuple or list."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        items = value if isinstance(value, (tuple, list)) else (value,)
        found += [v for v in items if isinstance(v, Tensor)]
    return found


def test_no_backward_rule_of_a_grafted_step_holds_a_tensor(monkeypatch):
    """The tape keeps nodes, and each rule the arrays and flags it reads: a
    rule that held an input Tensor would pin that Tensor's data, which no
    rule may read, until the step ends."""
    monkeypatch.setattr(T, "_helper", lambda: None)
    loss, _ = grafted_loss("resnet8", 4, 8)
    nodes = [n for n in T._reverse_topo(loss) if n._grad_fn is not None]
    assert len(nodes) > 100
    for node in nodes:
        assert not held_tensors(node._grad_fn), f"the rule of {node!r} holds a Tensor"


# Bytes still allocated after a grafted forward and its loss, in activations
# of the stem's width (batch 32, 16 channels at 16^2). Quantized conv inputs
# kept as float32 read 21.9 (resnet8) and 36.5 (resnet14); a tape that
# pinned every op output read 40.9 and 69.8.
FORWARD_KEPT_ACTIVATIONS = 39


def forward_kept(monkeypatch, arch):
    """Bytes still allocated after a grafted forward and its loss, in stem activations."""
    monkeypatch.setattr(T, "_helper", lambda: None)  # the teacher inline, on one thread
    _, grafted = grafted_setup(arch, 32, 16)
    gc.collect()
    tracemalloc.start()
    try:
        loss = grafted()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    return kept / (32 * 16 * 16 * 16 * 4)


@pytest.mark.parametrize("arch", ["resnet8", "resnet14"])
def test_a_grafted_tape_keeps_under_a_fixed_count_of_activations(monkeypatch, arch):
    kept = forward_kept(monkeypatch, arch)
    assert kept < FORWARD_KEPT_ACTIVATIONS, f"{arch} tape keeps {kept:.1f} activations"


# The same count with every quantized conv input kept as its integer code
# and every relu mask as packed bits: resnet8 reads 14.6 and resnet14 24.4.
# One-byte bool masks read 16.0 and 27.1, and float32 conv inputs on top of
# them 21.9 and 36.5.
CODE_KEPT_ACTIVATIONS = {"resnet8": 15.5, "resnet14": 26}


@pytest.mark.parametrize("arch", sorted(CODE_KEPT_ACTIVATIONS))
def test_a_grafted_tape_keeps_each_quantized_conv_input_as_its_code(monkeypatch, arch):
    kept = forward_kept(monkeypatch, arch)
    assert kept < CODE_KEPT_ACTIVATIONS[arch], f"{arch} tape keeps {kept:.1f} activations"


def test_a_frozen_eval_chain_keeps_only_the_relu_mask():
    """conv -> batchnorm -> relu as in a graft suffix: frozen weights, eval
    mode, an input that takes a gradient. The conv keeps its weight, the
    batchnorm its channel stats and gamma, the relu its mask as packed
    bits, one byte per 8 elements; no float activation outlives the forward
    but the caller's output."""
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2 * T.CONV_TILE + 1, 3, 8, 8)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)))
    gamma, beta = Tensor(rng.uniform(0.5, 1.5, 4)), Tensor(rng.standard_normal(4))
    stats = (rng.standard_normal(4).astype(np.float32), np.ones(4, np.float32))
    tracemalloc.start()
    try:
        out = T.relu(T.batchnorm2d(T.conv2d(x, w, padding=1), gamma, beta, *stats,
                                   training=False))
        bits = -(-out.size // 8)
        live = live_numpy_blocks(bits)
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert live == [bits, out.data.nbytes], "the chain keeps a float activation"


# Peak of a grafted backward over its tape, in activations of the stem's
# width (batch 32, 16 channels at 16^2): resnet8 reads 5.66 and resnet14
# 6.41, the extra being resnet14's larger parameter gradients. A weight
# gradient that rebuilt and padded a float32 input read 6.90 and 7.65;
# keeping every intermediate gradient and a normalised copy per batchnorm
# read 33.7 and 57.5, growing with depth.
BACKWARD_PEAK_ACTIVATIONS = 7


@pytest.mark.parametrize("arch", ["resnet8", "resnet14"])
def test_a_grafted_backward_peaks_under_a_fixed_count_of_activations(monkeypatch, arch):
    monkeypatch.setattr(T, "_helper", lambda: None)  # every gradient inline, on one thread
    loss, _ = grafted_loss(arch, 32, 16)
    activation = 32 * 16 * 16 * 16 * 4
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BACKWARD_PEAK_ACTIVATIONS * activation, \
        f"{arch} backward peaked at {peak / activation:.1f} activations"


# Bytes still allocated after a grafted walk with the loss held, counted
# from before its forward, in stem activations: the parameter gradients and
# the tape's nodes. A walk that kept every rule kept the tape too, 15.19
# (resnet8) and 25.78 (resnet14); dropping each rule once it has run leaves
# 0.67 and 1.43.
WALK_KEPT_ACTIVATIONS = 2


@pytest.mark.parametrize("arch", ["resnet8", "resnet14"])
def test_a_grafted_walk_peaks_under_its_forward_and_frees_its_tape(monkeypatch, arch):
    """Counted from before the grafted forward, in stem activations. The
    forward peaks at 18.27 (resnet8) and 28.47 (resnet14). A walk that kept
    every rule's arrays until it returned peaked above it, at 20.25 and
    30.86; dropping each rule once it has run peaks at 15.97 and 25.82."""
    monkeypatch.setattr(T, "_helper", lambda: None)  # every gradient inline, on one thread
    _, grafted = grafted_setup(arch, 32, 16)
    activation = 32 * 16 * 16 * 16 * 4
    gc.collect()
    tracemalloc.start()
    try:
        loss = grafted()
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loss.backward()
        gc.collect()
        kept, walk_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert walk_peak < forward_peak, (f"{arch} walk peaked at {walk_peak / activation:.2f} "
                                      f"activations, its forward at {forward_peak / activation:.2f}")
    assert kept < WALK_KEPT_ACTIVATIONS * activation, \
        f"{arch} keeps {kept / activation:.2f} activations after its walk"


def test_a_weight_gradient_from_a_code_peaks_under_two_and_a_half_activations():
    """One weight gradient of a 3x3 conv at 16x32^2, batch 128, on a quantized
    input's (code, scale): the padded code takes a byte per element, so the
    peak is about the tap buffer, the channels-last g and the code, 2.29
    float32 activations. Rebuilding and padding the float32 input read 4.13."""
    rng = np.random.default_rng(3)
    code = rng.integers(0, 16, (128, 16, 32, 32)).astype(np.uint8)
    g = rng.standard_normal((128, 16, 32, 32)).astype(np.float32)
    gc.collect()
    tracemalloc.start()
    try:
        gw = T._conv2d_weight_grad((code, np.float32(0.1)), g, 3, 3, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gw.shape == (16, 16, 3, 3)
    assert peak < 2.5 * g.nbytes, f"the weight gradient peaked at {peak / g.nbytes:.2f} activations"


@pytest.mark.parametrize("inline", [False, True], ids=["helper", "inline"])
def test_walks_over_two_identical_tapes_give_the_same_leaf_gradients(monkeypatch, inline):
    if inline:
        monkeypatch.setattr(T, "_helper", lambda: None)
    walks = []
    for _ in range(2):
        loss, lp = grafted_loss("resnet8", 5, 8)
        loss.backward()
        walks.append({name: p.grad.tobytes() for name, p, _ in lp.param_groups()})
    assert walks[0].keys() == walks[1].keys()
    for name in walks[0]:
        assert walks[0][name] == walks[1][name], f"{name} differs on the second tape"
