"""Dense float32 tensors with reverse-mode automatic differentiation.

The operator set covers small residual CNNs: bias-free convolution (each
conv feeds a batchnorm), linear with a bias (the classifier head), batch
norm, ReLU, residual add, global average pooling, log-softmax, and the
reductions needed for classification and distillation losses. A scalar,
a loss included, is a shape-(1,) Tensor. ``Tensor`` arithmetic is
scalar-only, the two forms the losses use: ``t * scalar`` and
``scalar - t``; tensors combine through ``add`` and ``mul``. Gradients
accumulate by summation when a node feeds several consumers, so a shared
feature map receives the sum of the contributions from every branch that
consumed it. ``backward``, the one runner of backward rules, walks from
ones or a copy of a given upstream gradient, hands the arrays each rule
returns to its input nodes and drops each node's gradient once its rule
has run, so the tape holds intermediate gradients only while they are
needed, and afterwards only leaves hold one. It drops the rule too, with
the arrays it kept, so they are freed while later rules allocate
gradients; a later walk over the freed tape raises.

The tape is made of nodes, not arrays. A Tensor is its data and its
``Node``, which holds the gradient, requires_grad, the parent nodes, the
op's own backward rule and the op name, and may hold a compact form of
the data: an integer code and a float32 scale whose product is the data
to the bit, arrays the op's own rule keeps anyway. Each rule captures at
forward time the arrays and flags it reads, and no input Tensor: a conv
keeps its input only when its weight takes a gradient, as its compact
form when the input node has one, and its weight only when its input
does; a batchnorm keeps its input only when its backward rebuilds xhat; a
relu keeps its mask as packed bits, one per element; a quantize its
output's code and its scale term. So an op output that no rule reads, such
as a batchnorm output, a residual sum, a frozen graft suffix's conv output
or a quantized conv input, is freed as soon as the forward code drops its
Tensor.

Reduction order is fixed: elementwise reductions use numpy's pairwise
summation and matrix products go through the BLAS gemm numpy ships with,
so repeated runs in one environment are bit-identical. A kh x kw conv sums
kh*kw GEMMs with K = C, one per tap in row-major order, one batch tile of
CONV_TILE images at a time so the tile's buffers stay in cache. Its input
gradient is the same kernel over g dilated by the stride, taps in the same
order: each input position sums the terms a scatter of ``g @ W_tap``
would, in the same order, plus exact zeros. Those GEMMs have N = C_in: 16,
32 or 64, and 3 in the LP stem, whose input gradient feeds its input
quantizer's scale. The weight gradient is one untiled GEMM per tap over
all N*OH*OW rows, as tiling would split its sum.
Tiling keeps each row's sum provided the BLAS computes a GEMM row the same
way whatever the row count: OpenBLAS 0.3.31's SkylakeX kernels do for the
network's shapes, not for N in {3, 8} with K >= 32, and numpy sends a
one-row matmul to gemv, which rounds differently at K = 64. The forward
keeps no copy of its input; the weight gradient pads a compact input's
one-byte code, not its float32 values, and writes each tap's window with
the one multiply the quantize did.

Batchnorm centres its input once, for the variance and for xhat, and
keeps only its channel mean and inverse std: its backward rebuilds xhat
from its input with the forward's own two ops, so the bits match, and
only when gamma trains or the batch statistics take a gradient. An
eval-mode batchnorm with a frozen gamma, as in a graft suffix, rebuilds
nothing. Every array a rule returns is the receiving node's to keep: a
first gradient arrival is written in place as g + 0.0, which is zeros + g
to the bit (-0 becomes +0), and later arrivals are added into it.

A helper thread, made by the first ``fork`` when the process may use a
second CPU, runs the frozen teacher's forward beside the LP forward
(``graft.bwrf_forward``) and the weight gradient of each conv whose input
takes a gradient and whose weight is a node with a backward rule (a weight
quantizer); ``fork`` runs inline with one CPU or on the helper itself. Such
a conv gives its weight node a pending gradient, the job's join, which
stays pending until the walk visits that node or a second gradient
arrives, so the helper's GEMMs run beside the rules in between, and the
helper runs the same code on the same arrays. The helper must never enter
``no_grad``, whose flag is a module global. Both threads allocate from one
malloc arena (``_helper``).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_grad_enabled = True
HELPER = "bwrf-helper"  # the helper thread's name prefix


@contextlib.contextmanager
def no_grad():
    """Build no backward graph in the block: op outputs are leaves, same values."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


@functools.cache
def _helper():
    """The helper thread's executor, made on the first call; None when the
    process may run on one CPU only. Making it first sets the C library's
    ``M_ARENA_MAX`` to 1 (if it has ``mallopt``) for the whole process: on an
    arena of its own, what the helper frees would stay out of the main thread's reach."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count())
    if len(cpus) > 1 and os.name == "posix" and hasattr(libc := ctypes.CDLL(None), "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(-8, 1)  # M_ARENA_MAX, 1
    return ThreadPoolExecutor(1, thread_name_prefix=HELPER) if len(cpus) > 1 else None


def fork(fn, *args):
    """Start fn(*args) on the helper thread and return its join, which waits
    and returns the value or raises what fn raised. Runs fn inline when there
    is no helper or when called on the helper, so a nested fork cannot wait
    on itself."""
    helper = _helper()
    if helper is None or threading.current_thread().name.startswith(HELPER):
        value = fn(*args)
        return lambda: value
    return helper.submit(fn, *args).result


class Node:
    """A tensor's place on the tape: its gradient, whether it takes one, the
    parent nodes, the op's backward rule and the op name. It holds no float
    array of values, so an op output no rule reads is freed with its Tensor.
    ``compact`` is None or ``(code, scale)``, an integer array and a float32
    scalar whose product is the output's data to the bit, which the op's own
    rule keeps anyway (a taped quantize sets it)."""

    __slots__ = ("grad", "requires_grad", "_parents", "_grad_fn", "_op", "compact")

    def __init__(self, requires_grad: bool):
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._grad_fn = None
        self._op = "leaf"
        self.compact = None

    def __repr__(self):
        return f"Node(op={self._op}, requires_grad={self.requires_grad})"


def _node_field(name):
    """A Tensor attribute that reads and writes its node's."""
    return property(lambda t: getattr(t.node, name), lambda t, value: setattr(t.node, name, value))


class Tensor:
    """A numpy-backed array and its node in a reverse-mode differentiation graph."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float32))
        self.node = Node(bool(requires_grad))

    grad = _node_field("grad")
    requires_grad = _node_field("requires_grad")

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Same values, excluded from differentiation; shares storage."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.node._op}, requires_grad={self.requires_grad})"

    # -- arithmetic: scalar only, the two forms the losses use --------------

    def __mul__(self, other):
        return _scalar_affine(self, float(other), 0.0)

    def __rsub__(self, other):
        return _scalar_affine(self, -1.0, float(other))

    def sum(self) -> "Tensor":
        out_data = self.data.sum(dtype=np.float32)
        shape = self.shape

        def grad_fn(g):
            return (np.broadcast_to(g, shape).astype(np.float32, copy=True),)

        return custom_op("sum", out_data, (self,), grad_fn)

    def mean(self) -> "Tensor":
        inv = np.float32(1.0 / self.data.size)
        out_data = self.data.sum(dtype=np.float32) * inv
        shape = self.shape

        def grad_fn(g):
            return (np.broadcast_to(g * inv, shape).astype(np.float32, copy=True),)

        return custom_op("mean", out_data, (self,), grad_fn)

    # -- backward -----------------------------------------------------------

    def backward(self, grad=None):
        """Assign ``grad`` on every reachable leaf with ``requires_grad``.

        The walk, the one runner of backward rules, starts from a copy of
        ``grad``, this output's upstream gradient, or from ones at a scalar
        loss; at a leaf, that seed is one more arrival. Each operation record
        in the graph is visited exactly once, in ``_reverse_topo``'s order;
        multi-consumer nodes therefore receive their full summed gradient
        before their own rule runs, and a pending gradient is resolved on
        the visit. Only leaves keep a gradient. A scalar loss is shape (1,),
        so ``grad`` for one is ``np.ones(loss.shape, np.float32)``.

        Each rule is dropped once it has run, with the arrays it kept and
        its node's compact form, so they are freed while later rules
        allocate gradients; a later walk that reaches the node raises
        RuntimeError.
        """
        if grad is None and self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss or a grad, got shape {self.shape}")
        if grad is not None and grad.shape != self.shape:
            raise ValueError(f"backward: grad shape {grad.shape} differs from output shape {self.shape}")
        if grad is not None and grad.dtype != np.float32:
            raise ValueError(f"backward: grad dtype {grad.dtype} is not float32")
        seed = np.ones_like(self.data) if grad is None else grad.copy()
        if self.node._grad_fn is None:
            _accumulate(self.node, seed)
        else:
            self.node.grad = seed
        for node in _reverse_topo(self):
            if node._grad_fn is not None and node.grad is not None:
                g, node.grad = node.grad, None
                grads = node._grad_fn(_first_arrival(g) if callable(g) else g)
                node._grad_fn, node.compact = _walked, None
                for parent, g in zip(node._parents, grads):
                    _accumulate(parent, g)
                del g, grads  # the next rule runs without what this one returned


def _walked(g):
    """The rule of a node whose own rule a walk has run and dropped."""
    raise RuntimeError("backward: this tape was freed by an earlier walk; "
                       "run the forward again to walk it again")


def _reverse_topo(root: Tensor):
    """The nodes of root's tape by iterative post-order DFS, reversed:
    consumers before producers."""
    order = []
    visited = set()
    stack = [(root.node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _first_arrival(g):
    """g + 0.0 written into g, which its rule gave away: zeros + g to the
    bit, as + 0.0 maps -0 to +0. A pending g (a join) is waited for first."""
    g = g() if callable(g) else g
    return np.add(g, 0.0, out=g)


def _accumulate(node: Node, g):
    """Add one gradient arrival, None for none, to a node. A pending first
    arrival stays pending on a node with a backward rule, until the walk
    visits it."""
    if g is not None and node.requires_grad:
        if node.grad is None:
            node.grad = g if callable(g) and node._grad_fn is not None else _first_arrival(g)
        else:
            if callable(node.grad):
                node.grad = _first_arrival(node.grad)
            node.grad += g() if callable(g) else g


def recording(inputs) -> bool:
    """Whether an op on these inputs goes on the tape: ``custom_op`` keeps a
    backward node for it, so its forward must save what that node reads."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def custom_op(op: str, out_data, inputs, grad_fn) -> Tensor:
    """Wire an externally computed array into the graph.

    ``grad_fn(upstream)``, the node's own rule, returns per input a float32
    array of its shape, or None, and gives it away: the input's node writes
    into it. So no rule returns one array twice or one it captured; ``add``
    returns ``upstream`` and a copy. This is the hook the quantizer uses to
    install its straight-through rule; all built-in ops route through it
    too. Under ``no_grad`` the output is a plain leaf.

    The tape keeps the input nodes and ``grad_fn``, not the input Tensors.
    So ``grad_fn`` must capture the arrays and flags it reads when it is
    made, at forward time, and no input Tensor: an input's data then lives
    only as long as its Tensor or a rule that captured it. A rule may
    capture an input node's ``compact`` form in place of its data, and the
    caller may set the output node's ``compact`` to arrays its own rule
    keeps. Flags count as of the forward: an input frozen after it still
    has its gradient computed, which ``_accumulate`` then drops, and one
    unfrozen after it gets none.
    """
    out = Tensor(out_data, requires_grad=recording(inputs))
    if out.requires_grad:
        out.node._parents = tuple(t.node for t in inputs)
        out.node._grad_fn = grad_fn
        out.node._op = op
    return out


def _scalar_affine(t: Tensor, a: float, b: float) -> Tensor:
    a32 = np.float32(a)

    def grad_fn(g):
        return (g * a32,)

    return custom_op("affine", t.data * a32 + np.float32(b), (t,), grad_fn)


# -- elementwise ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def grad_fn(g):
        return g, g.copy()  # each parent owns its array

    return custom_op("add", a.data + b.data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")

    b_data = b.data if a.requires_grad else None
    a_data = a.data if b.requires_grad else None

    def grad_fn(g):
        ga = g * b_data if b_data is not None else None
        gb = g * a_data if a_data is not None else None
        return ga, gb

    return custom_op("mul", a.data * b.data, (a, b), grad_fn)


def relu(t: Tensor) -> Tensor:
    # Subgradient at 0 is defined as 0 (strict > in the mask). out > 0 is
    # t > 0 element for element, NaN included, and its packed bits take a
    # 32nd of the float input's bytes.
    out_data = np.maximum(t.data, 0)
    bits = np.packbits(out_data > 0) if recording((t,)) else None

    def grad_fn(g):
        return (g * np.unpackbits(bits, count=g.size).view(bool).reshape(g.shape),)

    return custom_op("relu", out_data, (t,), grad_fn)


# -- linear operators --------------------------------------------------------


def _window(a, di, dj, stride, oh, ow):
    """The oh x ow window of NHWC a whose corner is (di, dj), every stride-th pixel."""
    return a[:, di:di + stride * (oh - 1) + 1:stride, dj:dj + stride * (ow - 1) + 1:stride, :]


def _landing(offset, step, extent, size):
    """(source, buffer) slices putting source i at offset + step * i in [0, size)."""
    first = max(0, -(offset // step))
    stop = max(first, min(extent, -((offset - size) // step)))
    return slice(first, stop), slice(offset + step * first, offset + step * stop, step)


# Images per conv batch tile. A tile's buffer, tap copy and two GEMM
# results take at most about 410 KB per image (the input gradient of the
# 16 -> 32 stride-2 conv at 32^2), so a tile stays inside a 2 MB L2. On one
# AVX-512 core (OpenBLAS 0.3.31, batch 128, the six resnet conv forwards),
# 3 images beat 2, 4, 6, 8 and 12.
CONV_TILE = 3


def _conv2d_tiles(src, taps, stride, out_hw, buf_hw, offset, step):
    """The conv kernel: each tile of CONV_TILE NCHW ``src`` images goes
    channels-last into a zeroed ``buf_hw`` buffer, pixel (i, j) at offset +
    step * (i, j); each tap (C-contiguous (C, O) weight, (di, dj)), in order,
    adds one GEMM over the ``out_hw`` window at (di, dj) with this stride."""
    n, c = src.shape[:2]
    oh, ow = out_hw
    o = taps[0][0].shape[1]
    t = min(n, CONV_TILE)
    buf = np.zeros((t, *buf_hw, c), dtype=src.dtype)
    src_rows, buf_rows = _landing(offset[0], step, src.shape[2], buf_hw[0])
    src_cols, buf_cols = _landing(offset[1], step, src.shape[3], buf_hw[1])
    tap = np.empty((t, oh, ow, c), dtype=src.dtype)
    acc = np.empty((t * oh * ow, o), dtype=src.dtype)
    part = np.empty_like(acc)
    out = np.empty((n, o, oh, ow), dtype=src.dtype)
    for i in range(0, n, t):
        m = min(t, n - i)
        r = m * oh * ow
        bt = buf[:m]
        bt[:, buf_rows, buf_cols, :] = src[i:i + m, :, src_rows, src_cols].transpose(0, 2, 3, 1)
        for j, (wtap, (di, dj)) in enumerate(taps):
            np.copyto(tap[:m], _window(bt, di, dj, stride, oh, ow))
            np.matmul(tap[:m].reshape(r, c), wtap, out=part[:r] if j else acc[:r])
            if j:
                acc[:r] += part[:r]
        out[i:i + m] = acc[:r].reshape(m, oh, ow, o).transpose(0, 3, 1, 2)
    return out


def _conv2d_weight_grad(saved, g, kh, kw, stride, padding):
    """OIkk gradient of a conv's weight from its saved input, the NCHW array
    or its compact ``(code, scale)`` form: one ``gout.T @ window`` GEMM per
    tap in row-major order over all N*OH*OW rows, each window copied into a
    float32 buffer from the input (a code as ``code * scale``, the quantize's
    own multiply, so +0 in the padding) padded channels-last, or unpadded."""
    x, scale = saved if isinstance(saved, tuple) else (saved, None)
    n, c, h, wd = x.shape
    o, oh, ow = g.shape[1:]
    gout = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * oh * ow, o)
    xp = nhwc = x.transpose(0, 2, 3, 1)
    if padding:
        xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c), dtype=x.dtype)
        xp[:, padding:padding + h, padding:padding + wd, :] = nhwc
    gwt = np.empty((kh, kw, o, c), dtype=g.dtype)
    tap = np.empty((n, oh, ow, c), dtype=np.float32)
    for ki in range(kh):
        for kj in range(kw):
            window = _window(xp, ki, kj, stride, oh, ow)
            if scale is None:
                np.copyto(tap, window)
            else:
                np.multiply(window, scale, out=tap, dtype=np.float32)
            np.matmul(gout.T, tap.reshape(-1, c), out=gwt[ki, kj])
    return np.ascontiguousarray(gwt.transpose(2, 3, 0, 1))


def conv2d(x: Tensor, weight: Tensor, *, stride: int = 1, padding: int = 0) -> Tensor:
    """Bias-free 2d cross-correlation over NCHW input with an OIkk kernel;
    every conv in the networks feeds a batchnorm, whose batch mean would
    cancel a bias.

    The forward runs ``_conv2d_tiles`` over the padded input, the input
    gradient over g with stride - 1 zeros between its pixels, at stride 1.
    The weight gradient is ``_conv2d_weight_grad`` on the input, or on its
    node's compact form when it has one (the one-byte code is padded, no
    float32 input is rebuilt), forked to the helper when the input needs a
    gradient too and the weight is not a leaf.
    Activations and weights stay NCHW / OIkk outside this function.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d: input must be NCHW, got {x.ndim}d shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d: weight must be OIkk, got {weight.ndim}d shape {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"conv2d: input has {x.shape[1]} channels but weight expects {weight.shape[1]}")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d: invalid stride={stride} padding={padding}")

    _, _, h, wd = x.shape
    o, c, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"conv2d: kernel {kh}x{kw} does not fit {h}x{wd} input at padding {padding}")

    offsets = [(ki, kj) for ki in range(kh) for kj in range(kw)]
    wt = np.ascontiguousarray(weight.data.transpose(2, 3, 1, 0)).reshape(kh * kw, c, o)
    out_data = _conv2d_tiles(x.data, list(zip(wt, offsets)), stride, (oh, ow),
                             (h + 2 * padding, wd + 2 * padding), (padding, padding), 1)

    # a quantized input is kept as its code, a quarter of its bytes
    x_saved = (x.node.compact or x.data) if weight.requires_grad else None
    w_data = weight.data if x.requires_grad else None
    # the weight gradient runs on the helper when the input gradient runs
    # beside it and the weight node can hold it pending until the walk
    # visits it; a leaf would join at once, GEMMs beside GEMMs, slower than
    # inline
    wait = x.requires_grad and weight.node._grad_fn is not None

    def grad_fn(g):
        gx = gw = None
        if x_saved is not None:
            args = (x_saved, g, kh, kw, stride, padding)
            gw = fork(_conv2d_weight_grad, *args) if wait else _conv2d_weight_grad(*args)
        if w_data is not None:
            # a stride-1 conv over g dilated by the stride: tap (ki, kj), in
            # the forward's order, reads the window at (kh-1-ki, kw-1-kj)
            wk = np.ascontiguousarray(w_data.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)
            gx = _conv2d_tiles(g, list(zip(wk, offsets[::-1])), 1, (h, wd),
                               (h + kh - 1, wd + kw - 1), (kh - 1 - padding, kw - 1 - padding),
                               stride)
        return gx, gw

    return custom_op("conv2d", out_data, (x, weight), grad_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x (N,D) @ weight (C,D)^T + bias (C,): the classifier head, the one
    layer with a bias."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError(f"linear: need 2d input and weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"linear: input feature size {x.shape[1]} does not match weight's {weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"linear: bias shape {bias.shape} vs {weight.shape[0]} outputs")

    w_data = weight.data if x.requires_grad else None
    x_data = x.data if weight.requires_grad else None
    b_grad = bias.requires_grad

    def grad_fn(g):
        gx = g @ w_data if w_data is not None else None
        gw = g.T @ x_data if x_data is not None else None
        return gx, gw, g.sum(axis=0) if b_grad else None

    return custom_op("linear", x.data @ weight.data.T + bias.data, (x, weight, bias), grad_fn)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Channel-wise batch normalization over an NCHW tensor.

    Train mode normalizes with batch statistics and folds them into the
    running buffers (running variance uses the unbiased estimate, the
    normalization itself the biased one). Eval mode normalizes with the
    running buffers and is still differentiable w.r.t. input and affine
    parameters, which grafted frozen blocks rely on.
    """
    if eps <= 0:
        raise ValueError(f"batchnorm2d: eps must be positive, got {eps}")
    if x.ndim != 4:
        raise ValueError(f"batchnorm2d: input must be NCHW, got shape {x.shape}")
    if training and x.shape[0] == 0:
        raise ValueError("batchnorm2d: zero batch size in train mode")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"batchnorm2d: affine shapes {gamma.shape}/{beta.shape} vs {c} channels")

    # The input is centred once: in train mode the variance is the mean of
    # the squares of that centred array, the steps np.var takes, and the
    # centred array is then scaled into xhat in place.
    axes = (0, 2, 3)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        mean = x.data.mean(axis=axes)
        xhat = x.data - mean[None, :, None, None]
        out_data = np.square(xhat)
        var = out_data.mean(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean.astype(np.float32)
        var = running_var.astype(np.float32)
        xhat = x.data - mean[None, :, None, None]
        out_data = np.empty_like(xhat)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    xhat *= inv[None, :, None, None]
    np.multiply(gamma.data[None, :, None, None], xhat, out=out_data)
    out_data += beta.data[None, :, None, None]
    x_data = x.data if gamma.requires_grad or (training and x.requires_grad) else None
    gamma_data = gamma.data if x.requires_grad else None
    gamma_grad, beta_grad = gamma.requires_grad, beta.requires_grad
    m32 = np.float32(m)

    def grad_fn(g):
        # up to three activation-sized buffers: xhat, rebuilt with the
        # forward's two ops (the same bits), gx (dxhat, then the input
        # gradient) and prod (g * xhat, then dxhat * xhat)
        gbeta = g.sum(axis=axes) if beta_grad else None
        ggamma = gx = prod = None
        if x_data is not None:
            xhat = x_data - mean[None, :, None, None]
            xhat *= inv[None, :, None, None]
        if gamma_grad:
            prod = np.multiply(g, xhat)
            ggamma = prod.sum(axis=axes)
        if gamma_data is not None:
            gx = np.multiply(g, gamma_data[None, :, None, None])
            if training:
                prod = np.multiply(gx, xhat, out=prod)
                s_dxhat, s_prod = gx.sum(axis=axes), prod.sum(axis=axes)
                gx *= m32
                gx -= s_dxhat[None, :, None, None]
                xhat *= s_prod[None, :, None, None]
                gx -= xhat
                gx *= inv[None, :, None, None] / m32
            else:
                gx *= inv[None, :, None, None]
        return gx, ggamma, gbeta

    return custom_op("batchnorm2d", out_data, (x, gamma, beta), grad_fn)


# -- reductions and classifier head ------------------------------------------


def global_avg_pool(x: Tensor) -> Tensor:
    """NCHW -> NC spatial mean."""
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool: input must be NCHW, got shape {x.shape}")
    h, w = x.shape[2], x.shape[3]
    inv = np.float32(1.0 / (h * w))
    shape = x.shape

    def grad_fn(g):
        return (np.broadcast_to((g * inv)[:, :, None, None], shape).astype(np.float32, copy=True),)

    return custom_op("global_avg_pool", x.data.mean(axis=(2, 3)), (x,), grad_fn)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log softmax on an (N, C) tensor; logsumexp of each row is 0."""
    if x.ndim != 2:
        raise ValueError(f"log_softmax: input must be (N, C), got shape {x.shape}")
    m = x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x.data - m).sum(axis=1, keepdims=True)) + m
    out_data = x.data - lse

    def grad_fn(g):
        return (g - np.exp(out_data) * g.sum(axis=1, keepdims=True),)

    return custom_op("log_softmax", out_data, (x,), grad_fn)


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row log-probs."""
    labels = np.asarray(labels)
    n, c = log_probs.shape
    if labels.shape != (n,):
        raise ValueError(f"nll_loss: labels shape {labels.shape} vs batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"nll_loss: label out of class range [0, {c})")
    picked = log_probs.data[np.arange(n), labels]
    out_data = -picked.sum(dtype=np.float32) / np.float32(n)

    def grad_fn(g):
        gx = np.zeros((n, c), np.float32)
        gx[np.arange(n), labels] = -g / np.float32(n)
        return (gx,)

    return custom_op("nll_loss", out_data, (log_probs,), grad_fn)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits rows and integer labels."""
    return nll_loss(log_softmax(logits), labels)
