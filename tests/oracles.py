"""Independent reference implementations used as test oracles.

Forward values are checked against brute-force loops or scipy routines;
gradients are checked against central finite differences computed in
float64 on independently written forward functions. Nothing in this file
imports the kernels under test except the thin graph-building wrappers
inside the FD case registry.
"""

import math

import numpy as np
from scipy.signal import correlate2d
from scipy.special import log_softmax as sp_log_softmax

from bwrf import tensor as T
from bwrf.tensor import Tensor

# -- forward-value oracles ----------------------------------------------------


def conv2d_bruteforce(x, w, stride, padding):
    """Nested-loop cross-correlation, float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[ni, ci, yi * stride + ki, xi * stride + kj] * w[oi, ci, ki, kj]
                    out[ni, oi, yi, xi] = acc
    return out


def conv2d_f64(x, w, stride, padding):
    """scipy.correlate2d based convolution, float64; independent of bwrf.tensor."""
    n, c = x.shape[0], x.shape[1]
    o = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    rows = []
    for ni in range(n):
        chans = []
        for oi in range(o):
            acc = sum(correlate2d(xp[ni, ci], w[oi, ci], mode="valid") for ci in range(c))
            chans.append(acc[::stride, ::stride])
        rows.append(np.stack(chans))
    return np.stack(rows)


def linear_bruteforce(x, w, b):
    n, d = x.shape
    c = w.shape[0]
    out = np.zeros((n, c))
    for ni in range(n):
        for ci in range(c):
            acc = 0.0
            for di in range(d):
                acc += float(x[ni, di]) * float(w[ci, di])
            out[ni, ci] = acc + float(b[ci])
    return out


def linear_f64(x, w, b):
    return x @ w.T + b


def batchnorm_f64(x, gamma, beta, rm, rv, training, eps=1e-5):
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
    else:
        mean, var = rm, rv
    xhat = (x - mean[None, :, None, None]) / np.sqrt(var + eps)[None, :, None, None]
    return gamma[None, :, None, None] * xhat + beta[None, :, None, None]


def gap_f64(x):
    return x.mean(axis=(2, 3))


def relu_f64(x):
    return np.maximum(x, 0.0)


def log_softmax_f64(x):
    return sp_log_softmax(x, axis=1)


def cross_entropy_f64(logits, labels):
    lp = sp_log_softmax(logits, axis=1)
    return -lp[np.arange(len(labels)), labels].mean()


def kd_loss_f64(student, teacher, temp):
    """temp^2 * mean-over-batch KL(softmax(teacher/T) || softmax(student/T))."""
    ls = sp_log_softmax(np.asarray(student, dtype=np.float64) / temp, axis=1)
    lt = sp_log_softmax(np.asarray(teacher, dtype=np.float64) / temp, axis=1)
    pt = np.exp(lt)
    kl_rows = (pt * (lt - ls)).sum(axis=1)
    return temp * temp * kl_rows.mean()


# -- quantizer oracles --------------------------------------------------------


def round_half_away_f64(x):
    """Exact round-to-nearest, ties away from zero, on a float64 scalar."""
    t = math.trunc(x)
    f = x - t
    if f >= 0.5:
        return t + 1
    if f <= -0.5:
        return t - 1
    return t


def quantize_scalar_ref(v, s, qmin, qmax):
    """Scalar evaluation of the fake-quantization forward in float32 steps.

    Division and the final multiply use float32 arithmetic so the result is
    bit-comparable to the vectorized kernel; clip and the tie-away round are
    exact in float64 on the exactly-upcast float32 quotient.
    """
    vs = np.float32(v) / np.float32(s)
    x = min(max(float(vs), float(qmin)), float(qmax))
    z = round_half_away_f64(x)
    return np.float32(np.float64(z) * np.float64(np.float32(s)))


def ste_mask_scalar_ref(v, s, qmin, qmax):
    vs = float(np.float32(v) / np.float32(s))
    return 1.0 if qmin < vs < qmax else 0.0


def scale_grad_scalar_ref(v, s, qmin, qmax):
    """Per-element analytic scale gradient (no upstream, no 1/sqrt(n P))."""
    vs = float(np.float32(v) / np.float32(s))
    if vs <= qmin:
        return float(qmin)
    if vs >= qmax:
        return float(qmax)
    return float(round_half_away_f64(vs)) - vs


def scale_grad_fd_ref(v, s, qmin, qmax, h):
    """Central finite difference of the straight-through forward in s.

    The training-time gradient treats round as identity plus a constant
    residual, so the differenced function freezes the rounding residual at
    the base scale: f(s') = s' * (clip(v/s', qmin, qmax) + k) with
    k = round(clip(v/s)) - clip(v/s). Differencing the raw forward instead
    would produce the locally-constant round value, which is not the
    gradient the estimator defines.
    """
    v = float(v)
    s = float(s)
    base = min(max(v / s, qmin), qmax)
    k = round_half_away_f64(base) - base

    def f(sv):
        return sv * (min(max(v / sv, qmin), qmax) + k)

    return (f(s + h) - f(s - h)) / (2.0 * h)


# -- finite-difference harness -------------------------------------------------


def fd_gradient(f, arrays, idx, h=1e-3):
    """Central-difference gradient of scalar f w.r.t. arrays[idx], float64."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    g = np.zeros_like(arrays[idx])
    flat = arrays[idx].reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(*arrays)
        flat[i] = orig - h
        fm = f(*arrays)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def run_fd_case(arrays, op32, op64, rng, h=1e-3):
    """Max norm-relative error between graph gradients and FD, over inputs.

    A fixed random projection turns non-scalar outputs into a scalar loss so
    upstream gradients are non-uniform.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op32(*tensors)
    if out.data.ndim == 0:
        proj = None
        loss = out
    else:
        proj = rng.standard_normal(out.data.shape).astype(np.float32)
        loss = T.mul(out, Tensor(proj)).sum()
    loss.backward()

    def f(*arrs):
        o = op64(*arrs)
        return float((o * proj).sum()) if proj is not None else float(o)

    worst = 0.0
    for i, a in enumerate(arrays):
        g_fd = fd_gradient(f, arrays, i, h=h)
        g_an = np.asarray(tensors[i].grad, dtype=np.float64)
        denom = max(np.linalg.norm(g_fd), 1e-8)
        worst = max(worst, float(np.linalg.norm(g_an - g_fd) / denom))
    return worst


def _draw(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


def _draw_nonkink(rng, shape, margin=0.05):
    x = rng.standard_normal(shape).astype(np.float32)
    x = np.where(np.abs(x) < margin, x + np.sign(x) * 2 * margin, x)
    x = np.where(x == 0, np.float32(2 * margin), x)
    return x.astype(np.float32)


def _case_conv2d(rng):
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    arrays = (_draw(rng, (2, 2, 5, 5)), _draw(rng, (3, 2, 3, 3)))
    return arrays, (
        lambda x, w: T.conv2d(x, w, stride=stride, padding=padding),
        lambda x, w: conv2d_f64(x, w, stride, padding),
    )


def _conv_geometry_case(k, stride, padding):
    """One of the network's fixed conv geometries.

    Two images, so the conv's batch tile holds more than one, and two
    input and three output channels, so a swapped channel axis in the
    kernel's weight layout shows up as a shape or value mismatch.
    """
    def case(rng):
        arrays = (_draw(rng, (2, 2, 4, 4)), _draw(rng, (3, 2, k, k)))
        return arrays, (
            lambda x, w: T.conv2d(x, w, stride=stride, padding=padding),
            lambda x, w: conv2d_f64(x, w, stride, padding),
        )
    return case


def _case_linear(rng):
    arrays = (_draw(rng, (3, 4)), _draw(rng, (5, 4)), _draw(rng, (5,)))
    return arrays, (T.linear, linear_f64)


def _case_batchnorm_train(rng):
    arrays = (_draw(rng, (2, 2, 2, 2)), _draw(rng, (2,)) + 1.0, _draw(rng, (2,)))

    def op32(x, g, b):
        return T.batchnorm2d(x, g, b, np.zeros(2, np.float32), np.ones(2, np.float32),
                             training=True)

    def op64(x, g, b):
        return batchnorm_f64(x, g, b, None, None, training=True)

    return arrays, (op32, op64)


def _case_batchnorm_eval(rng):
    rm = _draw(rng, (3,))
    rv = np.abs(_draw(rng, (3,))) + 0.5
    arrays = (_draw(rng, (2, 3, 2, 2)), _draw(rng, (3,)) + 1.0, _draw(rng, (3,)))

    def op32(x, g, b):
        return T.batchnorm2d(x, g, b, rm.copy(), rv.copy(), training=False)

    def op64(x, g, b):
        return batchnorm_f64(x, g, b, rm.astype(np.float64), rv.astype(np.float64),
                             training=False)

    return arrays, (op32, op64)


def _case_relu(rng):
    arrays = (_draw_nonkink(rng, (4, 5)),)
    return arrays, (T.relu, relu_f64)


def _case_add(rng):
    arrays = (_draw(rng, (3, 4)), _draw(rng, (3, 4)))
    return arrays, (T.add, lambda a, b: a + b)


def _case_mul(rng):
    arrays = (_draw(rng, (3, 4)), _draw(rng, (3, 4)))
    return arrays, (T.mul, lambda a, b: a * b)


def _case_gap(rng):
    arrays = (_draw(rng, (2, 3, 4, 4)),)
    return arrays, (T.global_avg_pool, gap_f64)


def _case_log_softmax(rng):
    arrays = (_draw(rng, (4, 6)),)
    return arrays, (T.log_softmax, log_softmax_f64)


def _case_cross_entropy(rng):
    labels = rng.integers(0, 7, size=5)
    arrays = (_draw(rng, (5, 7)),)
    return arrays, (
        lambda x: T.cross_entropy(x, labels),
        lambda x: cross_entropy_f64(x, labels),
    )


def _case_sum(rng):
    arrays = (_draw(rng, (3, 4)),)
    return arrays, (lambda x: x.sum(), lambda x: x.sum())


def _case_mean(rng):
    arrays = (_draw(rng, (3, 4)),)
    return arrays, (lambda x: x.mean(), lambda x: x.mean())


def _case_chain(rng):
    """Composed multi-op chain: conv -> relu -> gap -> linear -> log_softmax."""
    stride = int(rng.integers(1, 3))
    # Redraw until no conv output sits near the relu kink, where central
    # differences disagree with the subgradient.
    for _ in range(100):
        arrays = (_draw(rng, (2, 2, 5, 5)), _draw(rng, (3, 2, 3, 3)), _draw(rng, (4, 3)),
                  _draw(rng, (4,)))
        pre = conv2d_f64(arrays[0].astype(np.float64), arrays[1].astype(np.float64), stride, 1)
        if np.abs(pre).min() > 0.05:
            break

    def op32(x, w, w2, b2):
        h = T.relu(T.conv2d(x, w, stride=stride, padding=1))
        return T.log_softmax(T.linear(T.global_avg_pool(h), w2, b2))

    def op64(x, w, w2, b2):
        h = relu_f64(conv2d_f64(x, w, stride, 1))
        return log_softmax_f64(linear_f64(gap_f64(h), w2, b2))

    return arrays, (op32, op64)


FD_CASES = {
    "conv2d": _case_conv2d,
    "conv2d_k3s1p1": _conv_geometry_case(3, 1, 1),
    "conv2d_k3s2p1": _conv_geometry_case(3, 2, 1),
    "conv2d_k1s2p0": _conv_geometry_case(1, 2, 0),
    "linear": _case_linear,
    "batchnorm2d_train": _case_batchnorm_train,
    "batchnorm2d_eval": _case_batchnorm_eval,
    "relu": _case_relu,
    "add": _case_add,
    "mul": _case_mul,
    "global_avg_pool": _case_gap,
    "log_softmax": _case_log_softmax,
    "cross_entropy": _case_cross_entropy,
    "sum": _case_sum,
    "mean": _case_mean,
    "chain": _case_chain,
}


# -- branch-evaluation oracle ----------------------------------------------------


def branch_metrics_two_walks(lp, fp, split, batch_size, cos_samples):
    """acc_*, top5_* and cos_* by two separate taped walks of the test split.

    The accuracy walk runs, per batch, the LP forward, the whole FP suffix
    from each graft point and the full FP forward. The cosine walk runs
    separate LP and FP forward_collect passes over the leading eval batches,
    then fp.blocks[i] on the LP feature, and compares the batch rows among
    the first cos_samples images. The shared _cos_rows reduction and the
    batching come from bwrf.
    """
    from bwrf.data import iter_batches
    from bwrf.training import _cos_rows

    n_blocks = lp.n_blocks
    lp.eval()
    fp.eval()
    branches = ["Q", *(f"M{k}" for k in range(1, n_blocks)), "F"]
    hits = {f"{kind}_{b}": 0 for b in branches for kind in ("acc", "top5")}
    for images, labels in iter_batches(split, batch_size):
        x = Tensor(images)
        features, y_q = lp.forward_collect(x)
        logits = {"Q": y_q, "F": fp(x)}
        for k in range(1, n_blocks):
            logits[f"M{k}"] = fp.forward_from_block(features[k - 1], k)
        for b, y in logits.items():
            y = y.data
            # top-5: fewer than five classes score strictly above the label's
            above = (y > y[np.arange(len(labels)), labels][:, None]).sum(axis=1)
            hits[f"acc_{b}"] += int((y.argmax(axis=1) == labels).sum())
            hits[f"top5_{b}"] += int((above < 5).sum())
    out = {key: 100.0 * h / len(split) for key, h in hits.items()}

    take = min(cos_samples, len(split))
    sums = {f"cos_b{i}": 0.0 for i in range(1, n_blocks + 1)}
    sums.update({f"cos_g{i}": 0.0 for i in range(1, n_blocks)})
    count = 0
    for images, _ in iter_batches(split, batch_size):
        if count == take:
            break
        x = Tensor(images)
        f_lp, _ = lp.forward_collect(x)
        f_fp, _ = fp.forward_collect(x)
        rows = min(len(images), take - count)
        for i in range(1, n_blocks + 1):
            sums[f"cos_b{i}"] += _cos_rows(f_lp[i - 1].data[:rows], f_fp[i - 1].data[:rows]) * rows
        for i in range(1, n_blocks):
            grafted = fp.blocks[i](f_lp[i - 1], False)
            sums[f"cos_g{i}"] += _cos_rows(grafted.data[:rows], f_fp[i].data[:rows]) * rows
        count += rows
    out.update({key: v / count for key, v in sums.items()})
    return out


# -- full-precision training oracle ----------------------------------------------


def train_fp_plain_ce(model, train_split, test_split, cfg, on_epoch=None):
    """The full-precision epoch loop as written before train_fp ran through
    graft.train_step: zero the gradients, cross-entropy, backward and one SGD
    step per batch, then an eval-mode top-1 count over the test split.
    Optimizer, schedule and batching come from bwrf."""
    from bwrf.data import iter_batches
    from bwrf.training import SGD, lr_at

    opt = SGD(model.param_groups(), lr=cfg.lr, momentum=cfg.momentum,
              weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for epoch in range(1, cfg.epochs + 1):
        opt.lr = lr_at(epoch - 1, cfg)
        model.train()
        losses, accs = [], []
        for images, labels in iter_batches(train_split, cfg.batch_size, rng,
                                           augment=cfg.augment):
            for _, p, _ in model.param_groups():
                p.grad = None
            logits = model(Tensor(images))
            loss = T.cross_entropy(logits, labels)
            loss.backward()
            opt.step()
            losses.append(loss.item())
            accs.append(float((logits.data.argmax(axis=1) == labels).mean() * 100.0))
        model.eval()
        hits = 0
        with T.no_grad():
            for images, labels in iter_batches(test_split, cfg.eval_batch_size):
                hits += int((model(Tensor(images)).data.argmax(axis=1) == labels).sum())
        row = {"epoch": epoch, "lr": opt.lr, "loss": float(np.mean(losses)),
               "train_acc": float(np.mean(accs)), "test_acc": 100.0 * hits / len(test_split)}
        rows.append(row)
        if on_epoch:
            on_epoch(row, model)
    return rows


# -- the kernels before they were tiled and trimmed, kept verbatim ----------------
#
# Each function below is the numpy body of a tensor/quantizer kernel as it
# stood with one pass over the whole batch per tap and no in-place reuse:
# the forward helper as it was, and the backward closure's body as a
# function of the upstream gradient. Tests require the current kernels to
# reproduce these outputs and gradients byte for byte.


def _taps_one_pass(kh, kw, stride, oh, ow):
    for ki in range(kh):
        for kj in range(kw):
            yield (ki, kj, slice(ki, ki + stride * (oh - 1) + 1, stride),
                   slice(kj, kj + stride * (ow - 1) + 1, stride))


def conv2d_one_pass(x, w, stride, padding, g):
    """(out, gx, gw) of the shifted-GEMM conv over the whole batch."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + wd, :] = x.transpose(0, 2, 3, 1)
    wt = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # (kh, kw, C, O)
    tap = np.empty((n, oh, ow, c), dtype=x.dtype)
    out = part = None
    for ki, kj, rows, cols in _taps_one_pass(kh, kw, stride, oh, ow):
        np.copyto(tap, xp[:, rows, cols, :])
        if out is None:
            out = tap.reshape(-1, c) @ wt[ki, kj]
        else:
            part = np.matmul(tap.reshape(-1, c), wt[ki, kj], out=part)
            out += part
    out = np.ascontiguousarray(out.reshape(n, oh, ow, o).transpose(0, 3, 1, 2))

    gout = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * oh * ow, o)
    gwt = np.empty((kh, kw, o, c), dtype=g.dtype)
    tap = np.empty((n, oh, ow, c), dtype=xp.dtype)
    for ki, kj, rows, cols in _taps_one_pass(kh, kw, stride, oh, ow):
        np.copyto(tap, xp[:, rows, cols, :])
        np.matmul(gout.T, tap.reshape(-1, c), out=gwt[ki, kj])
    gw = np.ascontiguousarray(gwt.transpose(2, 3, 0, 1))
    wk = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (kh, kw, O, C)
    gxp = np.zeros(xp.shape, dtype=g.dtype)
    part = np.empty((n * oh * ow, c), dtype=g.dtype)
    for ki, kj, rows, cols in _taps_one_pass(kh, kw, stride, oh, ow):
        np.matmul(gout, wk[ki, kj], out=part)
        gxp[:, rows, cols, :] += part.reshape(n, oh, ow, c)
    gx = np.ascontiguousarray(
        gxp[:, padding:padding + h, padding:padding + wd, :].transpose(0, 3, 1, 2))
    return out, gx, gw


def _round_half_away_copies(x):
    t = np.trunc(x)
    f = x - t
    return t + (f >= 0.5).astype(x.dtype) - (f <= -0.5).astype(x.dtype)


def quantize_keep_vs(v, s, qmin, qmax, grad_scale_enabled, g):
    """(out, gv, gs) of LSQ fake quantization with vs and rc kept for the backward."""
    s32 = np.float32(s)
    vs = v / s32
    rc = _round_half_away_copies(np.clip(vs, qmin, qmax))
    out_data = rc * s32
    qmin32, qmax32 = np.float32(qmin), np.float32(qmax)
    factor = (np.float32(1.0 / math.sqrt(vs.size * qmax))
              if grad_scale_enabled else None)

    gv = g * ((qmin < vs) & (vs < qmax))
    term = np.where(vs <= qmin, qmin32, np.where(vs >= qmax, qmax32, rc - vs))
    gs = (g * term).sum(dtype=np.float32)
    if factor is not None:
        gs = gs * factor
    return out_data, gv, np.full((1,), gs, dtype=np.float32)


def _round_half_away_in_place(x):
    t = np.trunc(x)
    f = x - t
    t += f >= 0.5
    t -= f <= -0.5
    return t


def quantize_bool_mask(v, s, qmin, qmax, grad_scale_enabled, g):
    """(out, gv, gs) of LSQ fake quantization that keeps a bool in-range mask
    and the term array for the backward, the kernel before it kept the code."""
    s32 = np.float32(s)
    vc = v / s32
    np.clip(vc, qmin, qmax, out=vc)
    rc = _round_half_away_in_place(vc)
    inside = (qmin < vc) & (vc < qmax)
    term = np.subtract(rc, np.multiply(vc, inside, out=vc), out=vc)
    out_data = np.multiply(rc, s32, out=rc)
    factor = (np.float32(1.0 / math.sqrt(v.size * qmax))
              if grad_scale_enabled else None)

    gv = g * inside
    gs = (g * term).sum(dtype=np.float32)
    if factor is not None:
        gs = gs * factor
    return out_data, gv, np.full((1,), gs, dtype=np.float32)


def batchnorm_np_var(x, gamma, beta, running_mean, running_var, training, g,
                      momentum=0.1, eps=1e-5):
    """(out, gx, ggamma, gbeta) of batchnorm2d with np.mean/np.var and fresh
    temporaries; mutates the running buffers in train mode."""
    if training:
        m = x.shape[0] * x.shape[2] * x.shape[3]
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]

    axes = (0, 2, 3)
    ggamma = (g * xhat).sum(axis=axes)
    gbeta = g.sum(axis=axes)
    dxhat = g * gamma[None, :, None, None]
    if training:
        m = np.float32(x.shape[0] * x.shape[2] * x.shape[3])
        gx = (inv[None, :, None, None] / m) * (
            m * dxhat
            - dxhat.sum(axis=axes)[None, :, None, None]
            - xhat * (dxhat * xhat).sum(axis=axes)[None, :, None, None])
    else:
        gx = dxhat * inv[None, :, None, None]
    return out, gx, ggamma, gbeta


def accumulate_zero_fill(t, g):
    """tensor._accumulate as it was: a first arrival is zero-filled, then added."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g
