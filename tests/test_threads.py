"""The helper thread of bwrf.tensor: the teacher's forward and the conv
weight gradients it runs change no byte, every pending gradient is resolved
by the end of backward, which frees what each rule kept as it goes and owns
every gradient it hands on, errors surface with their own type, and a fork
on the helper runs inline.

Forcing the inline path monkeypatches ``tensor._helper`` to report no helper,
which is what a one-CPU process gets.
"""

import ctypes
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from bwrf import tensor as T
from bwrf.cli import entry
from bwrf.config import RunConfig, loss_switches_off
from bwrf.graft import bwrf_forward, total_loss, train_step
from bwrf.network import BlockSpec, build_model, init_lp_from_fp
from bwrf.quantizer import Quantizer, quantize_forward
from bwrf.synthetic import write_synthetic_idx
from bwrf.tensor import Tensor
from bwrf.training import SGD
from rules import rule_arrays

SPEC = BlockSpec(units_per_block=1, in_channels=3, num_classes=10)


def force_inline(monkeypatch):
    monkeypatch.setattr(T, "_helper", lambda: None)


def weight_grad_threads(monkeypatch):
    """The names of the threads that run each conv weight gradient, in order."""
    names, orig = [], T._conv2d_weight_grad

    def recorded(*args):
        names.append(threading.current_thread().name)
        return orig(*args)

    monkeypatch.setattr(T, "_conv2d_weight_grad", recorded)
    return names


def assert_all_resolved(root):
    """Every reachable leaf that takes a gradient holds a plain array; every
    node with a backward rule has dropped its gradient, pending or not."""
    for node in T._reverse_topo(root):
        if node._grad_fn is not None:
            assert node.grad is None, f"{node!r} kept {type(node.grad)}"
        elif node.requires_grad:
            assert type(node.grad) is np.ndarray, f"{node!r} holds {type(node.grad)}"


def test_the_helper_exists_exactly_when_a_second_cpu_is_allowed():
    assert (T._helper() is None) == (len(os.sched_getaffinity(0)) < 2)


# -- byte identity -------------------------------------------------------------------


def run_commands(root, data_dir):
    """train-fp, then train-bwrf (cos_every = 1), train-baseline and
    analyze-similarity on its teacher; the bytes of every output they write."""
    cfg = root / "run.cfg"
    cfg.write_text(f"""
arch = resnet8
data_format = idx
data_dir = {data_dir}
epochs = 2
milestones = 1
lr = 0.05
batch_size = 32
eval_batch_size = 24
cos_samples = 40
seed = 3
augment = true
output_dir = {root}/fp
""")
    common = ["--config", str(cfg), "--set", f"fp_checkpoint={root}/fp/fp.ckpt", "--set", "bits=4"]
    assert entry(["train-fp", "--config", str(cfg)]) == 0
    assert entry(["train-bwrf", *common, "--set", "cos_every=1",
                  "--set", f"output_dir={root}/bwrf"]) == 0
    assert entry(["train-baseline", *common, "--set", f"output_dir={root}/base"]) == 0
    assert entry(["analyze-similarity", *common, "--set", f"checkpoint={root}/bwrf/lp.ckpt",
                  "--set", f"output_dir={root}/sim"]) == 0
    names = ["fp/fp.ckpt", "fp/train_log.csv", "bwrf/lp.ckpt", "bwrf/train_log.csv",
             "base/lp.ckpt", "base/train_log.csv", "sim/similarity.csv"]
    return {name: (root / name).read_bytes() for name in names}


def test_the_helper_changes_no_byte_of_a_run(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    write_synthetic_idx(str(data_dir), n_train=128, n_test=48, hw=16, seed=2)
    (tmp_path / "helper").mkdir()
    (tmp_path / "inline").mkdir()
    threads = weight_grad_threads(monkeypatch)
    with_helper = run_commands(tmp_path / "helper", data_dir)
    if T._helper() is not None:
        assert any(name.startswith(T.HELPER) for name in threads), \
            "no weight gradient ran on the helper"
    threads.clear()
    force_inline(monkeypatch)
    inline = run_commands(tmp_path / "inline", data_dir)
    assert set(threads) == {"MainThread"}
    for name in with_helper:
        assert with_helper[name] == inline[name], f"{name} differs with the helper"


def grafted_loss():
    """A fresh seeded LP model and the loss of one grafted step, not walked."""
    fp = build_model(SPEC, "fp", seed=5).freeze()
    lp = build_model(SPEC, "lp", bits=4, seed=6)
    init_lp_from_fp(lp, fp)
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((5, 3, 8, 8)).astype(np.float32))
    labels = rng.integers(0, 10, size=5)
    cfg = RunConfig()
    bwrf_forward(lp, fp, x, cfg)  # settle lazy activation-scale calibration
    return lp, total_loss(bwrf_forward(lp, fp, x, cfg), labels, cfg)[0]


def lp_step(monkeypatch, inline):
    """Gradients and loss node of one grafted step on a fresh seeded pair."""
    if inline:
        force_inline(monkeypatch)
    lp, loss = grafted_loss()
    loss.backward()
    monkeypatch.undo()
    return {name: p.grad for name, p, _ in lp.param_groups()}, loss


def test_a_grafted_step_resolves_every_gradient_to_the_same_bytes(monkeypatch):
    # thread switches every microsecond, so the two threads interleave finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        grads, loss = lp_step(monkeypatch, inline=False)
    finally:
        sys.setswitchinterval(interval)
    assert_all_resolved(loss)
    ref, _ = lp_step(monkeypatch, inline=True)
    assert grads.keys() == ref.keys()
    for name in grads:
        assert grads[name].tobytes() == ref[name].tobytes(), name


def conv_graphs(rng):
    """(name, build) pairs; build() returns (loss, trainable leaves)."""
    x = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
    w = (rng.standard_normal((5, 3, 3, 3)) * 0.3).astype(np.float32)
    w2 = (rng.standard_normal((5, 5, 3, 3)) * 0.3).astype(np.float32)

    def leaf_weight():
        # an unquantized weight leaf fed straight into conv2d
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        return T.conv2d(T.relu(xt), wt, padding=1).sum(), [xt, wt]

    def shared_leaf():
        # one weight leaf in two convs: its second arrival resolves the first
        xt, wt = Tensor(x, requires_grad=True), Tensor(w2, requires_grad=True)
        h = T.conv2d(T.relu(xt), Tensor(w), padding=1)
        out = T.conv2d(T.conv2d(h, wt, padding=1), wt, stride=2, padding=1)
        return out.mean(), [xt, wt]

    def shared_node():
        # one weight node with a backward rule in two convs
        xt, wt = Tensor(x, requires_grad=True), Tensor(w2, requires_grad=True)
        wn = wt * 0.5
        h = T.conv2d(T.relu(xt), Tensor(w), padding=1)
        out = T.add(T.conv2d(h, wn, padding=1), T.relu(T.conv2d(h, wn, padding=1)))
        return out.sum(), [xt, wt]

    return [("leaf_weight", leaf_weight), ("shared_leaf", shared_leaf),
            ("shared_node", shared_node)]


@pytest.mark.parametrize("case", ["leaf_weight", "shared_leaf", "shared_node"])
def test_backward_leaves_no_pending_gradient(monkeypatch, case):
    grads = []
    for inline in (False, True):
        if inline:
            force_inline(monkeypatch)
        build = dict(conv_graphs(np.random.default_rng(11)))[case]
        loss, leaves = build()
        loss.backward()
        assert_all_resolved(loss)
        grads.append([t.grad.tobytes() for t in leaves])
    assert grads[0] == grads[1]


def test_a_backward_with_an_upstream_gradient_resolves_the_weight_gradient(monkeypatch):
    """A leaf weight's gradient could not wait for the walk, so it runs inline."""
    threads = weight_grad_threads(monkeypatch)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
    w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
    g = rng.standard_normal((4, 5, 6, 6)).astype(np.float32)
    grads = []
    for inline in (False, True):
        if inline:
            force_inline(monkeypatch)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        T.conv2d(xt, wt, padding=1).backward(g)
        assert type(xt.grad) is np.ndarray and type(wt.grad) is np.ndarray
        grads.append((xt.grad.tobytes(), wt.grad.tobytes()))
    assert grads[0] == grads[1]
    assert threads == ["MainThread", "MainThread"]


def test_a_backward_with_an_upstream_gradient_resolves_a_pending_weight_gradient(monkeypatch):
    """A quantized weight holds its gradient pending until the walk visits
    it: out.backward(g) resolves it, to the bytes of a scalar loss whose
    gradient at out is g, with the helper and inline."""
    helper = T._helper() is not None
    threads = weight_grad_threads(monkeypatch)
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 2, (4, 3, 6, 6)).astype(np.float32)
    w = (rng.standard_normal((5, 3, 3, 3)) * 0.3).astype(np.float32)
    g = rng.standard_normal((4, 5, 6, 6)).astype(np.float32)
    grads = {}
    for inline in (False, True):
        if inline:
            force_inline(monkeypatch)
        for seeded in (True, False):
            aq, wq = Quantizer(4, signed=False), Quantizer(4, signed=True)
            aq.set_scale(0.2)
            wq.set_scale(0.1)
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            out = T.conv2d(quantize_forward(xt, aq), quantize_forward(wt, wq), padding=1)
            root = out if seeded else T.mul(out, Tensor(g)).sum()
            root.backward(g if seeded else None)
            assert_all_resolved(root)
            grads[inline, seeded] = [t.grad.tobytes() for t in (xt, wt, aq.scale, wq.scale)]
    assert all(run == grads[True, False] for run in grads.values())
    assert [name.startswith(T.HELPER) for name in threads] == [helper, helper, False, False]


# -- the walk frees the tape ------------------------------------------------------------


@pytest.mark.parametrize("inline", [False, True], ids=["helper", "inline"])
def test_a_second_walk_over_a_freed_tape_raises(monkeypatch, inline):
    grads, loss = lp_step(monkeypatch, inline)
    walked = {name: g.tobytes() for name, g in grads.items()}
    if inline:
        force_inline(monkeypatch)
    with pytest.raises(RuntimeError, match="freed by an earlier walk"):
        loss.backward()
    assert {name: g.tobytes() for name, g in grads.items()} == walked


def quantized_chain(rng):
    """A quantized conv whose weight gradient is a pending join, a train-mode
    batchnorm and a relu: the loss, and weak references to what the rules
    keep, by name. No Tensor but the loss and the leaves outlives the call."""
    aq, wq = Quantizer(4, signed=False), Quantizer(4, signed=True)
    aq.set_scale(0.2)
    wq.set_scale(0.1)
    x = Tensor(rng.uniform(0, 2, (4, 3, 6, 6)).astype(np.float32), requires_grad=True)
    w = Tensor((rng.standard_normal((5, 3, 3, 3)) * 0.3).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(5, np.float32), requires_grad=True)
    beta = Tensor(np.zeros(5, np.float32), requires_grad=True)
    xq, wqt = quantize_forward(x, aq), quantize_forward(w, wq)
    h = T.conv2d(xq, wqt, padding=1)
    b = T.batchnorm2d(h, gamma, beta, np.zeros(5, np.float32), np.ones(5, np.float32),
                      training=True)
    out = T.relu(b)
    assert any(a is h.data for a in rule_arrays(b))
    kept = {"batchnorm input": h.data, "relu bits": rule_arrays(out)[0]}
    for name, q in (("input", xq), ("weight", wqt)):
        kept[f"{name} code"] = q.node.compact[0]
        kept[f"{name} term"] = next(a for a in rule_arrays(q) if a.dtype == np.float32)
    loss = T.mul(out, Tensor(rng.standard_normal(out.shape).astype(np.float32))).sum()
    return loss, {name: weakref.ref(a) for name, a in kept.items()}


@pytest.mark.parametrize("inline", [False, True], ids=["helper", "inline"])
def test_a_walk_frees_what_each_rule_kept_while_the_root_is_held(monkeypatch, inline):
    """The batchnorm's input and the relu's bits are gone by the time the
    conv's weight gradient runs; the quantizes' codes and terms by the end
    of the walk, the loss still held."""
    if inline:
        force_inline(monkeypatch)
    alive, orig = [], T._conv2d_weight_grad

    def recorded(*args):
        alive.append((threading.current_thread().name,
                      sorted(name for name, ref in refs.items() if ref() is not None)))
        return orig(*args)

    monkeypatch.setattr(T, "_conv2d_weight_grad", recorded)
    loss, refs = quantized_chain(np.random.default_rng(15))
    assert all(ref() is not None for ref in refs.values())
    loss.backward()
    assert [name for name, ref in refs.items() if ref() is not None] == []
    (thread, names), = alive
    assert thread.startswith(T.HELPER) == (T._helper() is not None)
    assert "batchnorm input" not in names and "relu bits" not in names


# -- the walk owns every gradient -------------------------------------------------------


def owned_arrivals(monkeypatch, seed):
    """Hook ``_accumulate``: each arrival not pending is a float32 ndarray
    sharing no memory with ``seed`` or with the gradient any node holds,
    its own included. Returns the list of arrivals, pending ones as joins."""
    arrivals, holders, accumulate = [], {}, T._accumulate

    def checked(node, g):
        if g is None:  # no arrival
            return accumulate(node, g)
        if not callable(g):
            assert type(g) is np.ndarray and g.dtype == np.float32, f"{node!r} got {type(g)}"
            assert seed is None or not np.shares_memory(g, seed), f"{node!r} got the seed"
            for other in holders.values():
                held = other.grad
                assert not (type(held) is np.ndarray and np.shares_memory(g, held)), \
                    f"{node!r} got an array {other!r} holds"
        arrivals.append(g)
        accumulate(node, g)
        holders[id(node)] = node

    monkeypatch.setattr(T, "_accumulate", checked)
    return arrivals


def assert_leaf_grads(model):
    for name, p, _ in model.param_groups():
        assert type(p.grad) is np.ndarray and p.grad.dtype == np.float32, name
        assert p.grad.shape == p.data.shape, name


def test_a_grafted_walk_owns_every_arrival(monkeypatch):
    """The loss is an add, whose rule hands its gradient, the copy of the
    caller's seed, to one parent and a copy to the other."""
    lp, loss = grafted_loss()
    seed = np.ones(loss.shape, np.float32)
    arrivals = owned_arrivals(monkeypatch, seed)
    loss.backward(seed)
    assert (seed == 1).all() and len(arrivals) > 100
    assert all(type(g() if callable(g) else g) is np.ndarray for g in arrivals)
    assert_leaf_grads(lp)


def test_a_train_fp_walk_owns_every_arrival(monkeypatch):
    model = build_model(SPEC, "fp", seed=5)
    rng = np.random.default_rng(9)
    batch = (rng.standard_normal((5, 3, 8, 8)).astype(np.float32), rng.integers(0, 10, size=5))
    arrivals = owned_arrivals(monkeypatch, None)
    train_step(model, None, batch, loss_switches_off(RunConfig()),
               SGD(model.param_groups(), lr=0.1))
    assert len(arrivals) > 30
    assert_leaf_grads(model)


# -- failure and nesting ---------------------------------------------------------------


def test_a_teacher_error_surfaces_from_bwrf_forward_with_its_own_type():
    fp = build_model(BlockSpec(units_per_block=1, in_channels=4), "fp").freeze()
    lp = build_model(SPEC, "lp", bits=4, seed=1)
    x = Tensor(np.zeros((2, 3, 8, 8), np.float32))
    with pytest.raises(ValueError, match="input has 3 channels but weight expects 4"):
        bwrf_forward(lp, fp, x, RunConfig())


def test_an_lp_error_leaves_no_job_on_the_helper():
    lp = build_model(BlockSpec(units_per_block=1, in_channels=4), "lp", bits=4)
    finished = []

    def teacher(x):
        time.sleep(0.2)
        finished.append(threading.current_thread().name)
        return x

    x = Tensor(np.zeros((2, 3, 8, 8), np.float32))
    with pytest.raises(ValueError, match="input has 3 channels but weight expects 4"):
        bwrf_forward(lp, teacher, x, RunConfig())
    assert finished, "bwrf_forward returned before the teacher's job ended"


def test_a_fork_on_the_helper_runs_inline():
    def outer():
        return threading.current_thread(), T.fork(threading.current_thread)()

    # forked from a thread of its own, so a deadlock fails the test, not the run
    box = []
    caller = threading.Thread(target=lambda: box.append(T.fork(outer)()), daemon=True)
    caller.start()
    caller.join(30)
    assert not caller.is_alive(), "a fork on the helper waited on itself"
    ran_on, nested_on = box[0]
    assert nested_on is ran_on
    assert ran_on.name.startswith(T.HELPER) == (T._helper() is not None)


def test_the_lp_forward_records_its_tape_while_the_teacher_runs():
    if T._helper() is None:
        pytest.skip("one CPU: the teacher runs inline, before the LP forward")
    fp = build_model(SPEC, "fp", seed=2).freeze()
    lp = build_model(SPEC, "lp", bits=4, seed=3)
    init_lp_from_fp(lp, fp)
    started, released, seen = threading.Event(), threading.Event(), {}

    def teacher(x):
        started.set()
        seen["released"] = released.wait(30)
        seen["thread"] = threading.current_thread().name
        return fp(x)

    def lp_forward(x):
        seen["started"] = started.wait(30)
        try:
            return type(lp).forward_collect(lp, x)
        finally:
            released.set()

    lp.forward_collect = lp_forward
    teacher.n_blocks = fp.n_blocks
    teacher.forward_from_block = fp.forward_from_block
    g = bwrf_forward(lp, teacher, Tensor(np.ones((2, 3, 8, 8), np.float32)), RunConfig())
    assert seen["started"] and seen["released"], "the two forwards did not overlap"
    assert seen["thread"].startswith(T.HELPER)
    assert g.y_q.requires_grad and not g.y_f.requires_grad
    assert all(y.requires_grad for y in g.y_m)


# -- one malloc arena ----------------------------------------------------------------

ARENA_PROBE = """
import resource
import numpy as np
from bwrf import tensor as T

PIECE, COUNT = 1 << 14, 1024  # 64 MiB in 64 KiB buffers, under glibc's mmap threshold

def pinned():
    buffers, small = [], []
    for _ in range(COUNT):
        buffers.append(np.ones(PIECE, np.float32))
        small.append(np.ones(8))
    return small

small = T.fork(pinned)()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
again = [np.ones(PIECE, np.float32) for _ in range(COUNT)]
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_the_main_thread_reuses_what_a_forked_job_freed():
    """A forked job frees 64 MiB of buffers, each pinned by a small array
    that stays alive; the main thread then allocates as much. On an arena of
    its own, the helper's freed buffers would stay resident beside the main
    thread's new ones, and the peak would grow by all of it."""
    if T._helper() is None:
        pytest.skip("one CPU: no helper thread")
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("the C library has no mallopt")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", ARENA_PROBE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown_kib = int(proc.stdout)
    assert grown_kib < 32 * 1024, f"peak RSS grew {grown_kib} KiB for a 64 MiB allocation"
