"""Spans around the public functions of each bwrf module, kept in memory.

Nothing under src/ is edited: the tracer replaces module and class
attributes at the place their callers look them up (for example
`bwrf.tensor.conv2d`, which `bwrf.quantizer` reaches as `T.conv2d`, or
`bwrf.training.train_step`, a global of the epoch loop). Op backward times
come from wrapping the `grad_fn` handed to `custom_op`, which every tensor
op and the quantizer use.

A span is (name, start, end, parent, phase). The phase is the enclosing
train_step ("train"), evaluate_branches ("eval") or cosine_similarities
("cos"), and "other" outside them. The first train_step of a process
calibrates the lazy activation scales and allocates the momentum buffers,
so it gets a phase of its own ("warmup") and stays out of the per-step
figures. Spans stay in a list until `write`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

ELEMENTWISE_OPS = ("add", "mul", "relu", "affine")
HEAD_OPS = ("linear", "global_avg_pool", "log_softmax", "nll_loss", "sum", "mean")

# Families whose spans partition a train step's leaf work; the rest of the
# step is Python glue in network, graft and training.
LEAF_PREFIXES = ("tensor.conv2d.", "tensor.batchnorm2d.", "tensor.elementwise.",
                 "tensor.head.", "quantizer.quantize.", "training.sgd_step")


def op_family(op: str) -> str:
    if op in ELEMENTWISE_OPS:
        return "tensor.elementwise"
    if op in HEAD_OPS:
        return "tensor.head"
    return f"tensor.{op}"


def conv_cost(x_shape, w_shape, out_shape) -> tuple:
    """(forward FLOPs, forward operand+result bytes) of one float32 conv2d."""
    n, c, h, wd = x_shape
    o, _, kh, kw = w_shape
    _, _, oh, ow = out_shape
    x_elems, w_elems, out_elems = n * c * h * wd, o * c * kh * kw, n * o * oh * ow
    return 2 * out_elems * c * kh * kw, 4 * (x_elems + w_elems + out_elems)


class Tracer:
    """Records spans and exact counts once installed, for the rest of the process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.phase = "other"
        self._open = []

    # -- recording ----------------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def count(self, key: str, n=1):
        self.counts[f"{self.phase}/{key}"] += n

    def timed(self, fn, name, phase=None):
        """Wrap fn in a span; name is a string or a function of the call's args.
        With a phase, the span and everything under it are recorded in it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = self.phase
            if phase:
                self.phase = phase
            idx = self.begin(name if isinstance(name, str) else name(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                self.phase = saved

        return wrapper

    @staticmethod
    def patch(owner, attr: str, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    # -- installation -----------------------------------------------------------------

    def install(self):
        from bwrf import cli, graft, network, quantizer, tensor, training

        for op in ("batchnorm2d", "linear", "global_avg_pool", "log_softmax", "nll_loss",
                   "relu", "add", "mul"):
            self.patch(tensor, op, lambda f, op=op: self.timed(f, f"{op_family(op)}.fwd"))
        self.patch(tensor, "_scalar_affine",
                   lambda f: self.timed(f, "tensor.elementwise.fwd"))
        self.patch(tensor, "conv2d", lambda f: self.timed(
            f, lambda a: f"tensor.conv2d.fwd.c{a[1].shape[0]}"))
        for meth in ("sum", "mean"):
            self.patch(tensor.Tensor, meth, lambda f: self.timed(f, "tensor.head.fwd"))
        self.patch(tensor.Tensor, "backward", lambda f: self.timed(f, "tensor.backward"))
        self.patch(tensor, "_reverse_topo", self._counting_topo)
        self.patch(tensor, "custom_op", self._timed_custom_op)

        self.patch(quantizer, "quantize_forward",
                   lambda f: self.timed(f, "quantizer.quantize.fwd"))
        self.patch(quantizer, "custom_op", lambda f: self._timed_grad(f, "quantizer.quantize.bwd"))

        model = network.BlockModel
        side = lambda a: "network.fp_forward" if a[0].bits is None else "network.lp_forward"
        self.patch(model, "forward_collect", lambda f: self.timed(f, side))
        self.patch(model, "forward_from_block", lambda f: self.timed(f, side))
        self.patch(model, "checksum", lambda f: self.timed(f, "training.fp_audit"))

        for fn, name in (("graft_forward", "graft.graft_forward"),
                         ("total_loss", "graft.loss")):
            self.patch(graft, fn, lambda f, name=name: self.timed(f, name))

        self.patch(training, "train_step", self._timed_step)
        self.patch(training, "evaluate_branches", self._timed_eval)
        self.patch(training, "cosine_similarities", self._timed_cos)
        self.patch(training.SGD, "step", lambda f: self.timed(f, "training.sgd_step"))
        self.patch(training, "iter_batches", self._timed_batches)

        self.patch(cli, "load_splits", lambda f: self.timed(f, "data.load"))
        self.patch(cli, "save_model", lambda f: self.timed(f, "checkpoint.save"))
        self.patch(cli, "load_into_model", lambda f: self.timed(f, "checkpoint.load"))

    # -- wrappers that also count ---------------------------------------------------------

    def _counting_topo(self, orig):
        @functools.wraps(orig)
        def _reverse_topo(root):
            order = orig(root)
            self.count("tape_nodes", len(order))
            return order
        return _reverse_topo

    def _timed_grad_fn(self, name, grad_fn, before=None):
        def timed_grad_fn(g):
            if before is not None:
                before(g)
            idx = self.begin(name)
            try:
                return grad_fn(g)
            finally:
                self.end(idx)
        return timed_grad_fn

    def _timed_grad(self, orig, name):
        @functools.wraps(orig)
        def custom_op(op, out_data, inputs, grad_fn):
            return orig(op, out_data, inputs, self._timed_grad_fn(name, grad_fn))
        return custom_op

    def _timed_custom_op(self, orig):
        @functools.wraps(orig)
        def custom_op(op, out_data, inputs, grad_fn):
            if op != "conv2d":
                return orig(op, out_data, inputs,
                            self._timed_grad_fn(f"{op_family(op)}.bwd", grad_fn))
            x, w = inputs[0], inputs[1]
            stage = f"c{w.shape[0]}"
            flop, nbytes = conv_cost(x.shape, w.shape, out_data.shape)
            self.count(f"conv.calls.{stage}")
            self.count(f"conv.flop.{stage}", flop)
            self.count(f"conv.bytes.{stage}", nbytes)

            def count_backward(g):
                # the input and the weight gradient are each one GEMM the size of
                # the forward; each reads the upstream gradient and one operand
                # and writes its result
                grads = int(x.requires_grad) + int(w.requires_grad)
                self.count(f"conv.flop.{stage}", grads * flop)
                self.count(f"conv.bytes.{stage}", grads * 4 * (g.size + x.size + w.size))

            return orig(op, out_data, inputs, self._timed_grad_fn(
                f"tensor.conv2d.bwd.{stage}", grad_fn, count_backward))
        return custom_op

    def _timed_step(self, orig):
        warmup = self.timed(orig, "training.train_step", "warmup")
        wrapped = self.timed(orig, "training.train_step", "train")

        @functools.wraps(orig)
        def train_step(lp, fp, batch, w, optimizer):
            if not self.counts["warmup/steps"]:
                self.counts["warmup/steps"] += 1
                return warmup(lp, fp, batch, w, optimizer)
            calls = lp.block_call_count() + fp.block_call_count()
            out = wrapped(lp, fp, batch, w, optimizer)
            self.counts["train/steps"] += 1
            self.counts["train/block_calls"] += (
                lp.block_call_count() + fp.block_call_count() - calls)
            return out
        return train_step

    def _timed_eval(self, orig):
        wrapped = self.timed(orig, "training.evaluate_branches", "eval")

        @functools.wraps(orig)
        def evaluate_branches(lp, fp, split, *args, **kwargs):
            self.counts["eval/images"] += len(split)
            return wrapped(lp, fp, split, *args, **kwargs)
        return evaluate_branches

    def _timed_cos(self, orig):
        wrapped = self.timed(orig, "training.cosine_similarities", "cos")

        @functools.wraps(orig)
        def cosine_similarities(lp, fp, split, n_samples=1024, *args, **kwargs):
            self.counts["cos/images"] += min(n_samples, len(split))
            return wrapped(lp, fp, split, n_samples, *args, **kwargs)
        return cosine_similarities

    def _timed_batches(self, orig):
        @functools.wraps(orig)
        def iter_batches(split, batch_size, rng=None, augment=False):
            it = orig(split, batch_size, rng, augment)
            while True:
                idx = self.begin("data.batch")
                try:
                    batch = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                yield batch
        return iter_batches

    # -- results ----------------------------------------------------------------------

    def summary(self) -> dict:
        """Inclusive seconds and span counts per phase/name, the tape walk's self
        time, the leaf time inside train steps, the exact counts, the span total."""
        seconds = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            seconds[f"{phase}/{name}"] += end - start
            calls[f"{phase}/{name}"] += 1
            if name == "tensor.backward":
                seconds[f"{phase}/tensor.backward.self"] += end - start - child[i]
        leaf = sum(v for k, v in seconds.items()
                   if k.startswith("train/") and k[6:].startswith(LEAF_PREFIXES))
        seconds["train/leaf"] = leaf + seconds.get("train/tensor.backward.self", 0.0)
        return {"seconds": dict(seconds), "calls": dict(calls), "counts": dict(self.counts),
                "spans": len(self.spans)}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": self.spans}, fh)
