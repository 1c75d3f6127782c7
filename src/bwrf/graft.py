"""Mixed-precision grafting and the composite training objective.

A graft k runs the frozen full-precision suffix (blocks k+1..n and the
head) on the low-precision prefix feature x_k, reusing the LP forward's
tensor node rather than recomputing it. The resulting branch logits feed a
composite loss: cross-entropy on every branch, plus distillation of each
branch toward the FP prediction and toward a running average of the
"stronger" branch predictions. Gradients from every branch flow back
through the shared LP prefix and accumulate.

The loss settings are fields of ``config.RunConfig``. alpha[k-1] weighs
every term of branch M_k; temperature is the distillation temperature;
mp_branches picks the grafts that run (None = all of 1..n-1, order and
repeats ignored). The four switches each add one term family:

- use_mp_targets: cross-entropy of each M_k against the labels
- use_fp_kd:      distillation of Q toward F
- use_mp_kd:      distillation of each M_k toward F
- use_avg_labels: distillation of Q toward the mean of F and every M_k, and
                  of each M_k toward the mean of F and M_1..M_{k-1}

With all four off the objective is plain cross-entropy on Q, the vanilla
QAT baseline, and no FP block runs.

Teacher-side logits in every distillation term are detached: mixed
branches share LP weights with their students, so an undetached teacher
would let students drag their own targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bwrf import tensor as T
from bwrf.tensor import Tensor


@dataclass
class GraftOutput:
    """One training forward: LP logits, mixed-branch logits, FP logits.

    y_m always has n-1 slots; entries for unrealized branches are None.
    y_f is detached (or None when no loss term consumes it).
    """

    y_q: Tensor
    y_m: list
    y_f: Tensor | None


def graft_forward(lp_features: list, fp_model, k: int) -> Tensor:
    """Logits of the mixed model {LP blocks 1..k, FP blocks k+1..n}.

    Consumes the LP feature node itself, so backward reaches the LP prefix
    through the frozen suffix.
    """
    n = fp_model.n_blocks
    if not 1 <= k <= n - 1:
        raise ValueError(f"graft index must be in 1..{n - 1}, got {k}")
    return fp_model.forward_from_block(lp_features[k - 1], k)


def bwrf_forward(lp, fp, x: Tensor, cfg) -> GraftOutput:
    """LP forward plus exactly the FP work cfg's enabled loss terms consume;
    with every term off that is none, and fp may be None.

    The teacher's forward ``fp(x)`` runs on ``tensor.fork``'s helper while
    the LP forward runs here, and is joined before the graft suffixes, which
    call the same FP blocks (``Block.calls`` is not thread-safe). It is joined
    even when the LP forward raises; an error of its own is raised as is.
    """
    n = lp.n_blocks
    teacher = T.fork(fp, x) if cfg.use_fp_kd or cfg.use_mp_kd or cfg.use_avg_labels else None
    try:
        lp_features, y_q = lp.forward_collect(x)
    finally:
        y_f = teacher().detach() if teacher else None
    y_m = [None] * (n - 1)
    if cfg.use_mp_targets or cfg.use_mp_kd or cfg.use_avg_labels:
        ks = range(1, n) if cfg.mp_branches is None else sorted(set(cfg.mp_branches))
        for k in ks:
            y_m[k - 1] = graft_forward(lp_features, fp, k)
    return GraftOutput(y_q=y_q, y_m=y_m, y_f=y_f)


def loss_target(y_q: Tensor, y_m: list, labels: np.ndarray, cfg) -> Tensor:
    """Cross-entropy of the LP branch, plus weighted mixed-branch terms."""
    loss = T.cross_entropy(y_q, labels)
    if cfg.use_mp_targets:
        for k, y in enumerate(y_m, start=1):
            if y is not None:
                loss = T.add(loss, T.cross_entropy(y, labels) * cfg.alpha[k - 1])
    return loss


def avg_soft_label(y_f: Tensor, y_m: list, k: int) -> Tensor:
    """Mean of the FP logits and the first k mixed-branch logits, detached.

    k = 0 yields the FP logits alone. Unrealized branches among 1..k are
    skipped and the divisor shrinks accordingly.
    """
    if y_f is None:
        raise ValueError("averaged soft labels need FP logits")
    if not 0 <= k <= len(y_m):
        raise ValueError(f"avg_soft_label index {k} out of range 0..{len(y_m)}")
    total = y_f.detach()
    count = 1
    for j in range(k):
        if y_m[j] is not None:
            total = T.add(total, y_m[j].detach())
            count += 1
    return total * (1.0 / count) if count > 1 else total


def kd_loss(student: Tensor, teacher: Tensor, temperature: float = 1.0) -> Tensor:
    """Soft-label distillation: T^2 * batch-mean KL(teacher_probs || student_probs)
    at temperature T. The teacher side is detached here regardless of caller.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    inv_t = 1.0 / temperature
    n = student.shape[0]
    ls = T.log_softmax(student * inv_t)
    # Teacher probabilities go through the same log-softmax kernel on plain
    # arrays, so identical logits produce an exactly-zero loss.
    lt = T._log_softmax_forward(teacher.data * np.float32(inv_t))
    pt = np.exp(lt)
    const = float((pt * lt).sum(dtype=np.float32))
    cross = T.mul(ls, Tensor(pt)).sum()
    scale = temperature * temperature / n
    return (const - cross) * scale


def loss_distill(g: GraftOutput, cfg) -> Tensor:
    """Distillation sum over the LP branch and every realized mixed branch.

    The LP branch learns from the FP logits and from the average over all
    branches; mixed branch k learns from the FP logits and from the average
    over branches before it. Disabled toggles drop their term family; with
    everything off this is the constant 0.
    """
    n = len(g.y_m) + 1
    temp = cfg.temperature
    terms = []
    if cfg.use_fp_kd and g.y_f is not None:
        terms.append(kd_loss(g.y_q, g.y_f, temp))
    if cfg.use_avg_labels and g.y_f is not None:
        terms.append(kd_loss(g.y_q, avg_soft_label(g.y_f, g.y_m, n - 1), temp))
    for k in range(1, n):
        y = g.y_m[k - 1]
        if y is None:
            continue
        branch = []
        if cfg.use_mp_kd and g.y_f is not None:
            branch.append(kd_loss(y, g.y_f, temp))
        if cfg.use_avg_labels and g.y_f is not None:
            branch.append(kd_loss(y, avg_soft_label(g.y_f, g.y_m, k - 1), temp))
        if branch:
            summed = branch[0] if len(branch) == 1 else T.add(branch[0], branch[1])
            terms.append(summed * cfg.alpha[k - 1])
    if not terms:
        return Tensor(np.float32(0.0))
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return total


def total_loss(g: GraftOutput, labels: np.ndarray, cfg):
    """(total, target, distill) scalars; total = target + distill, unweighted."""
    lt = loss_target(g.y_q, g.y_m, labels, cfg)
    ld = loss_distill(g, cfg)
    return T.add(lt, ld), lt, ld


def hit_counts(logits: np.ndarray, labels: np.ndarray) -> tuple:
    """(top-1, top-5) hit counts of one batch, as Python ints."""
    k = min(5, logits.shape[1])
    top = np.argpartition(-logits, k - 1, axis=1)[:, :k]
    return (int((logits.argmax(axis=1) == labels).sum()),
            int((top == labels[:, None]).any(axis=1).sum()))


def train_step(lp, fp, batch, cfg, optimizer) -> dict:
    """One full training step on the LP model.

    Forward all branches, build the composite loss, backpropagate through
    the shared LP prefix, and apply the optimizer. The FP model only ever
    runs in eval mode with frozen parameters.
    """
    images, labels = batch
    if len(labels) == 0:
        raise ValueError("empty batch")
    for _, p, _ in lp.param_groups():
        p.grad = None
    g = bwrf_forward(lp, fp, Tensor(images), cfg)
    loss, lt, ld = total_loss(g, labels, cfg)
    loss.backward()
    optimizer.step()
    return {
        "loss_total": loss.item(),
        "loss_target": lt.item(),
        "loss_distill": ld.item(),
        "train_acc_Q": hit_counts(g.y_q.data, labels)[0] / len(labels) * 100.0,
    }
