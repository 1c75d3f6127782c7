"""Mixed-precision grafting and the composite training objective.

A graft k runs the frozen full-precision suffix (blocks k+1..n and the
head) on the low-precision prefix feature x_k, reusing the LP forward's
tensor node rather than recomputing it. The resulting branch logits feed a
composite loss: cross-entropy on every branch, plus distillation of each
branch toward the FP prediction and toward a running average of the
"stronger" branch predictions. Gradients from every branch flow back
through the shared LP prefix and accumulate.

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
class LossWeights:
    """Per-branch weights, distillation temperature, and loss-term toggles.

    alpha balances each mixed branch's contribution in both the target and
    distillation sums (one shared weight per branch). The toggles drop
    whole term families for ablations:

    - use_mp_targets: cross-entropy of mixed-branch logits against labels
    - use_fp_kd:      distillation of the LP output toward the FP output
    - use_mp_kd:      distillation of mixed branches toward the FP output
    - use_avg_labels: distillation toward averaged-ensemble soft labels

    With all four off the objective reduces to plain cross-entropy on the
    LP output, i.e. the vanilla QAT baseline. mp_branches selects which
    graft points are realized at all (None = all of 1..n-1).
    """

    alpha: tuple = (1.0, 1.0)
    temperature: float = 1.0
    use_mp_targets: bool = True
    use_fp_kd: bool = True
    use_mp_kd: bool = True
    use_avg_labels: bool = True
    mp_branches: tuple | None = None

    def __post_init__(self):
        self.alpha = tuple(float(a) for a in self.alpha)
        if any(a < 0 for a in self.alpha):
            raise ValueError(f"alpha weights must be non-negative, got {self.alpha}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.mp_branches is not None:
            self.mp_branches = tuple(sorted(int(k) for k in set(self.mp_branches)))

    def branches(self, n_blocks: int) -> tuple:
        """The realized graft indices k, each in 1..n-1."""
        ks = self.mp_branches if self.mp_branches is not None else range(1, n_blocks)
        out = tuple(k for k in ks)
        for k in out:
            if not 1 <= k <= n_blocks - 1:
                raise ValueError(f"graft index {k} out of range 1..{n_blocks - 1}")
        return out

    def any_distill(self) -> bool:
        return self.use_fp_kd or self.use_mp_kd or self.use_avg_labels

    def needs_grafts(self) -> bool:
        return self.use_mp_targets or self.use_mp_kd or self.use_avg_labels


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


def bwrf_forward(lp, fp, x: Tensor, w: LossWeights) -> GraftOutput:
    """LP forward plus exactly the FP work the enabled loss terms consume;
    with every term off that is none, and fp may be None."""
    n = lp.n_blocks
    lp_features, y_q = lp.forward_collect(x)
    y_f = fp(x).detach() if w.any_distill() else None
    y_m = [None] * (n - 1)
    if w.needs_grafts():
        for k in w.branches(n):
            y_m[k - 1] = graft_forward(lp_features, fp, k)
    return GraftOutput(y_q=y_q, y_m=y_m, y_f=y_f)


def loss_target(y_q: Tensor, y_m: list, labels: np.ndarray, w: LossWeights) -> Tensor:
    """Cross-entropy of the LP branch, plus weighted mixed-branch terms."""
    loss = T.cross_entropy(y_q, labels)
    if w.use_mp_targets:
        for k, y in enumerate(y_m, start=1):
            if y is not None:
                loss = T.add(loss, T.cross_entropy(y, labels) * w.alpha[k - 1])
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


def loss_distill(g: GraftOutput, w: LossWeights) -> Tensor:
    """Distillation sum over the LP branch and every realized mixed branch.

    The LP branch learns from the FP logits and from the average over all
    branches; mixed branch k learns from the FP logits and from the average
    over branches before it. Disabled toggles drop their term family; with
    everything off this is the constant 0.
    """
    n = len(g.y_m) + 1
    temp = w.temperature
    terms = []
    if w.use_fp_kd and g.y_f is not None:
        terms.append(kd_loss(g.y_q, g.y_f, temp))
    if w.use_avg_labels and g.y_f is not None:
        terms.append(kd_loss(g.y_q, avg_soft_label(g.y_f, g.y_m, n - 1), temp))
    for k in range(1, n):
        y = g.y_m[k - 1]
        if y is None:
            continue
        branch = []
        if w.use_mp_kd and g.y_f is not None:
            branch.append(kd_loss(y, g.y_f, temp))
        if w.use_avg_labels and g.y_f is not None:
            branch.append(kd_loss(y, avg_soft_label(g.y_f, g.y_m, k - 1), temp))
        if branch:
            summed = branch[0] if len(branch) == 1 else T.add(branch[0], branch[1])
            terms.append(summed * w.alpha[k - 1])
    if not terms:
        return Tensor(np.float32(0.0))
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return total


def total_loss(g: GraftOutput, labels: np.ndarray, w: LossWeights):
    """(total, target, distill) scalars; total = target + distill, unweighted."""
    lt = loss_target(g.y_q, g.y_m, labels, w)
    ld = loss_distill(g, w)
    return T.add(lt, ld), lt, ld


def top1_percent(logits: Tensor, labels: np.ndarray) -> float:
    pred = logits.data.argmax(axis=1)
    return float((pred == labels).mean() * 100.0)


def train_step(lp, fp, batch, w: LossWeights, optimizer) -> dict:
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
    x = images if isinstance(images, Tensor) else Tensor(images)
    g = bwrf_forward(lp, fp, x, w)
    loss, lt, ld = total_loss(g, labels, w)
    loss.backward()
    optimizer.step()
    return {
        "loss_total": loss.item(),
        "loss_target": lt.item(),
        "loss_distill": ld.item(),
        "train_acc_Q": top1_percent(g.y_q, labels),
    }
