"""Grafting and composite-loss tests: branch equivalence against explicit
composition, gradient routing through the frozen suffix, loss formulas
against scalar oracles, and the full training step."""

import numpy as np
import pytest

import oracles
from bwrf import tensor as T
from bwrf.config import RunConfig, loss_switches_off
from bwrf.graft import (GraftOutput, avg_soft_label, bwrf_forward, graft_forward, kd_loss,
                        loss_distill, loss_target, total_loss, train_step)
from bwrf.network import BlockSpec, build_model, init_lp_from_fp
from bwrf.tensor import Tensor
from bwrf.training import SGD

SPEC = BlockSpec(units_per_block=1, in_channels=3, num_classes=10)


def make_pair(bits=4, seed=1, bypass=False):
    fp = build_model(SPEC, "fp", seed=seed).freeze()
    lp = build_model(SPEC, "lp", bits=bits, seed=seed + 100)
    init_lp_from_fp(lp, fp)
    if bypass:
        for _, q in lp.quantizers():
            q.enabled = False
    return lp, fp


def batch(n=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 10, size=n)
    return images, labels


def rand_logits(rng, n=4, c=10):
    return Tensor((rng.standard_normal((n, c)) * 2).astype(np.float32))


# -- graft_forward ---------------------------------------------------------------

def test_graft_equals_fp_when_models_identical():
    lp, fp = make_pair(bypass=True)
    lp.eval()
    x = Tensor(batch()[0])
    features, _ = lp.forward_collect(x)
    y_f = fp(x)
    for k in (1, 2):
        y_m = graft_forward(features, fp, k)
        np.testing.assert_array_equal(y_m.data, y_f.data)


def test_graft_matches_explicitly_composed_model():
    """Oracle: a standalone model holding LP blocks 1..k and FP blocks k+1..n."""
    lp, fp = make_pair(bits=4, seed=3)
    lp.eval()
    x = Tensor(batch(seed=5)[0])
    features, _ = lp.forward_collect(x)  # also calibrates activation scales

    for k in (1, 2):
        standalone = build_model(SPEC, "lp", bits=4, seed=999)
        standalone.load_state_dict(lp.state_dict())
        fp_state = fp.state_dict()
        own = standalone.state_dict()
        suffix = tuple(f"block{j}." for j in range(k + 1, standalone.n_blocks + 1)) + ("head.",)
        for name, arr in fp_state.items():
            if name.startswith(suffix):
                np.copyto(own[name], arr)
        for qname, q in standalone.quantizers():
            if qname.startswith(suffix):
                q.enabled = False
        standalone.eval()
        want = standalone(x)
        got = graft_forward(features, fp, k)
        np.testing.assert_array_equal(got.data, want.data)


def test_graft_index_bounds():
    lp, fp = make_pair()
    features, _ = lp.forward_collect(Tensor(batch()[0]))
    for bad in (0, 3, -1):
        with pytest.raises(ValueError, match="graft index"):
            graft_forward(features, fp, bad)


def test_graft_backward_reaches_only_prefix_parameters():
    lp, fp = make_pair()
    lp.train()
    features, _ = lp.forward_collect(Tensor(batch()[0]))
    y_m = graft_forward(features, fp, 1)
    y_m.sum().backward()
    assert all(p.grad is None for _, p, _ in fp.param_groups()), "frozen params got grads"
    grads = {name: p.grad for name, p, _ in lp.param_groups()}
    assert grads["block1.unit0.conv1.weight"] is not None
    assert np.abs(grads["block1.unit0.conv1.weight"]).max() > 0
    assert grads["stem.conv.weight"] is not None
    assert grads["block2.unit0.conv1.weight"] is None, "suffix LP blocks are not in this branch"
    assert grads["head.weight"] is None


# -- bwrf_forward gating -----------------------------------------------------------

def test_forward_bundle_shape_and_detachment():
    lp, fp = make_pair()
    g = bwrf_forward(lp, fp, Tensor(batch()[0]), RunConfig())
    assert len(g.y_m) == lp.n_blocks - 1
    assert all(y is not None for y in g.y_m)
    assert g.y_f is not None and not g.y_f.requires_grad


def test_branch_count_law_full_framework():
    lp, fp = make_pair()
    lp_before, fp_before = lp.block_call_count(), fp.block_call_count()
    bwrf_forward(lp, fp, Tensor(batch()[0]), RunConfig())
    n = lp.n_blocks
    assert lp.block_call_count() - lp_before == n, "LP prefix must run exactly once"
    extra = sum(n - k for k in range(1, n))
    assert fp.block_call_count() - fp_before == n + extra


def test_all_toggles_off_runs_zero_fp_blocks():
    lp, fp = make_pair()
    before = fp.block_call_count()
    cfg = RunConfig(use_mp_targets=False, use_fp_kd=False, use_mp_kd=False,
                    use_avg_labels=False)
    g = bwrf_forward(lp, fp, Tensor(batch()[0]), cfg)
    assert fp.block_call_count() == before
    assert g.y_f is None and all(y is None for y in g.y_m)


def test_mp_branch_pruning_runs_only_selected_grafts():
    """Each selected graft runs once per forward, whatever the order or repeats."""
    lp, fp = make_pair()
    n = lp.n_blocks
    for branches, realized in (((2,), (2,)), ((1, 2), (1, 2)), ((2, 1, 1), (1, 2))):
        before = fp.block_call_count()
        g = bwrf_forward(lp, fp, Tensor(batch()[0]), RunConfig(mp_branches=branches))
        assert [y is not None for y in g.y_m] == [k in realized for k in range(1, n)]
        assert fp.block_call_count() - before == n + sum(n - k for k in realized), branches


# -- loss_target --------------------------------------------------------------------

def test_loss_target_no_mp_outputs_is_plain_ce():
    rng = np.random.default_rng(0)
    y_q = rand_logits(rng)
    labels = np.array([1, 2, 3, 4])
    got = loss_target(y_q, [], labels, RunConfig(alpha=()))
    assert got.item() == T.cross_entropy(y_q, labels).item()


def test_loss_target_zero_alpha_is_plain_ce():
    rng = np.random.default_rng(1)
    y_q, y_m1, y_m2 = rand_logits(rng), rand_logits(rng), rand_logits(rng)
    labels = np.array([0, 1, 2, 3])
    got = loss_target(y_q, [y_m1, y_m2], labels, RunConfig(alpha=(0.0, 0.0)))
    assert got.item() == T.cross_entropy(y_q, labels).item()


def test_loss_target_three_branch_scalar_oracle():
    y_q = Tensor(np.array([[2.0, -1.0], [0.5, 0.5]], np.float32))
    y_m1 = Tensor(np.array([[1.0, 1.0], [-0.5, 2.0]], np.float32))
    y_m2 = Tensor(np.array([[0.0, 3.0], [1.5, -1.5]], np.float32))
    labels = np.array([0, 1])
    got = loss_target(y_q, [y_m1, y_m2], labels, RunConfig(alpha=(1.0, 1.0))).item()
    want = sum(oracles.cross_entropy_f64(y.data.astype(np.float64), labels)
               for y in (y_q, y_m1, y_m2))
    assert got == pytest.approx(want, rel=1e-5)


def test_loss_target_mp_toggle_drops_branch_terms():
    rng = np.random.default_rng(2)
    y_q, y_m1 = rand_logits(rng), rand_logits(rng)
    labels = np.array([5, 6, 7, 8])
    cfg = RunConfig(alpha=(3.0,), use_mp_targets=False)
    got = loss_target(y_q, [y_m1], labels, cfg)
    assert got.item() == T.cross_entropy(y_q, labels).item()


# -- avg_soft_label --------------------------------------------------------------------

def test_avg_soft_label_k0_is_fp_exactly():
    rng = np.random.default_rng(3)
    y_f = rand_logits(rng)
    out = avg_soft_label(y_f, [None, None], 0)
    np.testing.assert_array_equal(out.data, y_f.data)
    assert not out.requires_grad


def test_avg_soft_label_k1_is_midpoint():
    rng = np.random.default_rng(4)
    y_f, y_m1 = rand_logits(rng), rand_logits(rng)
    out = avg_soft_label(y_f, [y_m1, None], 1)
    np.testing.assert_allclose(out.data, (y_f.data + y_m1.data) / 2, rtol=1e-6)


def test_avg_soft_label_of_equal_logits_is_identity():
    logits = np.random.default_rng(5).standard_normal((4, 10)).astype(np.float32)
    out = avg_soft_label(Tensor(logits), [Tensor(logits.copy()), Tensor(logits.copy())], 2)
    np.testing.assert_allclose(out.data, logits, rtol=1e-6)


def test_avg_soft_label_bounds():
    y_f = Tensor(np.zeros((2, 3), np.float32))
    with pytest.raises(ValueError, match="range"):
        avg_soft_label(y_f, [None], 2)


# -- kd_loss ------------------------------------------------------------------------------

def test_kd_identical_logits_is_exact_zero():
    logits = np.random.default_rng(6).standard_normal((8, 10)).astype(np.float32) * 3
    for temp in (1.0, 2.0, 4.0):
        loss = kd_loss(Tensor(logits), Tensor(logits.copy()), temp)
        assert loss.item() == 0.0


def test_kd_nonnegative_on_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s, t = rand_logits(rng), rand_logits(rng)
        assert kd_loss(s, t, float(rng.uniform(0.5, 5))).item() >= 0.0


def test_kd_two_class_hand_value():
    student = Tensor(np.array([[0.0, 0.0]], np.float32))
    teacher = Tensor(np.array([[np.log(3.0), 0.0]], np.float32))
    got = kd_loss(student, teacher, 1.0).item()
    want = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    assert got == pytest.approx(want, rel=1e-5)
    assert got == pytest.approx(0.130812, abs=1e-5)


def test_kd_matches_f64_oracle_with_temperature():
    rng = np.random.default_rng(8)
    for temp in (1.0, 3.0):
        s, t = rand_logits(rng, n=6), rand_logits(rng, n=6)
        got = kd_loss(s, t, temp).item()
        want = oracles.kd_loss_f64(s.data, t.data, temp)
        assert got == pytest.approx(want, rel=1e-4, abs=1e-6)


def test_kd_teacher_receives_no_gradient():
    rng = np.random.default_rng(9)
    student = Tensor(rng.standard_normal((4, 10)).astype(np.float32), requires_grad=True)
    teacher = Tensor(rng.standard_normal((4, 10)).astype(np.float32), requires_grad=True)
    kd_loss(student, teacher, 2.0).backward()
    assert teacher.grad is None
    assert student.grad is not None


def test_kd_rejects_bad_temperature():
    with pytest.raises(ValueError, match="temperature"):
        kd_loss(Tensor(np.zeros((1, 2), np.float32)), Tensor(np.zeros((1, 2), np.float32)), 0.0)


# -- loss_distill ----------------------------------------------------------------------------

def test_distill_zero_when_all_logits_identical():
    logits = np.random.default_rng(10).standard_normal((4, 10)).astype(np.float32)
    g = GraftOutput(y_q=Tensor(logits.copy()),
                    y_m=[Tensor(logits.copy()), Tensor(logits.copy())],
                    y_f=Tensor(logits.copy()))
    assert loss_distill(g, RunConfig()).item() == 0.0


def test_distill_two_block_symbolic_expansion():
    rng = np.random.default_rng(11)
    y_q, y_m1, y_f = rand_logits(rng), rand_logits(rng), rand_logits(rng)
    alpha = 0.7
    g = GraftOutput(y_q=y_q, y_m=[y_m1], y_f=y_f)
    got = loss_distill(g, RunConfig(alpha=(alpha,))).item()
    want = (oracles.kd_loss_f64(y_q.data, y_f.data, 1.0)
            + oracles.kd_loss_f64(y_q.data, (y_f.data + y_m1.data) / 2, 1.0)
            + alpha * 2.0 * oracles.kd_loss_f64(y_m1.data, y_f.data, 1.0))
    assert got == pytest.approx(want, rel=1e-4, abs=1e-6)


def test_distill_all_toggles_off_is_zero_constant():
    rng = np.random.default_rng(12)
    g = GraftOutput(y_q=rand_logits(rng), y_m=[rand_logits(rng), rand_logits(rng)],
                    y_f=rand_logits(rng))
    cfg = RunConfig(use_fp_kd=False, use_mp_kd=False, use_avg_labels=False)
    loss = loss_distill(g, cfg)
    assert loss.item() == 0.0 and not loss.requires_grad


def test_distill_toggle_matrix_term_presence():
    """Each toggle adds exactly its own term family."""
    rng = np.random.default_rng(13)
    y_q, y_m1, y_m2, y_f = (rand_logits(rng) for _ in range(4))
    g = GraftOutput(y_q=y_q, y_m=[y_m1, y_m2], y_f=y_f)
    a = (0.9, 1.1)
    kd = lambda s, t: oracles.kd_loss_f64(s.data, t.data, 1.0)
    avg1 = (y_f.data + y_m1.data) / 2
    avg2 = (y_f.data + y_m1.data + y_m2.data) / 3
    fp_term = kd(y_q, y_f)
    mp_terms = a[0] * kd(y_m1, y_f) + a[1] * kd(y_m2, y_f)
    avg_terms = (oracles.kd_loss_f64(y_q.data, avg2, 1.0)
                 + a[0] * kd(y_m1, y_f)  # avg over zero previous branches is y_f
                 + a[1] * oracles.kd_loss_f64(y_m2.data, avg1, 1.0))
    cases = [
        (dict(use_fp_kd=True, use_mp_kd=False, use_avg_labels=False), fp_term),
        (dict(use_fp_kd=False, use_mp_kd=True, use_avg_labels=False), mp_terms),
        (dict(use_fp_kd=False, use_mp_kd=False, use_avg_labels=True), avg_terms),
        (dict(use_fp_kd=True, use_mp_kd=True, use_avg_labels=True),
         fp_term + mp_terms + avg_terms),
    ]
    for toggles, want in cases:
        got = loss_distill(g, RunConfig(alpha=a, **toggles)).item()
        assert got == pytest.approx(want, rel=1e-4, abs=1e-6), toggles


# -- total_loss ---------------------------------------------------------------------------------

def test_total_loss_reduces_to_target_when_distill_off():
    rng = np.random.default_rng(14)
    g = GraftOutput(y_q=rand_logits(rng), y_m=[rand_logits(rng), rand_logits(rng)],
                    y_f=None)
    labels = np.array([0, 1, 2, 3])
    cfg = RunConfig(use_fp_kd=False, use_mp_kd=False, use_avg_labels=False)
    total, target, distill = total_loss(g, labels, cfg)
    assert distill.item() == 0.0
    assert total.item() == target.item()


def test_total_loss_generic_composition():
    rng = np.random.default_rng(15)
    g = GraftOutput(y_q=rand_logits(rng), y_m=[rand_logits(rng), rand_logits(rng)],
                    y_f=rand_logits(rng))
    labels = np.array([3, 1, 4, 1])
    cfg = RunConfig(alpha=(0.5, 2.0))
    total, target, distill = total_loss(g, labels, cfg)
    assert total.item() == pytest.approx(target.item() + distill.item(), rel=1e-6)
    want_target = (oracles.cross_entropy_f64(g.y_q.data, labels)
                   + 0.5 * oracles.cross_entropy_f64(g.y_m[0].data, labels)
                   + 2.0 * oracles.cross_entropy_f64(g.y_m[1].data, labels))
    assert target.item() == pytest.approx(want_target, rel=1e-4)


@pytest.mark.parametrize("switches", ["all on", "all off"])
def test_every_loss_and_reduction_is_shape_one(switches):
    """A scalar is a (1,) array by contract, the zero distillation loss of an
    all-off config included, and a loss walks from np.ones(loss.shape)."""
    lp, fp = make_pair(seed=16)
    images, labels = batch(seed=17)
    cfg = RunConfig() if switches == "all on" else loss_switches_off(RunConfig())
    g = bwrf_forward(lp, fp, Tensor(images), cfg)
    losses = total_loss(g, labels, cfg)
    t = Tensor(images, requires_grad=True)
    reductions = (t.sum(), t.mean(), T.nll_loss(T.log_softmax(g.y_q), labels))
    assert [x.shape for x in (*losses, *reductions)] == [(1,)] * 6
    losses[0].backward(np.ones(losses[0].shape, np.float32))
    assert all(p.grad is not None for _, p, _ in lp.param_groups())


# -- train_step -----------------------------------------------------------------------------------

def test_train_step_leaves_fp_bit_identical():
    lp, fp = make_pair(seed=21)
    before = fp.checksum()
    opt = SGD(lp.param_groups(), lr=0.05, momentum=0.9, weight_decay=1e-4)
    for seed in range(3):
        train_step(lp, fp, batch(seed=seed), RunConfig(), opt)
    assert fp.checksum() == before


def test_train_step_metrics_fields():
    lp, fp = make_pair(seed=22)
    opt = SGD(lp.param_groups(), lr=0.01)
    m = train_step(lp, fp, batch(), RunConfig(), opt)
    assert list(m) == ["loss_total", "loss_target", "loss_distill", "train_acc_Q"]
    assert m["loss_total"] == pytest.approx(m["loss_target"] + m["loss_distill"], rel=1e-5)


def test_train_step_toggles_off_equals_plain_qat_step():
    images, labels = batch(seed=33)
    results = []
    for mode in ("framework", "manual"):
        lp, fp = make_pair(seed=23)
        opt = SGD(lp.param_groups(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        if mode == "framework":
            cfg = RunConfig(use_mp_targets=False, use_fp_kd=False, use_mp_kd=False,
                            use_avg_labels=False)
            train_step(lp, fp, (images, labels), cfg, opt)
        else:
            for _, p, _ in lp.param_groups():
                p.grad = None
            loss = T.cross_entropy(lp(Tensor(images)), labels)
            loss.backward()
            opt.step()
        results.append({name: arr.copy() for name, arr in lp.state_dict().items()})
    for name in results[0]:
        assert np.array_equal(results[0][name], results[1][name]), name


def test_gradient_sum_decomposition():
    """Combined backward equals Q-branch plus M-branch backward passes."""
    lp, fp = make_pair(seed=24)
    lp.train()
    images, labels = batch(n=8, seed=44)
    x = Tensor(images)
    cfg = RunConfig(alpha=(1.0, 1.0))
    bwrf_forward(lp, fp, x, cfg)  # warm up lazy activation scales

    def clear():
        for _, p, _ in lp.param_groups():
            p.grad = None

    def snap():
        return {name: p.grad.copy() for name, p, _ in lp.param_groups()
                if p.grad is not None}

    clear()
    g = bwrf_forward(lp, fp, x, cfg)
    loss, _, _ = total_loss(g, labels, cfg)
    loss.backward()
    combined = snap()

    clear()
    g = bwrf_forward(lp, fp, x, cfg)
    n = lp.n_blocks
    loss_q = T.add(T.cross_entropy(g.y_q, labels),
                   T.add(kd_loss(g.y_q, g.y_f), kd_loss(g.y_q, avg_soft_label(g.y_f, g.y_m, n - 1))))
    loss_q.backward()
    q_grads = snap()

    clear()
    g = bwrf_forward(lp, fp, x, cfg)
    terms = []
    for k in (1, 2):
        y = g.y_m[k - 1]
        branch = T.add(T.cross_entropy(y, labels),
                       T.add(kd_loss(y, g.y_f), kd_loss(y, avg_soft_label(g.y_f, g.y_m, k - 1))))
        terms.append(branch * cfg.alpha[k - 1])
    T.add(terms[0], terms[1]).backward()
    m_grads = snap()

    for name in combined:
        summed = q_grads.get(name, 0) + m_grads.get(name, 0)
        err = np.abs(combined[name] - summed).max()
        assert err <= 1e-5, f"{name}: {err:.2e}"


def test_train_step_rejects_empty_batch():
    lp, fp = make_pair()
    opt = SGD(lp.param_groups(), lr=0.01)
    with pytest.raises(ValueError, match="empty"):
        train_step(lp, fp, (np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int64)),
                   RunConfig(), opt)
