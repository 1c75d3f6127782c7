"""Optimizer, schedule, evaluation, and epoch-loop tests."""

import math

import numpy as np
import pytest

import oracles
from bwrf import training
from bwrf.config import RunConfig
from bwrf.data import Split
from bwrf.graft import graft_forward
from bwrf.network import BlockModel, BlockSpec, build_model, init_lp_from_fp
from bwrf.tensor import Tensor
from bwrf.training import (SGD, NumericsError, _cos_rows, cosine_similarities,
                           evaluate_branches, lr_at, model_pass, train_bwrf, train_fp)

SPEC = BlockSpec(units_per_block=1, in_channels=3, num_classes=10)


def leaf(values, name="w", no_decay=False):
    p = Tensor(np.asarray(values, np.float32), requires_grad=True)
    return name, p, no_decay


def random_split(n, seed=0, hw=8):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((n, 3, hw, hw)).astype(np.float32)
    labels = rng.integers(0, 10, size=n)
    return Split(images, labels)


def make_pair(seed=1):
    fp = build_model(SPEC, "fp", seed=seed).freeze()
    lp = build_model(SPEC, "lp", bits=4, seed=seed + 100)
    init_lp_from_fp(lp, fp)
    return lp, fp


def tiny_cfg(**over):
    base = dict(epochs=2, milestones=(1,), lr=0.05, lr_decay=0.1, momentum=0.9,
                weight_decay=1e-4, batch_size=16, eval_batch_size=16, seed=9,
                augment=False, cos_every=0)
    base.update(over)
    return RunConfig(**base)


# -- SGD --------------------------------------------------------------------------

def test_sgd_vanilla_step():
    name, p, _ = group = leaf([1.0, 2.0, 3.0])
    p.grad = np.array([0.5, -1.0, 0.0], np.float32)
    SGD([group], lr=0.1, momentum=0.0).step()
    np.testing.assert_allclose(p.data, [0.95, 2.1, 3.0], rtol=1e-6)


def test_sgd_skips_gradless_and_frozen_params():
    g1 = leaf([1.0])
    g2 = leaf([2.0])
    g2[1].requires_grad = False
    g2[1].grad = np.array([5.0], np.float32)
    SGD([g1, g2], lr=0.1).step()
    assert g1[1].data[0] == 1.0 and g2[1].data[0] == 2.0


def test_sgd_momentum_accumulates_geometrically():
    name, p, _ = group = leaf([0.0])
    opt = SGD([group], lr=0.1, momentum=0.9)
    for _ in range(2):
        p.grad = np.array([1.0], np.float32)
        opt.step()
    # buf after two steps: 1.0 then 1.9; total move = lr * (1.0 + 1.9)
    assert p.data[0] == pytest.approx(-0.29, rel=1e-6)


def test_sgd_weight_decay_exempts_no_decay_params():
    decayed = leaf([2.0], "w")
    exempt = leaf([2.0], "bn.gamma", no_decay=True)
    for _, p, _ in (decayed, exempt):
        p.grad = np.array([1.0], np.float32)
    SGD([decayed, exempt], lr=0.1, momentum=0.0, weight_decay=0.5).step()
    assert decayed[1].data[0] == pytest.approx(2.0 - 0.1 * (1.0 + 0.5 * 2.0))
    assert exempt[1].data[0] == pytest.approx(1.9)


def test_sgd_scale_lr_multiplier():
    group = leaf([0.5], "head.wq.scale", no_decay=True)
    group[1].grad = np.array([1.0], np.float32)
    SGD([group], lr=0.1, momentum=0.0, scale_lr_mult=0.25).step()
    assert group[1].data[0] == pytest.approx(0.5 - 0.1 * 0.25)


def test_sgd_clamps_scales_above_floor():
    group = leaf([0.01], "head.wq.scale", no_decay=True)
    group[1].grad = np.array([10.0], np.float32)
    SGD([group], lr=0.1, momentum=0.0).step()
    assert group[1].data[0] == np.float32(1e-8)


def test_sgd_does_not_clamp_ordinary_params():
    group = leaf([0.01], "w")
    group[1].grad = np.array([10.0], np.float32)
    SGD([group], lr=0.1, momentum=0.0).step()
    assert group[1].data[0] == pytest.approx(-0.99)


# -- schedule ----------------------------------------------------------------------

def test_lr_at_steps_down_at_each_milestone():
    cfg = RunConfig(lr=0.04, milestones=(150, 225), lr_decay=0.1, epochs=300)
    assert lr_at(0, cfg) == pytest.approx(0.04)
    assert lr_at(149, cfg) == pytest.approx(0.04)
    assert lr_at(150, cfg) == pytest.approx(0.004)
    assert lr_at(224, cfg) == pytest.approx(0.004)
    assert lr_at(225, cfg) == pytest.approx(0.0004)
    assert lr_at(299, cfg) == pytest.approx(0.0004)


# -- evaluation ----------------------------------------------------------------------

class Forward:
    """A model stand-in for model_pass: no block features, logits from a
    function of the input batch."""

    def __init__(self, logits):
        self.logits = logits

    def eval(self):
        return self

    def forward_collect(self, x):
        return [], self.logits(x)


def label_coded_split(per_class=2):
    """Images that carry their own label in pixel [0,0,0]."""
    labels = np.repeat(np.arange(10), per_class)
    images = np.zeros((len(labels), 3, 4, 4), np.float32)
    images[:, 0, 0, 0] = labels
    return Split(images, labels)


def test_evaluate_perfect_predictor_scores_100():
    split = label_coded_split()

    def logits(x):
        idx = x.data[:, 0, 0, 0].astype(int)
        return Tensor(np.eye(10, dtype=np.float32)[idx] * 10.0)

    assert model_pass(Forward(logits), split, batch_size=8) == ((100.0, 100.0), [])


def test_evaluate_constant_predictor_matches_class_frequency():
    split = label_coded_split()
    fixed = np.arange(10, 0, -1, dtype=np.float32)  # favors class 0, top5 = {0..4}

    def logits(x):
        return Tensor(np.tile(fixed, (len(x.data), 1)))

    (top1, top5), _ = model_pass(Forward(logits), split, batch_size=8)
    assert top1 == pytest.approx(10.0)
    assert top5 == pytest.approx(50.0)


def test_evaluate_top5_bounds_top1():
    lp, _ = make_pair()
    split = random_split(24, seed=3)
    (top1, top5), _ = model_pass(lp, split, batch_size=8)
    assert 0.0 <= top1 <= top5 <= 100.0
    assert type(top1) is float and type(top5) is float


def test_evaluate_empty_split_raises():
    empty = Split(np.zeros((0, 3, 4, 4), np.float32), np.zeros(0, np.int64))
    with pytest.raises(ValueError, match="empty"):
        model_pass(Forward(lambda x: x), empty, batch_size=8)


def test_evaluate_branches_matches_separate_evaluations():
    lp, fp = make_pair(seed=5)
    split = random_split(32, seed=6)
    scores = evaluate_branches(lp, fp, split, 16)
    assert list(scores) == ["acc_Q", "top5_Q", "acc_M1", "top5_M1", "acc_M2", "top5_M2"]
    assert (scores["acc_Q"], scores["top5_Q"]) == model_pass(lp, split, 16)[0]
    for k in (1, 2):
        graft = Forward(lambda x: graft_forward(lp.forward_collect(x)[0], fp, k))
        assert (scores[f"acc_M{k}"], scores[f"top5_M{k}"]) == model_pass(graft, split, 16)[0]
    assert all(type(v) is float for v in scores.values())
    # no leading rows: the teacher's features change nothing
    assert evaluate_branches(lp, fp, split, 16, model_pass(fp, split, 16)[1]) == scores


@pytest.mark.parametrize("cos_rows", [8, 20, 40, 1024])
def test_evaluate_branches_matches_two_walk_oracle(cos_rows):
    """8 rows end inside the first eval batch, 20 inside a later one, 40 is
    the whole split and 1024 is capped to it. The shared pass must equal the
    two-walk reference exactly, on every key."""
    lp, fp = make_pair(seed=17)
    split = random_split(40, seed=18)
    lp.eval()
    lp(Tensor(random_split(16, seed=19).images))  # calibrate the activation scales
    (acc_f, top5_f), leading = model_pass(fp, split, 16, cos_rows)
    got = evaluate_branches(lp, fp, split, 16, leading)
    want = oracles.branch_metrics_two_walks(lp, fp, split, 16, cos_rows)
    assert list(got) == [key for key in want if key not in ("acc_F", "top5_F")]
    got = {**got, "acc_F": acc_f, "top5_F": top5_f}
    for key in want:
        assert got[key] == want[key], key
    cos = cosine_similarities(lp, fp, split, n_samples=cos_rows, batch_size=16)
    assert cos == {key: v for key, v in want.items() if key.startswith("cos_")}


# -- cosine metrics ------------------------------------------------------------------

def test_cos_rows_hand_values():
    a = np.array([[1.0, 0.0]], np.float32)
    assert _cos_rows(a, np.array([[1.0, 1.0]], np.float32)) == pytest.approx(1 / np.sqrt(2))
    assert _cos_rows(a, np.array([[0.0, 1.0]], np.float32)) == pytest.approx(0.0)
    assert _cos_rows(a, np.array([[-2.0, 0.0]], np.float32)) == pytest.approx(-1.0)
    assert _cos_rows(a, np.array([[0.0, 0.0]], np.float32)) == 0.0


def test_cos_rows_averages_per_sample():
    a = np.array([[1.0, 0.0], [1.0, 0.0]], np.float32)
    b = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
    assert _cos_rows(a, b) == pytest.approx(0.5)


def test_cosine_similarities_identical_models():
    fp = build_model(SPEC, "fp", seed=11).freeze()
    lp = build_model(SPEC, "lp", bits=4, seed=111)
    init_lp_from_fp(lp, fp)
    for _, q in lp.quantizers():
        q.enabled = False
    out = cosine_similarities(lp, fp, random_split(16, seed=12), n_samples=16,
                              batch_size=8)
    assert set(out) == {"cos_b1", "cos_b2", "cos_b3", "cos_g1", "cos_g2"}
    for key, value in out.items():
        assert value == pytest.approx(1.0, abs=1e-9), key


def test_cosine_similarities_caps_sample_count():
    lp, fp = make_pair(seed=13)
    split = random_split(8, seed=14)
    out = cosine_similarities(lp, fp, split, n_samples=1024, batch_size=8)
    assert all(-1.0 <= v <= 1.0 for v in out.values())


# -- train_fp -------------------------------------------------------------------------

def test_train_fp_rows_and_schedule():
    model = build_model(SPEC, "fp", seed=21)
    cfg = tiny_cfg()
    rows = train_fp(model, random_split(48, seed=22), random_split(16, seed=23), cfg)
    assert [r["epoch"] for r in rows] == [1, 2]
    assert rows[0]["lr"] == pytest.approx(0.05)
    assert rows[1]["lr"] == pytest.approx(0.005)
    for row in rows:
        assert set(row) == {"epoch", "lr", "loss", "train_acc", "test_acc"}
        assert np.isfinite(row["loss"])
        assert 0.0 <= row["test_acc"] <= 100.0


def test_train_fp_is_deterministic():
    def run():
        model = build_model(SPEC, "fp", seed=31)
        rows = train_fp(model, random_split(32, seed=32), random_split(16, seed=33),
                        tiny_cfg(augment=True))
        return rows, model.checksum()

    (rows_a, sum_a), (rows_b, sum_b) = run(), run()
    assert rows_a == rows_b
    assert sum_a == sum_b


def test_train_fp_matches_the_plain_cross_entropy_loop():
    """Three epochs with a milestone, augmentation and a partial last batch
    (36 = 2 x 16 + 4): rows == and every state array byte-equal to the loop
    train_fp replaced."""
    runs = []
    for loop in (train_fp, oracles.train_fp_plain_ce):
        model = build_model(SPEC, "fp", seed=35)
        rows = loop(model, random_split(36, seed=36), random_split(20, seed=37),
                    tiny_cfg(epochs=3, milestones=(2,), augment=True))
        runs.append((rows, model.state_dict()))
    (rows, state), (want_rows, want_state) = runs
    assert rows == want_rows
    assert list(state) == list(want_state)
    for name, arr in state.items():
        assert arr.tobytes() == want_state[name].tobytes(), name


def test_train_fp_on_epoch_callback_sees_rows():
    model = build_model(SPEC, "fp", seed=41)
    seen = []
    train_fp(model, random_split(16, seed=42), random_split(16, seed=43),
             tiny_cfg(epochs=1, milestones=()), on_epoch=lambda row, m: seen.append(row["epoch"]))
    assert seen == [1]


# -- train_bwrf ------------------------------------------------------------------------

def test_train_bwrf_requires_frozen_counterpart():
    fp = build_model(SPEC, "fp", seed=51)
    lp = build_model(SPEC, "lp", bits=4, seed=52)
    with pytest.raises(ValueError, match="frozen"):
        train_bwrf(lp, fp, random_split(16), random_split(16), tiny_cfg())


def test_train_bwrf_rows_and_fp_integrity():
    lp, fp = make_pair(seed=61)
    before = fp.checksum()
    test, cfg = random_split(16, seed=63), tiny_cfg()
    rows = train_bwrf(lp, fp, random_split(32, seed=62), test, cfg)
    assert fp.checksum() == before
    base_keys = {"epoch", "lr", "loss_total", "loss_target", "loss_distill",
                 "train_acc_Q", "acc_Q", "acc_M1", "acc_M2", "acc_F",
                 "top5_Q", "top5_M1", "top5_M2", "top5_F"}
    for row in rows:
        assert set(row) == base_keys
        assert row["loss_total"] == pytest.approx(row["loss_target"] + row["loss_distill"],
                                                  rel=1e-5)
    assert rows[0]["acc_F"] == rows[1]["acc_F"], "frozen branch accuracy must not move"
    assert (rows[0]["acc_F"], rows[0]["top5_F"]) == model_pass(fp, test, cfg.eval_batch_size)[0]


def test_train_bwrf_emits_cosine_columns_on_cadence():
    lp, fp = make_pair(seed=71)
    rows = train_bwrf(lp, fp, random_split(16, seed=72), random_split(16, seed=73),
                      tiny_cfg(epochs=3, milestones=(), cos_every=2))
    has_cos = ["cos_b1" in row for row in rows]
    assert has_cos == [True, True, True]  # epoch 1, cadence epoch 2, final epoch 3
    rows = train_bwrf(lp, fp, random_split(16, seed=72), random_split(16, seed=73),
                      tiny_cfg(epochs=3, milestones=(), cos_every=3))
    assert ["cos_b1" in row for row in rows] == [True, False, True]


def test_train_bwrf_is_deterministic():
    def run():
        lp, fp = make_pair(seed=81)
        rows = train_bwrf(lp, fp, random_split(32, seed=82), random_split(16, seed=83),
                          tiny_cfg(augment=True))
        return rows, lp.checksum()

    (rows_a, sum_a), (rows_b, sum_b) = run(), run()
    assert rows_a == rows_b
    assert sum_a == sum_b


def test_train_bwrf_audit_catches_frozen_drift():
    lp, fp = make_pair(seed=91)

    def tamper(row, model):
        fp.head.weight.data[0, 0] += 1.0

    with pytest.raises(RuntimeError, match="drifted"):
        train_bwrf(lp, fp, random_split(16, seed=92), random_split(16, seed=93),
                   tiny_cfg(epochs=2, milestones=()), on_epoch=tamper)


def test_train_bwrf_runs_the_teacher_once_and_walks_the_test_split_once_per_epoch(monkeypatch):
    lp, fp = make_pair(seed=95)
    n_test, cfg = 40, tiny_cfg(epochs=3, milestones=(), cos_every=1)
    calls = {"fp": 0, "lp": 0}
    in_step = []
    step, forward_collect = training.train_step, BlockModel.forward_collect

    def marked_step(*args):
        in_step.append(True)
        try:
            return step(*args)
        finally:
            in_step.pop()

    def counted_forward_collect(model, x):
        features, logits = forward_collect(model, x)
        if not in_step:
            calls["fp" if model is fp else "lp"] += 1
            assert not any(t.requires_grad for t in [*features, logits]), "eval built a tape"
        return features, logits

    monkeypatch.setattr(training, "train_step", marked_step)
    monkeypatch.setattr(BlockModel, "forward_collect", counted_forward_collect)
    rows = train_bwrf(lp, fp, random_split(16, seed=96), random_split(n_test, seed=97),
                      cfg)
    batches = math.ceil(n_test / cfg.eval_batch_size)
    assert calls == {"fp": batches, "lp": cfg.epochs * batches}
    assert all("cos_g2" in row for row in rows)


def test_a_non_finite_quantizer_scale_stops_training_at_its_step(monkeypatch):
    lp, fp = make_pair()
    name, scale = [(n, p) for n, p, _ in lp.param_groups() if n.endswith(".scale")][5]
    sgd_step = SGD.step

    def step_then_overflow(self):
        sgd_step(self)
        if self.steps == 3:  # 32 images at batch 16: epoch 2, step 1
            scale.data[...] = np.inf

    monkeypatch.setattr(SGD, "step", step_then_overflow)
    saved = []
    with pytest.raises(NumericsError) as err:
        train_bwrf(lp, fp, random_split(32), random_split(16, seed=1), tiny_cfg(epochs=3),
                   on_epoch=lambda row, model: saved.append(row["epoch"]))
    assert str(err.value) == f"{name} is inf at epoch 2, step 1"
    assert saved == [1]
