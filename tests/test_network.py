"""Model construction, quantizer placement, FP-to-LP initialization, and
prefix-feature collection."""

import numpy as np
import pytest

from bwrf import tensor as T
from bwrf.network import BlockModel, BlockSpec, Conv2d, Linear, build_model, init_lp_from_fp
from bwrf.quantizer import init_scale
from bwrf.tensor import Tensor

SPEC = BlockSpec(units_per_block=1, in_channels=3, num_classes=10)


def small_batch(n=2, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((n, 3, 8, 8)).astype(np.float32))


# -- arch parsing ----------------------------------------------------------------

def test_arch_names_map_to_units():
    assert BlockSpec.from_arch("resnet20").units_per_block == 3
    assert BlockSpec.from_arch("resnet8").units_per_block == 1
    assert BlockSpec.from_arch("resnet56").units_per_block == 9
    assert BlockSpec.from_arch("resnet20").n_blocks == 3


@pytest.mark.parametrize("bad", ["resnet21", "resnet7", "vgg16", "resnet"])
def test_arch_rejects_invalid(bad):
    with pytest.raises(ValueError):
        BlockSpec.from_arch(bad)


def test_layers_require_an_rng():
    """A layer draws its initial weight from the rng it is given; left out,
    construction fails at the call, not inside the draw."""
    with pytest.raises(TypeError, match="rng"):
        Conv2d(3, 4, 3)
    with pytest.raises(TypeError, match="rng"):
        Linear(4, 2)


# -- quantizer placement ------------------------------------------------------------

def test_fp_model_has_zero_quantizers():
    fp = build_model(SPEC, "fp")
    assert fp.quantizers() == []


def test_lp_4bit_thresholds():
    lp = build_model(SPEC, "lp", bits=4)
    body = {name: q for name, q in lp.quantizers()
            if not name.startswith(("stem.", "head"))}
    assert body, "no body quantizers found"
    for name, q in body.items():
        if name.endswith("wq"):
            assert (q.qmin, q.qmax) == (-8, 7), name
        else:
            assert (q.qmin, q.qmax) == (0, 15), name


def test_stem_and_head_are_8bit_regardless_of_body_bits():
    for bits in (2, 3, 4):
        lp = build_model(SPEC, "lp", bits=bits)
        qs = dict(lp.quantizers())
        assert qs["stem.conv.wq"].bits == 8
        assert qs["stem.conv.aq"].bits == 8
        assert qs["stem.conv.aq"].signed, "stem input is signed (normalized images)"
        assert qs["head.wq"].bits == 8
        assert qs["head.aq"].bits == 8
        assert not qs["head.aq"].signed


def test_downsample_conv_quantized_at_body_bits():
    lp = build_model(BlockSpec(units_per_block=1), "lp", bits=3)
    qs = dict(lp.quantizers())
    assert qs["block2.unit0.down_conv.wq"].bits == 3


def test_body_activation_quantizers_unsigned():
    lp = build_model(SPEC, "lp", bits=4)
    for name, q in lp.quantizers():
        if name.endswith(".aq") and not name.startswith("stem."):
            assert not q.signed, name


def test_unsupported_bits_rejected():
    with pytest.raises(ValueError, match="bit-width"):
        build_model(SPEC, "lp", bits=5)
    with pytest.raises(ValueError, match="precision"):
        build_model(SPEC, "mixed")


def test_bits32_is_exact_passthrough():
    lp = build_model(SPEC, "lp", bits=32, seed=3)
    assert all(not q.enabled for _, q in lp.quantizers())
    fp = build_model(SPEC, "fp", seed=7)
    init_lp_from_fp(lp, fp)
    lp.eval()
    fp.eval()
    x = small_batch()
    np.testing.assert_array_equal(lp(x).data, fp(x).data)


# -- initialization from the FP counterpart ------------------------------------------

def test_init_copies_parameters_bit_identically():
    fp = build_model(SPEC, "fp", seed=1)
    lp = build_model(SPEC, "lp", bits=4, seed=2)
    init_lp_from_fp(lp, fp)
    fp_state = fp.state_dict()
    lp_state = lp.state_dict()
    for name, arr in fp_state.items():
        assert np.array_equal(lp_state[name], arr), name


def test_init_then_bypass_matches_fp_forward():
    fp = build_model(SPEC, "fp", seed=1)
    lp = build_model(SPEC, "lp", bits=4, seed=2)
    init_lp_from_fp(lp, fp)
    for _, q in lp.quantizers():
        q.enabled = False
    lp.eval()
    fp.eval()
    x = small_batch(seed=5)
    np.testing.assert_array_equal(lp(x).data, fp(x).data)


def test_init_sets_weight_scales_by_formula():
    fp = build_model(SPEC, "fp", seed=1)
    lp = build_model(SPEC, "lp", bits=4, seed=2)
    init_lp_from_fp(lp, fp)
    conv = lp.blocks[0].units[0].conv1
    assert conv.wq.initialized
    assert conv.wq.scale.data.item() == pytest.approx(
        init_scale(conv.weight.data, conv.wq), rel=1e-6)
    assert not conv.aq.initialized, "activation scales are calibrated lazily"


def test_init_rejects_mismatched_spec():
    fp = build_model(BlockSpec(units_per_block=2), "fp")
    lp = build_model(SPEC, "lp", bits=4)
    with pytest.raises(ValueError):
        init_lp_from_fp(lp, fp)


# -- forward collection ----------------------------------------------------------------

def test_forward_collect_returns_every_block_feature():
    fp = build_model(SPEC, "fp", seed=4).eval()
    x = small_batch()
    features, logits = fp.forward_collect(x)
    assert len(features) == fp.n_blocks == 3
    assert [f.data.shape for f in features] == [(2, 16, 8, 8), (2, 32, 4, 4), (2, 64, 2, 2)]
    assert logits.data.shape == (2, 10)


def test_logits_equal_head_of_pooled_last_feature():
    fp = build_model(SPEC, "fp", seed=4).eval()
    features, logits = fp.forward_collect(small_batch())
    again = fp.head(T.global_avg_pool(features[-1]))
    np.testing.assert_array_equal(logits.data, again.data)


def test_fp_and_lp_features_shape_aligned():
    fp = build_model(SPEC, "fp", seed=1).eval()
    lp = build_model(SPEC, "lp", bits=4, seed=2)
    init_lp_from_fp(lp, fp)
    lp.eval()
    x = small_batch()
    f_fp, _ = fp.forward_collect(x)
    f_lp, _ = lp.forward_collect(x)
    assert [a.data.shape for a in f_fp] == [b.data.shape for b in f_lp]


def test_frozen_model_repeated_forward_bit_identical():
    fp = build_model(SPEC, "fp", seed=6).freeze()
    x = small_batch(seed=9)
    a = fp(x).data.copy()
    b = fp(x).data.copy()
    assert np.array_equal(a, b)


def test_freeze_pins_eval_mode_and_disables_grads():
    fp = build_model(SPEC, "fp", seed=6)
    rm_before = fp.stem_bn.running_mean.copy()
    fp.freeze()
    fp.train()  # no-op on a frozen model
    assert not fp.training
    assert all(not p.requires_grad for _, p, _ in fp.param_groups())
    fp(small_batch())
    np.testing.assert_array_equal(fp.stem_bn.running_mean, rm_before)


# -- enumeration and state ----------------------------------------------------------------

def test_param_groups_decay_flags():
    lp = build_model(SPEC, "lp", bits=4)
    for name, _, no_decay in lp.param_groups():
        if name.endswith((".gamma", ".beta", ".scale")):
            assert no_decay, name
        else:
            assert not no_decay, name


def test_state_dict_round_trip():
    a = build_model(SPEC, "lp", bits=4, seed=11)
    b = build_model(SPEC, "lp", bits=4, seed=22)
    b.load_state_dict(a.state_dict())
    for name, arr in a.state_dict().items():
        assert np.array_equal(b.state_dict()[name], arr), name
    assert a.checksum() == b.checksum()


# The v1 checkpoint writes state_dict() in order, so this table is the file
# layout of resnet8: every trainable slot layer by layer, then every
# batchnorm's running statistics. Rows ending in .scale exist in LP only.
RESNET8_SLOTS = [
    ("stem.conv.weight", (16, 3, 3, 3)), ("stem.conv.wq.scale", (1,)),
    ("stem.conv.aq.scale", (1,)), ("stem.bn.gamma", (16,)), ("stem.bn.beta", (16,)),
    ("block1.unit0.conv1.weight", (16, 16, 3, 3)), ("block1.unit0.conv1.wq.scale", (1,)),
    ("block1.unit0.conv1.aq.scale", (1,)),
    ("block1.unit0.conv2.weight", (16, 16, 3, 3)), ("block1.unit0.conv2.wq.scale", (1,)),
    ("block1.unit0.conv2.aq.scale", (1,)),
    ("block1.unit0.bn1.gamma", (16,)), ("block1.unit0.bn1.beta", (16,)),
    ("block1.unit0.bn2.gamma", (16,)), ("block1.unit0.bn2.beta", (16,)),
    ("block2.unit0.conv1.weight", (32, 16, 3, 3)), ("block2.unit0.conv1.wq.scale", (1,)),
    ("block2.unit0.conv1.aq.scale", (1,)),
    ("block2.unit0.conv2.weight", (32, 32, 3, 3)), ("block2.unit0.conv2.wq.scale", (1,)),
    ("block2.unit0.conv2.aq.scale", (1,)),
    ("block2.unit0.down_conv.weight", (32, 16, 1, 1)),
    ("block2.unit0.down_conv.wq.scale", (1,)), ("block2.unit0.down_conv.aq.scale", (1,)),
    ("block2.unit0.bn1.gamma", (32,)), ("block2.unit0.bn1.beta", (32,)),
    ("block2.unit0.bn2.gamma", (32,)), ("block2.unit0.bn2.beta", (32,)),
    ("block2.unit0.down_bn.gamma", (32,)), ("block2.unit0.down_bn.beta", (32,)),
    ("block3.unit0.conv1.weight", (64, 32, 3, 3)), ("block3.unit0.conv1.wq.scale", (1,)),
    ("block3.unit0.conv1.aq.scale", (1,)),
    ("block3.unit0.conv2.weight", (64, 64, 3, 3)), ("block3.unit0.conv2.wq.scale", (1,)),
    ("block3.unit0.conv2.aq.scale", (1,)),
    ("block3.unit0.down_conv.weight", (64, 32, 1, 1)),
    ("block3.unit0.down_conv.wq.scale", (1,)), ("block3.unit0.down_conv.aq.scale", (1,)),
    ("block3.unit0.bn1.gamma", (64,)), ("block3.unit0.bn1.beta", (64,)),
    ("block3.unit0.bn2.gamma", (64,)), ("block3.unit0.bn2.beta", (64,)),
    ("block3.unit0.down_bn.gamma", (64,)), ("block3.unit0.down_bn.beta", (64,)),
    ("head.weight", (10, 64)), ("head.bias", (10,)),
    ("head.wq.scale", (1,)), ("head.aq.scale", (1,)),
    ("stem.bn.running_mean", (16,)), ("stem.bn.running_var", (16,)),
    ("block1.unit0.bn1.running_mean", (16,)), ("block1.unit0.bn1.running_var", (16,)),
    ("block1.unit0.bn2.running_mean", (16,)), ("block1.unit0.bn2.running_var", (16,)),
    ("block2.unit0.bn1.running_mean", (32,)), ("block2.unit0.bn1.running_var", (32,)),
    ("block2.unit0.bn2.running_mean", (32,)), ("block2.unit0.bn2.running_var", (32,)),
    ("block2.unit0.down_bn.running_mean", (32,)), ("block2.unit0.down_bn.running_var", (32,)),
    ("block3.unit0.bn1.running_mean", (64,)), ("block3.unit0.bn1.running_var", (64,)),
    ("block3.unit0.bn2.running_mean", (64,)), ("block3.unit0.bn2.running_var", (64,)),
    ("block3.unit0.down_bn.running_mean", (64,)), ("block3.unit0.down_bn.running_var", (64,)),
]


@pytest.mark.parametrize("precision", ["fp", "lp"])
def test_state_dict_slot_order_is_the_v1_layout(precision):
    model = build_model(BlockSpec.from_arch("resnet8"), precision, bits=4)
    want = [(name, shape) for name, shape in RESNET8_SLOTS
            if precision == "lp" or not name.endswith(".scale")]
    assert [(name, arr.shape) for name, arr in model.state_dict().items()] == want


def test_load_state_dict_rejects_bad_keys_and_shapes():
    lp = build_model(SPEC, "lp", bits=4)
    state = lp.state_dict()
    broken = dict(state)
    broken.pop("head.bias")
    with pytest.raises(ValueError, match="missing"):
        lp.load_state_dict(broken)
    wrong = {k: v for k, v in state.items()}
    wrong["head.weight"] = np.zeros((3, 3), np.float32)
    with pytest.raises(ValueError, match="shape"):
        lp.load_state_dict(wrong)


def test_checksum_changes_when_any_value_changes():
    lp = build_model(SPEC, "lp", bits=4, seed=11)
    before = lp.checksum()
    lp.head.bias.data[0] += 1.0
    assert lp.checksum() != before


def test_block_call_counters():
    fp = build_model(SPEC, "fp", seed=1).eval()
    before = fp.block_call_count()
    fp.forward_collect(small_batch())
    assert fp.block_call_count() - before == fp.n_blocks
    fp.forward_from_block(Tensor(np.zeros((2, 32, 4, 4), np.float32)), 2)
    assert fp.block_call_count() - before == fp.n_blocks + 1
