"""Block-partitioned residual CNNs.

A model is a stem conv, n resolution-aligned blocks of residual units, and
a linear head. The same topology is built in two flavors: a full-precision
model (no quantizers, typically frozen after its own training) and a
low-precision one with weight+activation quantizers on every conv and
linear layer. Block boundaries are the grafting points: forward_collect
returns every block output so a graft can resume the frozen counterpart
mid-network on a low-precision feature.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass

import numpy as np

from bwrf import quantizer
from bwrf import tensor as T
from bwrf.quantizer import Quantizer, init_scale
from bwrf.tensor import Tensor

BOUNDARY_BITS = 8  # stem conv and head always quantize at 8 bits
SUPPORTED_BITS = (2, 3, 4, 8, 32)  # 32 means exact full-precision passthrough
WIDTHS = (16, 32, 64)  # channels of each block
STRIDES = (1, 2, 2)  # stride of each block's first unit


class QuantizedLayer:
    """Conv2d and Linear: ``op`` on the input and the weight, each through its
    quantizer once ``quantize`` has attached them (LP models only)."""

    bias: Tensor | None = None
    wq: Quantizer | None = None
    aq: Quantizer | None = None

    def __call__(self, x: Tensor) -> Tensor:
        w = self.weight
        if self.wq is not None:  # wq and aq are attached together
            x, w = quantizer.quantize_forward(x, self.aq), quantizer.quantize_forward(w, self.wq)
        return self.op(x, w)

    def quantize(self, bits: int, act_signed: bool, grad_scale_enabled: bool, enabled: bool):
        self.wq = Quantizer(bits, signed=True, grad_scale_enabled=grad_scale_enabled)
        self.aq = Quantizer(bits, signed=act_signed, grad_scale_enabled=grad_scale_enabled)
        self.wq.enabled = self.aq.enabled = enabled

    def quantizers(self):
        return [(qn, q) for qn, q in (("wq", self.wq), ("aq", self.aq)) if q is not None]

    def params(self):
        """(slot, tensor, no_decay): weight and bias decay, quantizer scales do not."""
        out = [("weight", self.weight, False)]
        if self.bias is not None:
            out.append(("bias", self.bias, False))
        return out + [(f"{qn}.scale", q.scale, True) for qn, q in self.quantizers()]

    def stats(self):
        return []


class Conv2d(QuantizedLayer):
    """Bias-free: every conv feeds a batchnorm."""

    def __init__(self, in_ch: int, out_ch: int, k: int, stride: int = 1,
                 padding: int = 0, *, rng):
        std = np.sqrt(2.0 / (in_ch * k * k))
        w = rng.standard_normal((out_ch, in_ch, k, k)) * std
        self.weight = Tensor(w.astype(np.float32), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def op(self, x: Tensor, w: Tensor) -> Tensor:
        return T.conv2d(x, w, stride=self.stride, padding=self.padding)


class Linear(QuantizedLayer):
    def __init__(self, in_f: int, out_f: int, *, rng):
        bound = np.sqrt(1.0 / in_f)
        w = rng.uniform(-bound, bound, size=(out_f, in_f))
        self.weight = Tensor(w.astype(np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(out_f, np.float32), requires_grad=True)

    def op(self, x: Tensor, w: Tensor) -> Tensor:
        return T.linear(x, w, self.bias)


class BatchNorm2d:
    momentum = 0.1  # a one-batch calibration may set 1.0 on an instance
    eps = 1e-5

    def __init__(self, ch: int):
        self.gamma = Tensor(np.ones(ch, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(ch, np.float32), requires_grad=True)
        self.running_mean = np.zeros(ch, np.float32)
        self.running_var = np.ones(ch, np.float32)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return T.batchnorm2d(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, training, self.momentum, self.eps)

    def quantize(self, *args, **kwargs):
        """Batchnorm runs in full precision in both flavors: no quantizers."""

    def quantizers(self):
        return []

    def params(self):
        """(slot, tensor, no_decay): weight decay must not shrink the affine pair."""
        return [("gamma", self.gamma, True), ("beta", self.beta, True)]

    def stats(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


class ResidualUnit:
    """conv-bn-relu-conv-bn plus identity (or 1x1-conv-bn) shortcut, relu out."""

    LAYERS = ("conv1", "conv2", "down_conv", "bn1", "bn2", "down_bn")  # checkpoint order

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng):
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(out_ch)
        self.down_conv = self.down_bn = None
        if stride != 1 or in_ch != out_ch:
            self.down_conv = Conv2d(in_ch, out_ch, 1, stride=stride, rng=rng)
            self.down_bn = BatchNorm2d(out_ch)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = T.relu(self.bn1(self.conv1(x), training))
        h = self.bn2(self.conv2(h), training)
        sc = x if self.down_conv is None else self.down_bn(self.down_conv(x), training)
        return T.relu(T.add(h, sc))


class Block:
    """One resolution stage: a chain of residual units. Calls are counted so
    tests can audit how many block executions a training step performs."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, units: int, rng):
        self.units = [ResidualUnit(in_ch if i == 0 else out_ch, out_ch,
                                   stride if i == 0 else 1, rng)
                      for i in range(units)]
        self.calls = 0

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        self.calls += 1
        for unit in self.units:
            x = unit(x, training)
        return x


@dataclass
class BlockSpec:
    """Topology shared by the full- and low-precision models: three stages of
    WIDTHS channels, each entered at its STRIDES entry."""

    units_per_block: int = 3
    in_channels: int = 3
    num_classes: int = 10

    @property
    def n_blocks(self) -> int:
        return len(WIDTHS)

    @classmethod
    def from_arch(cls, arch: str, in_channels: int = 3, num_classes: int = 10) -> "BlockSpec":
        """'resnet20'-style names: depth 6u+2 maps to u units per block."""
        m = re.fullmatch(r"resnet(\d+)", arch.strip().lower())
        if not m:
            raise ValueError(f"unknown architecture {arch!r}; expected resnet<depth>")
        depth = int(m.group(1))
        if depth < 8 or (depth - 2) % 6 != 0:
            raise ValueError(f"resnet depth must be 6u+2 with u >= 1, got {depth}")
        return cls(units_per_block=(depth - 2) // 6, in_channels=in_channels,
                   num_classes=num_classes)


class BlockModel:
    """Stem + n blocks + head, with optional quantizers and a frozen flag."""

    def __init__(self, spec: BlockSpec, bits: int | None = None,
                 grad_scale_enabled: bool = True, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.bits = bits
        self.stem_conv = Conv2d(spec.in_channels, WIDTHS[0], 3, stride=1, padding=1, rng=rng)
        self.stem_bn = BatchNorm2d(WIDTHS[0])
        self.blocks = [Block(in_ch, width, stride, spec.units_per_block, rng)
                       for in_ch, width, stride in zip(WIDTHS[:1] + WIDTHS, WIDTHS, STRIDES)]
        self.head = Linear(WIDTHS[-1], spec.num_classes, rng=rng)
        self.training = True
        self.frozen = False
        if bits is not None:
            self._attach_quantizers(bits, grad_scale_enabled)

    # -- construction -------------------------------------------------------

    def _attach_quantizers(self, bits: int, grad_scale_enabled: bool):
        if bits not in SUPPORTED_BITS:
            raise ValueError(f"unsupported bit-width {bits}; choose from {SUPPORTED_BITS}")
        passthrough = bits == 32
        for name, layer in self._named_layers():
            # Stem sees signed normalized images; every later activation
            # follows a relu, so those quantizers are unsigned.
            b = 8 if passthrough else BOUNDARY_BITS if name in ("stem.conv", "head") else bits
            layer.quantize(b, act_signed=name == "stem.conv",
                           grad_scale_enabled=grad_scale_enabled, enabled=not passthrough)

    # -- modes ----------------------------------------------------------------

    def train(self):
        """Enter train mode; a no-op on frozen models, which stay in eval."""
        if not self.frozen:
            self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    def freeze(self):
        """Make every parameter non-trainable and pin batchnorm to running stats."""
        for _, p, _ in self.param_groups():
            p.requires_grad = False
        self.frozen = True
        self.training = False
        return self

    # -- forward ----------------------------------------------------------------

    def stem(self, x: Tensor) -> Tensor:
        return T.relu(self.stem_bn(self.stem_conv(x), self.training))

    def forward_from_block(self, h: Tensor, start: int) -> Tensor:
        """Run blocks start..n-1 (0-indexed) and the head on a feature map."""
        for block in self.blocks[start:]:
            h = block(h, self.training)
        return self.head(T.global_avg_pool(h))

    def forward_collect(self, x: Tensor):
        """All n block outputs plus head logits; features stay graph-connected."""
        h = self.stem(x)
        features = []
        for block in self.blocks:
            h = block(h, self.training)
            features.append(h)
        logits = self.head(T.global_avg_pool(features[-1]))
        return features, logits

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward_collect(x)[1]

    # -- enumeration ----------------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def _named_layers(self):
        """(name, layer) of every layer in v1 checkpoint order."""
        yield "stem.conv", self.stem_conv
        yield "stem.bn", self.stem_bn
        for bi, block in enumerate(self.blocks, start=1):
            for ui, unit in enumerate(block.units):
                for slot in ResidualUnit.LAYERS:
                    if getattr(unit, slot) is not None:
                        yield f"block{bi}.unit{ui}.{slot}", getattr(unit, slot)
        yield "head", self.head

    def param_groups(self):
        """(name, tensor, no_decay) for every trainable parameter slot.

        Batchnorm affine parameters and quantizer scales are flagged
        no_decay; weight decay must not shrink them.
        """
        return [(f"{name}.{slot}", p, no_decay) for name, layer in self._named_layers()
                for slot, p, no_decay in layer.params()]

    def quantizers(self):
        return [(f"{name}.{slot}", q) for name, layer in self._named_layers()
                for slot, q in layer.quantizers()]

    def state_dict(self):
        """Name -> float32 array for every persistent value, in a fixed order:
        every layer's trainable slots, then every batchnorm's running stats."""
        out = {name: p.data for name, p, _ in self.param_groups()}
        out.update((f"{name}.{slot}", arr) for name, layer in self._named_layers()
                   for slot, arr in layer.stats())
        return out

    def load_state_dict(self, tensors: dict):
        own = self.state_dict()
        missing = sorted(set(own) - set(tensors))
        extra = sorted(set(tensors) - set(own))
        if missing or extra:
            raise ValueError(f"state mismatch: missing {missing[:4]}, unexpected {extra[:4]}")
        _copy_into(own, tensors)
        for _, q in self.quantizers():
            q.initialized = True

    def checksum(self) -> int:
        """crc32 over names and payload bytes of the full state."""
        crc = 0
        for name, arr in self.state_dict().items():
            crc = zlib.crc32(name.encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(arr, np.float32).tobytes(), crc)
        return crc

    # -- block call audit --------------------------------------------------------

    def block_call_count(self) -> int:
        return sum(block.calls for block in self.blocks)


def build_model(spec: BlockSpec, precision: str, bits: int | None = None,
                grad_scale_enabled: bool = True, seed: int = 0) -> BlockModel:
    """Construct an fp (quantizer-free) or lp (quantized) model on one spec."""
    if precision == "fp":
        return BlockModel(spec, bits=None, seed=seed)
    if precision == "lp":
        if bits is None:
            raise ValueError("lp model needs a bit-width")
        return BlockModel(spec, bits=bits, grad_scale_enabled=grad_scale_enabled, seed=seed)
    raise ValueError(f"precision must be 'fp' or 'lp', got {precision!r}")


def init_lp_from_fp(lp: BlockModel, fp: BlockModel):
    """Copy every FP value into the LP model and calibrate weight-quantizer
    scales from the copied weights. Activation scales stay lazy (first batch).
    """
    _copy_into(lp.state_dict(), fp.state_dict())
    for _, layer in lp._named_layers():
        for slot, q in layer.quantizers():
            if slot == "wq":
                q.set_scale(init_scale(layer.weight.data, q))


def _copy_into(dst: dict, src: dict):
    """Copy every array of src into the state_dict array dst holds under its name."""
    for name, arr in src.items():
        if name not in dst:
            raise ValueError(f"model has no slot named {name}")
        if dst[name].shape != arr.shape:
            raise ValueError(f"shape mismatch for {name}: {dst[name].shape} vs {arr.shape}")
        np.copyto(dst[name], arr)
