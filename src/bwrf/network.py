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
from dataclasses import dataclass, field

import numpy as np

from bwrf import quantizer
from bwrf import tensor as T
from bwrf.quantizer import Quantizer, init_scale
from bwrf.tensor import Tensor

BOUNDARY_BITS = 8  # stem conv and head always quantize at 8 bits
SUPPORTED_BITS = (2, 3, 4, 8, 32)  # 32 means exact full-precision passthrough


class Conv2d:
    def __init__(self, in_ch: int, out_ch: int, k: int, stride: int = 1,
                 padding: int = 0, bias: bool = False, rng=None):
        std = np.sqrt(2.0 / (in_ch * k * k))
        w = rng.standard_normal((out_ch, in_ch, k, k)) * std
        self.weight = Tensor(w.astype(np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch, np.float32), requires_grad=True) if bias else None
        self.stride = stride
        self.padding = padding
        self.wq: Quantizer | None = None
        self.aq: Quantizer | None = None

    def __call__(self, x: Tensor) -> Tensor:
        w = self.weight
        if self.wq is not None:  # wq and aq are attached together
            x, w = quantizer.quantize_forward(x, self.aq), quantizer.quantize_forward(w, self.wq)
        return T.conv2d(x, w, self.bias, stride=self.stride, padding=self.padding)


class Linear:
    def __init__(self, in_f: int, out_f: int, rng=None):
        bound = np.sqrt(1.0 / in_f)
        w = rng.uniform(-bound, bound, size=(out_f, in_f))
        self.weight = Tensor(w.astype(np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(out_f, np.float32), requires_grad=True)
        self.wq: Quantizer | None = None
        self.aq: Quantizer | None = None

    def __call__(self, x: Tensor) -> Tensor:
        w = self.weight
        if self.wq is not None:
            x, w = quantizer.quantize_forward(x, self.aq), quantizer.quantize_forward(w, self.wq)
        return T.linear(x, w, self.bias)


class BatchNorm2d:
    def __init__(self, ch: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(ch, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(ch, np.float32), requires_grad=True)
        self.running_mean = np.zeros(ch, np.float32)
        self.running_var = np.ones(ch, np.float32)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return T.batchnorm2d(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, training, self.momentum, self.eps)


class ResidualUnit:
    """conv-bn-relu-conv-bn plus identity (or 1x1-conv-bn) shortcut, relu out."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng):
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.down_conv = Conv2d(in_ch, out_ch, 1, stride=stride, rng=rng)
            self.down_bn = BatchNorm2d(out_ch)
        else:
            self.down_conv = None
            self.down_bn = None

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = T.relu(self.bn1(self.conv1(x), training))
        h = self.bn2(self.conv2(h), training)
        sc = x if self.down_conv is None else self.down_bn(self.down_conv(x), training)
        return T.relu(T.add(h, sc))

    def convs(self):
        out = [("conv1", self.conv1), ("conv2", self.conv2)]
        if self.down_conv is not None:
            out.append(("down_conv", self.down_conv))
        return out


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
    """Topology shared by the full- and low-precision models."""

    widths: tuple = (16, 32, 64)
    strides: tuple = (1, 2, 2)
    units_per_block: int = 3
    in_channels: int = 3
    num_classes: int = 10

    @property
    def n_blocks(self) -> int:
        return len(self.widths)

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
        self.spec = spec
        self.bits = bits
        self.stem_conv = Conv2d(spec.in_channels, spec.widths[0], 3, stride=1,
                                padding=1, rng=rng)
        self.stem_bn = BatchNorm2d(spec.widths[0])
        self.blocks = []
        in_ch = spec.widths[0]
        for width, stride in zip(spec.widths, spec.strides):
            self.blocks.append(Block(in_ch, width, stride, spec.units_per_block, rng))
            in_ch = width
        self.head = Linear(spec.widths[-1], spec.num_classes, rng=rng)
        self.training = True
        self.frozen = False
        if bits is not None:
            self._attach_quantizers(bits, grad_scale_enabled)

    # -- construction -------------------------------------------------------

    def _attach_quantizers(self, bits: int, grad_scale_enabled: bool):
        if bits not in SUPPORTED_BITS:
            raise ValueError(f"unsupported bit-width {bits}; choose from {SUPPORTED_BITS}")
        passthrough = bits == 32

        def make(layer, w_bits, act_signed):
            b = 8 if passthrough else w_bits
            layer.wq = Quantizer(b, signed=True, grad_scale_enabled=grad_scale_enabled)
            layer.aq = Quantizer(b, signed=act_signed, grad_scale_enabled=grad_scale_enabled)
            if passthrough:
                layer.wq.enabled = False
                layer.aq.enabled = False

        # Stem sees signed normalized images; every later activation follows
        # a relu, so those quantizers are unsigned.
        make(self.stem_conv, BOUNDARY_BITS, act_signed=True)
        for block in self.blocks:
            for unit in block.units:
                for _, conv in unit.convs():
                    make(conv, bits, act_signed=False)
        make(self.head, BOUNDARY_BITS, act_signed=False)

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
        yield "stem.conv", self.stem_conv
        yield "stem.bn", self.stem_bn
        for bi, block in enumerate(self.blocks, start=1):
            for ui, unit in enumerate(block.units):
                base = f"block{bi}.unit{ui}"
                for cname, conv in unit.convs():
                    yield f"{base}.{cname}", conv
                yield f"{base}.bn1", unit.bn1
                yield f"{base}.bn2", unit.bn2
                if unit.down_bn is not None:
                    yield f"{base}.down_bn", unit.down_bn
        yield "head", self.head

    def param_groups(self):
        """(name, tensor, no_decay) for every trainable parameter slot.

        Batchnorm affine parameters and quantizer scales are flagged
        no_decay; weight decay must not shrink them.
        """
        out = []
        for name, layer in self._named_layers():
            if isinstance(layer, BatchNorm2d):
                out.append((f"{name}.gamma", layer.gamma, True))
                out.append((f"{name}.beta", layer.beta, True))
                continue
            out.append((f"{name}.weight", layer.weight, False))
            if layer.bias is not None:
                out.append((f"{name}.bias", layer.bias, False))
            for qn, q in (("wq", layer.wq), ("aq", layer.aq)):
                if q is not None:
                    out.append((f"{name}.{qn}.scale", q.scale, True))
        return out

    def quantizers(self):
        out = []
        for name, layer in self._named_layers():
            if isinstance(layer, BatchNorm2d):
                continue
            for qn, q in (("wq", layer.wq), ("aq", layer.aq)):
                if q is not None:
                    out.append((f"{name}.{qn}", q))
        return out

    def set_quantizers_enabled(self, flag: bool):
        for _, q in self.quantizers():
            q.enabled = flag

    def state_dict(self):
        """Name -> float32 array for every persistent value, in a fixed order:
        parameters, batchnorm running stats, quantizer scales."""
        out = {}
        for name, p, _ in self.param_groups():
            out[name] = p.data
        for name, layer in self._named_layers():
            if isinstance(layer, BatchNorm2d):
                out[f"{name}.running_mean"] = layer.running_mean
                out[f"{name}.running_var"] = layer.running_var
        return out

    def load_state_dict(self, tensors: dict):
        own = self.state_dict()
        missing = sorted(set(own) - set(tensors))
        extra = sorted(set(tensors) - set(own))
        if missing or extra:
            raise ValueError(f"state mismatch: missing {missing[:4]}, unexpected {extra[:4]}")
        for name, arr in tensors.items():
            dst = own[name]
            if dst.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {dst.shape} vs {arr.shape}")
            np.copyto(dst, arr)
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

    def reset_block_counters(self):
        for block in self.blocks:
            block.calls = 0

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
    src = fp.state_dict()
    dst = lp.state_dict()
    for name, arr in src.items():
        if name not in dst:
            raise ValueError(f"LP model has no slot named {name}")
        if dst[name].shape != arr.shape:
            raise ValueError(f"shape mismatch for {name}: {dst[name].shape} vs {arr.shape}")
        np.copyto(dst[name], arr)
    for name, layer in lp._named_layers():
        if isinstance(layer, BatchNorm2d):
            continue
        if layer.wq is not None:
            layer.wq.set_scale(init_scale(layer.weight.data, layer.wq))
