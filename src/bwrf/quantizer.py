"""Learned step-size fake quantization.

Forward: vhat = s * round(clip(v/s, qmin, qmax)) with round-to-nearest,
ties away from zero. Backward treats round as straight-through: the input
gradient passes unchanged strictly inside the clip range and is zero
outside; the scale gradient per element is (round(v/s) - v/s) in range and
qmin/qmax at or beyond the respective threshold, optionally multiplied by
1/sqrt(n_elements * qmax).

All range comparisons use v/s, matching the clip in the forward.

The forward rounds in buffers it owns and, only when the op goes on the
tape, keeps for the backward the output's integer code (one byte per
element) and one float32 array of the per-element scale-gradient terms;
v/s, its rounding and the in-range mask are not kept, the mask being
rebuilt from the code and the term. The output node carries the code and
the scale as its compact form, so the conv after it keeps the code, not
the float output. Under ``no_grad`` it keeps nothing.
"""

from __future__ import annotations

import math

import numpy as np

from bwrf.tensor import Tensor, custom_op, recording

SCALE_FLOOR = 1e-8


class Quantizer:
    """Per-tensor quantizer with a single learnable scale.

    Signed quantizers (weights, and the first activation, which sees
    normalized images) use qmin = -2^(bits-1), qmax = 2^(bits-1) - 1;
    unsigned quantizers (post-relu activations) use qmin = 0,
    qmax = 2^bits - 1.

    The scale starts uninitialized: weight quantizers are calibrated when
    weights are copied in, activation quantizers on their first forward
    batch. ``enabled = False`` turns the quantizer into an exact identity.
    """

    __slots__ = ("bits", "signed", "qmin", "qmax", "scale", "grad_scale_enabled",
                 "enabled", "initialized")

    def __init__(self, bits: int, signed: bool, grad_scale_enabled: bool = True):
        bits = int(bits)
        if bits < 2:
            raise ValueError(f"quantizer needs at least 2 bits, got {bits}")
        self.bits = bits
        self.signed = bool(signed)
        if self.signed:
            self.qmin = -(1 << (bits - 1))
            self.qmax = (1 << (bits - 1)) - 1
        else:
            self.qmin = 0
            self.qmax = (1 << bits) - 1
        self.grad_scale_enabled = bool(grad_scale_enabled)
        self.enabled = True
        self.scale = Tensor(np.ones(1, np.float32), requires_grad=True)
        self.initialized = False

    def __repr__(self):
        kind = "signed" if self.signed else "unsigned"
        return (f"Quantizer(bits={self.bits}, {kind}, range=[{self.qmin}, {self.qmax}], "
                f"scale={self.scale.data.item():.6g})")

    def set_scale(self, value: float):
        # in-place so the (1,) buffer identity survives across state_dict views
        self.scale.data[...] = np.float32(max(float(value), SCALE_FLOOR))
        self.initialized = True


def _round_half_away(x):
    """Round to nearest with ties away from zero, exact in float32.

    trunc and the fractional remainder are exact for |x| below 2^23, which
    holds because x is already clipped to the integer thresholds.
    """
    t = np.trunc(x)
    f = x - t
    t += f >= 0.5
    t -= f <= -0.5
    return t


def init_scale(v: np.ndarray, q: Quantizer) -> float:
    """Calibration value 2 * mean(|v|) / sqrt(qmax) of an array, floored at 1e-8."""
    if v.size == 0:
        raise ValueError("init_scale needs a non-empty array")
    s = 2.0 * float(np.abs(v, dtype=np.float64).mean()) / math.sqrt(q.qmax)
    return max(s, SCALE_FLOOR)


def quantize_forward(v: Tensor, q: Quantizer) -> Tensor:
    """Apply fake quantization as a graph op with the straight-through backward.

    A disabled quantizer returns its input node unchanged. An uninitialized
    scale is calibrated from this tensor's values first.

    Taped, the op keeps the integer code of its output (int8 signed, uint8
    unsigned: every width from 2 to 8 bits fits) and the float32 term, and
    sets ``(code, s32)`` as its output node's compact form, which a conv
    reads in place of the float output. The backward rebuilds the in-range
    mask: inside, |term| <= 0.5; outside, term is the threshold itself,
    which is nonzero but for an unsigned qmin = 0, told apart by code ==
    qmin and term == 0 (inside, those would mean v/s == 0 == qmin). A NaN
    element's term is NaN, so it falls outside as before. Its code is
    unspecified, so a conv rebuilds a finite value where the forward had
    NaN; no output sees it, since that step's loss is NaN and training
    stops on it before any row or checkpoint is written.
    """
    if not q.enabled:
        return v
    if not q.initialized:
        q.set_scale(init_scale(v.data, q))
    s = q.scale.data.item()
    if s <= 0:
        raise ValueError(f"quantizer scale must be positive, got {s}")
    s32 = np.float32(s)
    vc = v.data / s32
    np.clip(vc, q.qmin, q.qmax, out=vc)
    rc = _round_half_away(vc)
    code = term = None
    taped = recording((v, q.scale))
    if taped:
        with np.errstate(invalid="ignore"):  # NaN casts to an unspecified code
            code = rc.astype(np.int8 if q.signed else np.uint8)
        # v/s lies strictly inside the clip range exactly where its clipped
        # value does, and equals it there
        inside = (q.qmin < vc) & (vc < q.qmax)
        # rc - v/s inside the range; outside it rc is the threshold itself
        term = np.subtract(rc, np.multiply(vc, inside, out=vc), out=vc)
    out_data = np.multiply(rc, s32, out=rc)
    factor = (np.float32(1.0 / math.sqrt(v.data.size * q.qmax))
              if q.grad_scale_enabled else None)
    v_grad, qmin = v.requires_grad, q.qmin

    def grad_fn(g):
        # one activation-sized buffer: g * term, then the input gradient
        buf = np.multiply(g, term)
        gs = buf.sum(dtype=np.float32)
        if factor is not None:
            gs = gs * factor
        gv = None
        if v_grad:
            inside = (term >= -0.5) & (term <= 0.5)
            inside &= (term != 0) | (code != qmin)
            gv = np.multiply(g, inside, out=buf)
        return gv, np.full((1,), gs, dtype=np.float32)

    out = custom_op("quantize", out_data, (v, q.scale), grad_fn)
    if taped:
        out.node.compact = (code, s32)
    return out
