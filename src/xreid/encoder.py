"""Minimal trainable two-stream encoder with exact reverse-mode gradients.

Architecture, applied per local descriptor: a modality-specific dense stack
(independent weights per modality), a shared dense stack, ReLU after every
dense layer, then generalized-mean (GeM) pooling across each sample's H
descriptor outputs, batch normalization, and a linear identity classifier.
Pooled (pre-BN) features feed the metric losses and retrieval; logits feed
the identity loss.

The forward pass records a tape; ``backward`` replays it to produce exact
gradients for every parameter, including BN batch statistics in training
mode and (optionally) the GeM power. Training updates use momentum SGD with
linear warmup and two step decays.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from .data import THERMAL, VISIBLE

CHECKPOINT_MAGIC = "xreid-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderShape:
    """Static architecture description (widths, head sizes, BN constants)."""

    descriptor_dim: int
    num_classes: int
    specific_widths: tuple[int, ...] = (32, 64)
    shared_widths: tuple[int, ...] = (64, 64)
    gem_p: float = 3.0
    gem_p_learnable: bool = False
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "specific_widths", tuple(int(w) for w in self.specific_widths))
        object.__setattr__(self, "shared_widths", tuple(int(w) for w in self.shared_widths))
        if self.gem_p < 1:
            raise ValueError(f"gem_p must be >= 1, got {self.gem_p}")

    @property
    def embedding_dim(self) -> int:
        for widths in (self.shared_widths, self.specific_widths):
            if widths:
                return widths[-1]
        return self.descriptor_dim


def param_layout(shape: EncoderShape) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, array shape) of every stored array, in canonical order."""
    layout = []
    mid = shape.specific_widths[-1] if shape.specific_widths else shape.descriptor_dim
    for branch, in_dim, widths in (
        ("specific_visible", shape.descriptor_dim, shape.specific_widths),
        ("specific_thermal", shape.descriptor_dim, shape.specific_widths),
        ("shared", mid, shape.shared_widths),
    ):
        for i, width in enumerate(widths):
            layout += [(f"{branch}.{i}.w", (in_dim, width)), (f"{branch}.{i}.b", (width,))]
            in_dim = width
    emb, classes = shape.embedding_dim, shape.num_classes
    layout += [("gem_p", ())]
    layout += [(f"bn.{n}", (emb,)) for n in ("gamma", "beta", "running_mean", "running_var")]
    layout += [("classifier.w", (emb, classes)), ("classifier.b", (classes,))]
    return tuple(layout)


class FlatArrays(Mapping):
    """Named float64 arrays stored back to back in one flat buffer.

    Each name maps to a view into ``buffer``; assigning to a name copies
    into its view, whose shape the value must have.
    """

    def __init__(self, layout, buffer: np.ndarray | None = None):
        self.layout = tuple(layout)
        self.offsets = list(itertools.accumulate((math.prod(s) for _, s in self.layout), initial=0))
        size = self.offsets[-1]
        if buffer is None:
            buffer = np.zeros(size)
        if buffer.shape != (size,) or buffer.dtype != np.float64:
            raise ValueError(f"buffer must be ({size},) float64, got {buffer.shape} {buffer.dtype}")
        self.buffer = buffer
        self._views = {
            name: buffer[a:b].reshape(shape)
            for (name, shape), a, b in zip(self.layout, self.offsets, self.offsets[1:])
        }

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        view, value = self._views[name], np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ValueError(f"shape {value.shape} does not match {name!r} shape {view.shape}")
        view[...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def zeros_like(self) -> "FlatArrays":
        return FlatArrays(self.layout)

    def name_at(self, element: int) -> str:
        """Name of the array holding flat buffer element ``element``."""
        return self.layout[bisect.bisect_right(self.offsets, element) - 1][0]


class EncoderParams:
    """All weights plus BN running statistics (stored but not trained).

    Every array lives in one float64 buffer, ``arrays.buffer``, laid out in
    :meth:`named_arrays` order; each attribute is a view into it. Write
    parameters in place (``w[...] = value``); the layer stacks are tuples of
    ``(w, b)`` views so that a layer cannot be rebound out of the buffer.
    """

    def __init__(self, shape: EncoderShape, buffer: np.ndarray | None = None):
        self.shape = shape
        self.arrays = FlatArrays(param_layout(shape), buffer)
        a = self.arrays

        def stack(branch, depth):
            return tuple((a[f"{branch}.{i}.w"], a[f"{branch}.{i}.b"]) for i in range(depth))

        self.specific_visible = stack("specific_visible", len(shape.specific_widths))
        self.specific_thermal = stack("specific_thermal", len(shape.specific_widths))
        self.shared = stack("shared", len(shape.shared_widths))
        self.gem_p = a["gem_p"]  # 0-d so it can be updated like any parameter
        self.bn_gamma = a["bn.gamma"]
        self.bn_beta = a["bn.beta"]
        self.bn_running_mean = a["bn.running_mean"]
        self.bn_running_var = a["bn.running_var"]
        self.cls_w = a["classifier.w"]
        self.cls_b = a["classifier.b"]

    @property
    def buffer(self) -> np.ndarray:
        return self.arrays.buffer

    def named_arrays(self):
        """(name, array) for every stored array, in canonical order."""
        return self.arrays.items()

    def trainable_names(self) -> list[str]:
        names = [n for n in self.arrays if not n.startswith("bn.running")]
        if not self.shape.gem_p_learnable:
            names.remove("gem_p")
        return names

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.shape, self.buffer.copy())


def init_params(shape: EncoderShape, rng: np.random.Generator) -> EncoderParams:
    """He-initialized weights, zero biases, unit BN scale.

    The two modality-specific stacks start as copies of one draw (mirroring
    a shared pretrained backbone) and only diverge through training; with
    independent draws the initial cross-modal gap is pure weight noise and
    the metric losses fire on every pair from step one.
    """
    params = EncoderParams(shape)
    for (wv, _), (wt, _) in zip(params.specific_visible, params.specific_thermal):
        wv[...] = rng.standard_normal(wv.shape) * np.sqrt(2.0 / wv.shape[0])
        wt[...] = wv
    for w, _ in params.shared:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    params.cls_w[...] = rng.standard_normal(params.cls_w.shape) * np.sqrt(1.0 / shape.embedding_dim)
    params.gem_p[...] = shape.gem_p
    params.bn_gamma[...] = 1.0
    params.bn_running_var[...] = 1.0
    return params


def _run_stack(layers, x, record=None):
    for w, b in layers:
        pre = x @ w + b
        if record is not None:
            record.append((x, pre))
        x = np.maximum(pre, 0.0)
    return x


@dataclass
class Tape:
    """Everything the matching backward pass needs."""

    params: EncoderParams
    train: bool
    vis_rows: np.ndarray
    th_rows: np.ndarray
    specific_visible: list  # (input, pre-activation) per layer
    specific_thermal: list
    shared: list
    gem_in: np.ndarray      # (N, H, D) post-ReLU descriptor outputs
    gem_mean: np.ndarray    # (N, D) mean of x^p
    pooled: np.ndarray
    bn_ivar: np.ndarray
    bn_xhat: np.ndarray
    bn_out: np.ndarray
    logits: np.ndarray


@dataclass(frozen=True)
class Forward:
    pooled: np.ndarray
    bn_features: np.ndarray
    logits: np.ndarray
    tape: Tape


def _pow(x: np.ndarray, p: float) -> np.ndarray:
    """``x ** p`` for ``x >= 0`` and ``p > 0``, bit for bit, in a new array.

    numpy's float64 power is several times slower at 0 than elsewhere, and
    about half of the post-ReLU GeM inputs are exactly 0; they are raised as
    1 and zeroed after (so a ``-0.0`` comes out as ``+0.0``). Wrong for
    ``p <= 0``, where ``0 ** p`` is not 0.
    """
    zero = x == 0
    y = x + zero
    np.power(y, p, out=y)
    y *= ~zero
    return y


def _pool(params: EncoderParams, descriptors, modalities, records=(None, None, None)):
    """The dense stacks, then GeM pooling over each sample's H descriptors.

    Returns the flat rows of each modality, the GeM input, its mean of x^p
    and the pooled features. With ``records`` (one list per stack: visible,
    thermal, shared) each layer's (input, pre-activation) is appended.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    modalities = np.asarray(modalities)
    n, h, d_in = descriptors.shape
    if d_in != params.shape.descriptor_dim:
        raise ValueError(
            f"descriptor dim {d_in} does not match encoder input dim {params.shape.descriptor_dim}"
        )

    flat = descriptors.reshape(n * h, d_in)
    flat_modality = np.repeat(modalities, h)
    vis_rows = np.where(flat_modality == VISIBLE)[0]
    th_rows = np.where(flat_modality == THERMAL)[0]

    mid_dim = params.shape.specific_widths[-1] if params.shape.specific_widths else d_in
    mid = np.empty((n * h, mid_dim))
    mid[vis_rows] = _run_stack(params.specific_visible, flat[vis_rows], records[0])
    mid[th_rows] = _run_stack(params.specific_thermal, flat[th_rows], records[1])
    out = _run_stack(params.shared, mid, records[2])

    gem_in = out.reshape(n, h, out.shape[1])
    p = float(params.gem_p)
    gem_mean = np.mean(_pow(gem_in, p), axis=1)
    return vis_rows, th_rows, gem_in, gem_mean, _pow(gem_mean, 1.0 / p)


def _batch_norm(params: EncoderParams, pooled, mu, var):
    ivar = 1.0 / np.sqrt(var + params.shape.bn_eps)
    xhat = (pooled - mu) * ivar
    return ivar, xhat, params.bn_gamma * xhat + params.bn_beta


def forward(
    params: EncoderParams,
    descriptors,
    modalities,
    train: bool = True,
) -> Forward:
    """Run the two-stream encoder over a batch of descriptor grids.

    In training mode BN uses batch statistics and updates the running ones in
    place; in eval mode it uses the stored running statistics and the pass is
    exactly per-sample.
    """
    records = ([], [], [])
    vis_rows, th_rows, gem_in, gem_mean, pooled = _pool(params, descriptors, modalities, records)
    if train:
        mu = pooled.mean(axis=0)
        var = pooled.var(axis=0)
        mom = params.shape.bn_momentum
        params.bn_running_mean *= 1.0 - mom
        params.bn_running_mean += mom * mu
        params.bn_running_var *= 1.0 - mom
        params.bn_running_var += mom * var
    else:
        mu = params.bn_running_mean
        var = params.bn_running_var
    ivar, xhat, bn_out = _batch_norm(params, pooled, mu, var)
    logits = bn_out @ params.cls_w + params.cls_b

    tape = Tape(params, train, vis_rows, th_rows, *records,
                gem_in, gem_mean, pooled, ivar, xhat, bn_out, logits)
    return Forward(pooled=pooled, bn_features=bn_out, logits=logits, tape=tape)


def embed(params: EncoderParams, descriptors, modalities, bn: bool = False) -> np.ndarray:
    """Eval-mode features of a batch: the pooled ones, or with ``bn`` the
    ones batch-normalized by the running statistics.

    The values equal ``forward(..., train=False)``'s ``pooled`` and
    ``bn_features`` bit for bit; no logits are computed and no layer's
    activations are kept for a backward pass.
    """
    pooled = _pool(params, descriptors, modalities)[-1]
    if not bn:
        return pooled
    return _batch_norm(params, pooled, params.bn_running_mean, params.bn_running_var)[2]


def _stack_backward(layers, record, d_out, grads, prefix, input_grad=True):
    # the gradient at the stack's input, or None without ``input_grad``,
    # which skips the first layer's d_pre @ w.T
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        x, pre = record[i]
        d_pre = d_out * (pre > 0)
        np.matmul(x.T, d_pre, out=grads[f"{prefix}.{i}.w"])
        np.add.reduce(d_pre, axis=0, out=grads[f"{prefix}.{i}.b"])
        if i > 0 or input_grad:
            d_out = d_pre @ w.T
    return d_out if input_grad else None


def backward(tape: Tape, grad_pooled, grad_logits) -> FlatArrays:
    """Exact gradients of (grad_pooled . pooled + grad_logits . logits).

    Returns a gradient buffer laid out like the parameters'; the slots of
    untrained arrays (BN running statistics, a fixed GeM power) stay 0. BN
    batch statistics are differentiated through in training mode.
    """
    params = tape.params
    grad_pooled = np.asarray(grad_pooled, dtype=np.float64)
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_pooled.shape != tape.pooled.shape:
        raise ValueError(
            f"grad_pooled shape {grad_pooled.shape} does not match tape pooled {tape.pooled.shape}"
        )
    if grad_logits.shape != tape.logits.shape:
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} does not match tape logits {tape.logits.shape}"
        )
    grads = params.arrays.zeros_like()
    n, h = tape.gem_in.shape[:2]

    # classifier
    np.matmul(tape.bn_out.T, grad_logits, out=grads["classifier.w"])
    np.add.reduce(grad_logits, axis=0, out=grads["classifier.b"])
    d_bn_out = grad_logits @ params.cls_w.T

    # batch norm
    grads["bn.gamma"] = (d_bn_out * tape.bn_xhat).sum(axis=0)
    grads["bn.beta"] = d_bn_out.sum(axis=0)
    d_xhat = d_bn_out * params.bn_gamma
    if tape.train:
        m = float(n)
        d_pooled_bn = (tape.bn_ivar / m) * (
            m * d_xhat - d_xhat.sum(axis=0) - tape.bn_xhat * (d_xhat * tape.bn_xhat).sum(axis=0)
        )
    else:
        d_pooled_bn = d_xhat * tape.bn_ivar
    d_pooled = grad_pooled + d_pooled_bn

    # GeM: pooled = mean(x^p)^(1/p) per channel over H descriptors
    p = float(params.gem_p)
    m_pos = tape.gem_mean > 0
    safe_mean = np.where(m_pos, tape.gem_mean, 1.0)
    outer = np.where(m_pos, safe_mean ** (1.0 / p - 1.0), 0.0)
    d_gem_in = (d_pooled * outer / h)[:, None, :] * tape.gem_in ** (p - 1.0)
    if params.shape.gem_p_learnable:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_m = np.where(m_pos, np.log(np.where(m_pos, tape.gem_mean, 1.0)), 0.0)
            x_logx = np.where(tape.gem_in > 0, _pow(tape.gem_in, p) * np.log(np.where(tape.gem_in > 0, tape.gem_in, 1.0)), 0.0)
        mean_xlogx = x_logx.mean(axis=1)
        d_p_per = np.where(
            m_pos,
            tape.pooled * (-log_m / p**2 + mean_xlogx / (p * np.where(m_pos, tape.gem_mean, 1.0))),
            0.0,
        )
        grads["gem_p"] = np.asarray((d_pooled * d_p_per).sum())

    d_shared_out = d_gem_in.reshape(n * h, -1)
    d_mid = _stack_backward(params.shared, tape.shared, d_shared_out, grads, "shared")
    # the descriptors take no gradient
    _stack_backward(
        params.specific_visible, tape.specific_visible, d_mid[tape.vis_rows],
        grads, "specific_visible", input_grad=False,
    )
    _stack_backward(
        params.specific_thermal, tape.specific_thermal, d_mid[tape.th_rows],
        grads, "specific_thermal", input_grad=False,
    )
    return grads


@dataclass(frozen=True)
class SgdHyper:
    """Momentum SGD with warmup and two step decays, as one schedule."""

    base_lr: float
    momentum: float = 0.9
    weight_decay: float = 5e-4
    warmup_epochs: int = 2
    total_epochs: int = 20


def lr_factor(epoch: int, hyper: SgdHyper) -> float:
    """Multiplier on base_lr: linear warmup from 0.1, then x0.1 at 60% and 90%."""
    if hyper.warmup_epochs > 0 and epoch < hyper.warmup_epochs:
        return 0.1 + 0.9 * epoch / hyper.warmup_epochs
    factor = 1.0
    first = max(int(0.6 * hyper.total_epochs), hyper.warmup_epochs)
    second = max(int(0.9 * hyper.total_epochs), hyper.warmup_epochs)
    if epoch >= first:
        factor *= 0.1
    if epoch >= second:
        factor *= 0.1
    return factor


class SgdState:
    """Momentum buffer and per-element weight decay, each the size of the
    parameter buffer, made on the first step from that step's parameters
    and hyperparameters: one state serves one run."""

    def __init__(self):
        self.velocity: np.ndarray | None = None
        self.decay: np.ndarray | None = None


def sgd_step(
    params: EncoderParams,
    grads: FlatArrays,
    state: SgdState,
    hyper: SgdHyper,
    epoch: int = 0,
) -> None:
    """One momentum-SGD update in place, over the whole parameter buffer.

    Weight decay is added to the raw gradient for every parameter except the
    BN scale/shift and the GeM power; the GeM power is clamped back to >= 1
    after the update. A non-finite gradient aborts the step before any
    parameter changes. Untrained arrays have zero gradient slots (as
    :func:`backward` leaves them) and no decay, so they stay as they are.
    """
    if grads.layout != params.arrays.layout:
        raise ValueError("gradient layout does not match the parameters")
    g = grads.buffer
    if not np.isfinite(g).all():
        name = grads.name_at(int(np.argmin(np.isfinite(g))))
        size = grads[name].size
        bad = int(size - np.isfinite(grads[name]).sum())
        raise FloatingPointError(f"non-finite gradient in {name!r}: {bad} of {size} entries")
    if state.velocity is None:
        state.velocity = np.zeros_like(params.buffer)
        # no decay on BN scale/shift, the GeM power and the untrained arrays
        decayed = set(params.trainable_names()) - {"bn.gamma", "bn.beta", "gem_p"}
        state.decay = np.concatenate([
            np.full(arr.size, hyper.weight_decay * (name in decayed))
            for name, arr in params.named_arrays()
        ])
    lr = hyper.base_lr * lr_factor(epoch, hyper)
    arr, v = params.buffer, state.velocity
    step = state.decay * arr
    step += g
    v *= hyper.momentum
    v += step
    arr -= np.multiply(v, lr, out=step)
    if params.shape.gem_p_learnable and params.gem_p < 1.0:
        params.gem_p[...] = 1.0


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write parameters as a self-describing binary container.

    Layout: one UTF-8 JSON header line (magic, version, shape metadata, and
    an ordered array table of name/shape/dtype), a newline, then the raw
    little-endian row-major array blobs concatenated in table order, which
    is the parameter buffer's bytes.
    """
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "shape": asdict(params.shape),
        "arrays": [
            {"name": name, "shape": list(shape), "dtype": "<f8"}
            for name, shape in params.arrays.layout
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.buffer.astype("<f8", copy=False).tobytes())


def load_checkpoint(path, expected_shape: EncoderShape | None = None) -> EncoderParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises on magic/version mismatch, on an array table that does not match
    the declared architecture, on a truncated file or bytes after the last
    blob, and on any shape disagreement with ``expected_shape`` when one is
    given.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not an encoder checkpoint")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
        shape = EncoderShape(**header["shape"])
        if expected_shape is not None and shape != expected_shape:
            raise ValueError(
                f"{path}: checkpoint shape {shape} does not match expected {expected_shape}"
            )
        params = EncoderParams(shape)
        table = tuple((e["name"], tuple(e["shape"])) for e in header["arrays"])
        if table != params.arrays.layout:
            raise ValueError(f"{path}: array table does not match the declared architecture")
        blob = fh.read(params.buffer.nbytes)
        if len(blob) != params.buffer.nbytes:
            name = params.arrays.name_at(len(blob) // 8)
            raise ValueError(f"{path}: truncated blob for {name!r}")
        trailing = len(fh.read())
        if trailing:
            raise ValueError(f"{path}: {trailing} trailing bytes after the last array blob")
    params.buffer[:] = np.frombuffer(blob, dtype="<f8")
    return params


__all__ = [
    "EncoderShape",
    "EncoderParams",
    "FlatArrays",
    "param_layout",
    "Forward",
    "Tape",
    "SgdHyper",
    "SgdState",
    "init_params",
    "forward",
    "embed",
    "backward",
    "lr_factor",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
]
