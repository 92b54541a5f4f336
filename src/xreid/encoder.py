"""Minimal trainable two-stream encoder with exact reverse-mode gradients.

Architecture, applied per local descriptor: a modality-specific dense stack
(independent weights per modality), a shared dense stack, ReLU after every
dense layer, then generalized-mean (GeM) pooling across each sample's H
descriptor outputs, batch normalization, and a linear identity classifier.
Pooled (pre-BN) features feed the metric losses and retrieval; logits feed
the identity loss.

Parameters and gradients are both :class:`EncoderParams`: named views into
one flat float64 buffer. ``forward`` returns its :class:`Tape`, which holds
the pooled features, BN features and logits and what ``backward`` replays
to produce exact gradients for every parameter, including BN batch
statistics in training mode and (optionally) the GeM power. Training
updates use momentum SGD with linear warmup and two step decays, applied to
the whole buffer at once. ``encode_dataset`` is the eval pass over a whole
descriptor set: its pooled or BN features, chunk by chunk, with no tape.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from .data import THERMAL, VISIBLE, DescriptorSet, FeatureSet

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
        for name in ("specific_widths", "shared_widths"):
            widths = tuple(int(w) for w in getattr(self, name))
            if any(w < 1 for w in widths):
                raise ValueError(f"encoder {name} must be >= 1, got {widths}")
            object.__setattr__(self, name, widths)
        if not self.gem_p >= 1:
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


class EncoderParams(Mapping):
    """All weights plus BN running statistics (stored but not trained), as
    named float64 arrays back to back in one flat buffer.

    Each name of :func:`param_layout` maps to a view into ``buffer``, and
    the attributes (``shared[i]``, ``cls_w``, ...) are the same views.
    Write parameters in place (``w[...] = value``, or ``params[name] =
    value``, which copies into the view and checks its shape); the layer
    stacks are tuples of ``(w, b)`` views so that a layer cannot be rebound
    out of the buffer. :func:`backward` writes its gradient into one of these.
    """

    def __init__(self, shape: EncoderShape, buffer: np.ndarray | None = None):
        self.shape = shape
        self.layout = param_layout(shape)
        self.offsets = list(itertools.accumulate((math.prod(s) for _, s in self.layout), initial=0))
        size = self.offsets[-1]
        if buffer is None:
            buffer = np.zeros(size)
        if buffer.shape != (size,) or buffer.dtype != np.float64:
            raise ValueError(f"buffer must be ({size},) float64, got {buffer.shape} {buffer.dtype}")
        self.buffer = buffer
        a = self._views = {
            name: buffer[start:stop].reshape(dims)
            for (name, dims), start, stop in zip(self.layout, self.offsets, self.offsets[1:])
        }

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

    def name_at(self, element: int) -> str:
        """Name of the array holding flat buffer element ``element``."""
        return self.layout[bisect.bisect_right(self.offsets, element) - 1][0]

    def trainable_names(self) -> list[str]:
        names = [n for n in self if not n.startswith("bn.running")]
        if not self.shape.gem_p_learnable:
            names.remove("gem_p")
        return names

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(self.shape)

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


def _run_stack(layers, x, outs=()):
    # bias and ReLU in place on each layer's product, which goes into
    # ``outs[i]`` where there is one, else into a new array
    for i, (w, b) in enumerate(layers):
        x = np.matmul(x, w, out=outs[i] if i < len(outs) else None)
        x += b
        np.maximum(x, 0.0, out=x)
    return x


@dataclass
class Tape:
    """A forward pass's outputs (``pooled``, ``bn_features``, ``logits``)
    and everything the matching backward pass needs.

    The shared stack is recorded as depth + 1 arrays: every layer's input,
    then the stack's (post-ReLU) output, which is the GeM input's buffer. A
    modality-specific stack keeps only its layers' inputs: its output is
    that modality's rows of the shared stack's input ``shared[0]``, and
    nowhere else. No pre-activation is kept: a layer's ReLU mask is taken
    from its output, which is > 0 exactly where the pre-activation is.

    ``backward`` reads the tape and never writes to it. ``forward(...,
    out=tape)`` writes a new batch of the same shape into the tape's
    buffers, so a training loop keeps one tape for the whole run; only the
    two row-index arrays are made anew.
    """

    params: EncoderParams
    train: bool
    vis_rows: np.ndarray
    th_rows: np.ndarray
    specific_visible: list  # each layer's input
    specific_thermal: list
    shared: list            # each layer's input, then the stack's output
    gem_in: np.ndarray      # (N, H, D) post-ReLU descriptor outputs
    gem_pow: np.ndarray | None  # gem_in ** p with a learnable p, else None
    gem_mean: np.ndarray    # (N, D) mean of x^p
    pooled: np.ndarray
    bn_ivar: np.ndarray
    bn_xhat: np.ndarray
    bn_features: np.ndarray
    logits: np.ndarray


def _new_tape(params: EncoderParams, train: bool, vis_rows, th_rows, n: int, h: int) -> Tape:
    # every buffer of a tape for n samples of h descriptors, unfilled
    shape = params.shape
    widths = (shape.descriptor_dim, *shape.specific_widths)
    emb = shape.embedding_dim

    def stack(rows, dims):
        return [np.empty((rows, d)) for d in dims]

    shared = stack(n * h, (widths[-1], *shape.shared_widths))
    return Tape(
        params=params, train=train, vis_rows=vis_rows, th_rows=th_rows,
        specific_visible=stack(len(vis_rows), widths[:-1]),
        specific_thermal=stack(len(th_rows), widths[:-1]),
        shared=shared,
        gem_in=shared[-1].reshape(n, h, emb),
        gem_pow=np.empty((n, h, emb)) if shape.gem_p_learnable else None,
        gem_mean=np.empty((n, emb)),
        pooled=np.empty((n, emb)),
        bn_ivar=np.empty(emb),
        bn_xhat=np.empty((n, emb)),
        bn_features=np.empty((n, emb)),
        logits=np.empty((n, shape.num_classes)),
    )


def _pow(x: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """``x ** p`` for ``x >= 0``, bit for bit, in ``out`` or a new array, but
    0 wherever ``x`` is 0.

    numpy's float64 power is several times slower at 0 than elsewhere, and
    about half of the post-ReLU GeM inputs are exactly 0 at initialization
    (more after training); they are raised as 1 and zeroed after (so a
    ``-0.0`` comes out as ``+0.0``). At ``p == 2`` numpy squares, which is
    fast at 0 too. For ``p > 0`` that is ``x ** p`` everywhere. For
    ``p <= 0``, where ``0 ** p`` is 1 or inf, the 0 is what GeM's backward
    pass takes for a channel whose mean is 0.
    """
    if p == 2.0:
        return np.square(x, out=out)
    zero = x == 0
    y = np.add(x, zero, out=out)
    np.power(y, p, out=y)
    y *= ~zero
    return y


def _rows(params: EncoderParams, descriptors, modalities):
    # the (N * H, D_in) descriptor rows, H, and the visible and thermal rows
    descriptors = np.asarray(descriptors, dtype=np.float64)
    n, h, d_in = descriptors.shape
    if d_in != params.shape.descriptor_dim:
        raise ValueError(
            f"descriptor dim {d_in} does not match encoder input dim {params.shape.descriptor_dim}"
        )
    flat_modality = np.repeat(np.asarray(modalities), h)
    vis_rows = np.where(flat_modality == VISIBLE)[0]
    th_rows = np.where(flat_modality == THERMAL)[0]
    return descriptors.reshape(n * h, d_in), h, vis_rows, th_rows


def _pool(params: EncoderParams, flat, h, rows, records=((), (), ()),
          gem_pow=None, gem_mean=None, pooled=None):
    """The dense stacks, then GeM pooling over each sample's H descriptors;
    returns the pooled features.

    ``flat`` holds the (N * H, D_in) descriptor rows and ``rows`` the
    visible and the thermal row indices. Without buffers, every array is
    new and only the pooled features outlive the call. With a tape's
    buffers (its visible, thermal and shared records, x^p, the mean of that
    and the pooled features), every result is written into them: each
    stack's record gets its layers' inputs, the shared one also its output,
    and a specific stack's output goes into its rows of the shared stack's
    input.
    """
    shared = records[2]
    if shared:
        mid = shared[0]
    else:
        widths = params.shape.specific_widths
        mid = np.empty((len(flat), widths[-1] if widths else flat.shape[1]))
    for layers, index, record in zip((params.specific_visible, params.specific_thermal), rows, records):
        # the rows are in range; under its default mode "raise", take
        # writes through a second buffer when given ``out``
        x = np.take(flat, index, axis=0, out=record[0] if record else None, mode="clip")
        mid[index] = _run_stack(layers, x, record[1:])
    out = _run_stack(params.shared, mid, shared[1:])

    gem_in = out.reshape(len(out) // h, h, out.shape[1])
    p = float(params.gem_p)
    gem_pow = _pow(gem_in, p, out=gem_pow)
    gem_mean = np.add.reduce(gem_pow, axis=1, out=gem_mean)
    gem_mean /= h  # numpy's mean over axis 1, without its call overhead
    return _pow(gem_mean, 1.0 / p, out=pooled)


def _batch_norm(params: EncoderParams, pooled, mu, var, ivar=None, xhat=None, out=None):
    # 1 / sqrt(var + eps), (pooled - mu) * ivar and gamma * xhat + beta, each
    # into its buffer if given
    ivar = np.add(var, params.shape.bn_eps, out=ivar)
    np.sqrt(ivar, out=ivar)
    np.divide(1.0, ivar, out=ivar)
    xhat = np.subtract(pooled, mu, out=xhat)
    xhat *= ivar
    out = np.multiply(params.bn_gamma, xhat, out=out)
    out += params.bn_beta
    return ivar, xhat, out


def forward(
    params: EncoderParams,
    descriptors,
    modalities,
    train: bool = True,
    out: Tape | None = None,
) -> Tape:
    """Run the two-stream encoder over a batch of descriptor grids.

    In training mode BN uses batch statistics and updates the running ones in
    place; in eval mode it uses the stored running statistics and the pass is
    exactly per-sample.

    Returns a new :class:`Tape`, or with ``out`` (a tape from an earlier
    call on a batch of the same shape: samples, descriptors per sample and
    rows of each modality, under an encoder of the same shape) that tape,
    with every array it keeps written into its own buffers. The values are
    the same bits either way. An ``out`` of another shape raises
    ``ValueError`` naming what differs.
    """
    flat, h, vis_rows, th_rows = _rows(params, descriptors, modalities)
    n = len(flat) // h
    if out is None:
        tape = _new_tape(params, train, vis_rows, th_rows, n, h)
    else:
        had = (out.params.shape, *out.gem_in.shape[:2], len(out.vis_rows), len(out.th_rows))
        got = (params.shape, n, h, len(vis_rows), len(th_rows))
        what = ("encoder shape", "samples", "descriptors per sample", "visible rows", "thermal rows")
        differ = [f"{w} {a} vs {b}" for w, a, b in zip(what, had, got) if a != b]
        if differ:
            raise ValueError(f"out tape does not fit this batch (tape vs batch): {'; '.join(differ)}")
        tape = out
        tape.params, tape.train, tape.vis_rows, tape.th_rows = params, train, vis_rows, th_rows

    pooled = _pool(params, flat, h, (vis_rows, th_rows),
                   (tape.specific_visible, tape.specific_thermal, tape.shared),
                   tape.gem_pow, tape.gem_mean, tape.pooled)
    if train:
        # numpy's mean and var (ddof 0) of the columns, sharing one column
        # sum: the same operations in the same order, so the same bits
        mu = np.add.reduce(pooled, axis=0)
        mu /= n
        var = np.subtract(pooled, mu, out=tape.bn_xhat)  # scratch until xhat is written
        np.square(var, out=var)
        var = np.add.reduce(var, axis=0)
        var /= n
        mom = params.shape.bn_momentum
        params.bn_running_mean *= 1.0 - mom
        params.bn_running_mean += mom * mu
        params.bn_running_var *= 1.0 - mom
        params.bn_running_var += mom * var
    else:
        mu = params.bn_running_mean
        var = params.bn_running_var
    _batch_norm(params, pooled, mu, var, tape.bn_ivar, tape.bn_xhat, tape.bn_features)
    np.matmul(tape.bn_features, params.cls_w, out=tape.logits)
    tape.logits += params.cls_b
    return tape


CHUNK_ROWS = 256  # descriptor rows per encode_dataset chunk


def encode_dataset(params: EncoderParams, dataset: DescriptorSet, features: str = "pooled") -> FeatureSet:
    """Eval-mode features of a whole dataset: the pooled ones, or with
    ``features="bn"`` the ones batch-normalized by the running statistics.

    They equal ``forward(..., train=False)``'s ``pooled`` and
    ``bn_features`` bit for bit, with no logits and no tape. A chunk holds
    ``CHUNK_ROWS // H`` samples (at least one) of H descriptor rows each: 64
    at the default H = 4, whose activations take about 128 KB per 64-wide
    layer. Each chunk is pooled (and normalized in place) straight into its
    rows of one (N, D) array, so only one chunk's activations are alive at
    a time. The pass works row by row, so the features do not depend on the
    chunk size.
    """
    if features not in ("pooled", "bn"):
        raise ValueError(f"features must be 'pooled' or 'bn', got {features!r}")
    chunk = max(1, CHUNK_ROWS // dataset.descriptors.shape[1])
    out = np.empty((len(dataset), params.shape.embedding_dim))
    for start in range(0, len(dataset), chunk):
        sl = slice(start, start + chunk)
        flat, h, vis_rows, th_rows = _rows(params, dataset.descriptors[sl], dataset.modalities[sl])
        pooled = _pool(params, flat, h, (vis_rows, th_rows), pooled=out[sl])
        if features == "bn":
            _batch_norm(params, pooled, params.bn_running_mean, params.bn_running_var,
                        xhat=pooled, out=pooled)
    return FeatureSet(out, dataset.identities, dataset.modalities)


def _stack_backward(layers, record, d_out, grad_layers, input_grad=True):
    # writes each layer's (w, b) gradient into ``grad_layers``; returns the
    # gradient at the stack's input, or None without ``input_grad``, which
    # skips the first layer's product with w.T. ``record`` holds each
    # layer's input and may hold the stack's output after them; without it,
    # ``d_out`` comes with the last layer's ReLU mask already applied.
    # ``d_out`` is the caller's to overwrite: each layer's ReLU mask (its
    # output > 0) is multiplied into the incoming gradient in place.
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        if i + 1 < len(record):
            d_out *= record[i + 1] > 0
        np.matmul(record[i].T, d_out, out=grad_layers[i][0])
        np.add.reduce(d_out, axis=0, out=grad_layers[i][1])
        if i > 0 or input_grad:
            d_out = d_out @ w.T
    return d_out if input_grad else None


def backward(tape: Tape, grad_pooled, grad_logits, out: EncoderParams) -> EncoderParams:
    """Exact gradients of (grad_pooled . pooled + grad_logits . logits).

    Writes the gradient into ``out``, an :class:`EncoderParams` of the
    parameters' shape whose old values are never read, and returns it. A
    training loop passes the same ``out`` every step instead of building a
    gradient set per step. Every slot is written: the arrays of untrained
    parameters (BN running statistics, a fixed GeM power) are set to 0. BN
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
    grads = out
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match the parameters' {params.shape}")
    grads.bn_running_mean[...] = 0.0
    grads.bn_running_var[...] = 0.0
    n, h = tape.gem_in.shape[:2]

    # classifier
    np.matmul(tape.bn_features.T, grad_logits, out=grads.cls_w)
    np.add.reduce(grad_logits, axis=0, out=grads.cls_b)
    d_bn_features = grad_logits @ params.cls_w.T

    # batch norm
    np.add.reduce(d_bn_features * tape.bn_xhat, axis=0, out=grads.bn_gamma)
    np.add.reduce(d_bn_features, axis=0, out=grads.bn_beta)
    d_xhat = d_bn_features * params.bn_gamma
    if tape.train:
        m = float(n)
        d_pooled_bn = (tape.bn_ivar / m) * (
            m * d_xhat
            - np.add.reduce(d_xhat, axis=0)
            - tape.bn_xhat * np.add.reduce(d_xhat * tape.bn_xhat, axis=0)
        )
    else:
        d_pooled_bn = d_xhat * tape.bn_ivar
    d_pooled = grad_pooled + d_pooled_bn

    # GeM: pooled = mean(x^p)^(1/p) per channel over H descriptors
    p = float(params.gem_p)
    # mean^(1/p - 1), taken as 0 where the mean is 0, as _pow gives it
    outer = _pow(tape.gem_mean, 1.0 / p - 1.0)
    # 0 ** 0 is 1, which _pow does not give
    d_gem_in = _pow(tape.gem_in, p - 1.0) if p > 1.0 else np.ones_like(tape.gem_in)
    d_gem_in *= (d_pooled * outer / h)[:, None, :]
    if tape.gem_pow is None:
        grads.gem_p[...] = 0.0
    else:
        safe_mean = np.where(tape.gem_mean > 0, tape.gem_mean, 1.0)
        # log(0 + 1) is 0, so the entries at 0 contribute exactly 0
        log_m = np.log(safe_mean)
        x_logx = tape.gem_pow * np.log(tape.gem_in + (tape.gem_in == 0))
        mean_xlogx = x_logx.mean(axis=1)
        d_p_per = tape.pooled * (-log_m / p**2 + mean_xlogx / (p * safe_mean))
        grads.gem_p[...] = (d_pooled * d_p_per).sum()

    d_shared_out = d_gem_in.reshape(n * h, -1)
    d_mid = _stack_backward(params.shared, tape.shared, d_shared_out, grads.shared)
    if params.shape.specific_widths:
        # the specific stacks' outputs are the rows of the shared stack's
        # input: their last ReLU masks, for both modalities at once
        d_mid *= tape.shared[0] > 0
    # the descriptors take no gradient
    _stack_backward(params.specific_visible, tape.specific_visible, d_mid[tape.vis_rows],
                    grads.specific_visible, input_grad=False)
    _stack_backward(params.specific_thermal, tape.specific_thermal, d_mid[tape.th_rows],
                    grads.specific_thermal, input_grad=False)
    return grads


@dataclass(frozen=True)
class SgdHyper:
    """Momentum SGD with warmup and two step decays, as one schedule."""

    base_lr: float
    momentum: float = 0.9
    weight_decay: float = 5e-4
    warmup_epochs: int = 3
    total_epochs: int = 60

    def __post_init__(self):
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not self.warmup_epochs >= 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if not self.total_epochs >= 0:
            raise ValueError(f"total_epochs must be >= 0, got {self.total_epochs}")


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


def _decay_exempt(params: EncoderParams) -> slice:
    # the buffer span of the GeM power and the four bn.* arrays, which sit
    # back to back in param_layout
    names = [name for name, _ in params.layout]
    start, stop = names.index("gem_p"), names.index("bn.running_var") + 1
    return slice(params.offsets[start], params.offsets[stop])


def sgd_step(
    params: EncoderParams,
    grads: EncoderParams,
    velocity: EncoderParams,
    hyper: SgdHyper,
    epoch: int = 0,
) -> None:
    """One momentum-SGD update in place, over the whole parameter buffer
    and the momentum ``velocity``, an :class:`EncoderParams` of its shape.

    Weight decay, one scalar times the parameters, is added to the raw
    gradient for every parameter except the GeM power and the BN arrays
    (scale, shift and running statistics), whose span of the buffer gets
    ``0.0 *`` the parameters instead: the bits of a per-element decay of 0,
    ``-0.0`` included. The GeM power is clamped back to >= 1 after the
    update. A non-finite gradient aborts the step before any parameter or
    velocity entry changes. Untrained arrays have zero gradient slots (as
    :func:`backward` leaves them) and no decay, so they stay as they are.
    """
    for name, buf in (("gradient", grads), ("velocity", velocity)):
        if buf.shape != params.shape:
            raise ValueError(f"{name} layout does not match the parameters")
    g = grads.buffer
    if not np.isfinite(g).all():
        name = grads.name_at(int(np.argmin(np.isfinite(g))))
        size = grads[name].size
        bad = int(size - np.isfinite(grads[name]).sum())
        raise FloatingPointError(f"non-finite gradient in {name!r}: {bad} of {size} entries")
    lr = hyper.base_lr * lr_factor(epoch, hyper)
    arr, v = params.buffer, velocity.buffer
    step = np.multiply(arr, hyper.weight_decay)
    exempt = _decay_exempt(params)
    np.multiply(arr[exempt], 0.0, out=step[exempt])
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
            for name, shape in params.layout
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.buffer.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises ``ValueError`` on a first line that is not JSON, on a header that
    is not a JSON object holding a ``shape`` of :class:`EncoderShape` fields
    and an ``arrays`` table of ``{name, shape}`` entries, on magic/version
    mismatch, on an array table that does not match the declared
    architecture, and on a truncated file or bytes after the last blob. It
    also refuses values that training never writes: a NaN or inf (naming
    its array), a negative BN running variance, a GeM power below 1 and a
    fixed GeM power other than the header's ``gem_p``.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError:  # not UTF-8 or not JSON
            raise ValueError(f"{path}: not an encoder checkpoint") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: malformed checkpoint header: not a JSON object")
        if header.get("magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not an encoder checkpoint")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
        try:
            shape = EncoderShape(**header["shape"])
            params = EncoderParams(shape)
            table = tuple((e["name"], tuple(e["shape"])) for e in header["arrays"])
        except (KeyError, TypeError, ValueError) as exc:
            why = f"no {exc} entry" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}: malformed checkpoint header: {why}") from None
        if table != params.layout:
            raise ValueError(f"{path}: array table does not match the declared architecture")
        blob = fh.read(params.buffer.nbytes)
        if len(blob) != params.buffer.nbytes:
            name = params.name_at(len(blob) // 8)
            raise ValueError(f"{path}: truncated blob for {name!r}")
        trailing = len(fh.read())
        if trailing:
            raise ValueError(f"{path}: {trailing} trailing bytes after the last array blob")
    params.buffer[:] = np.frombuffer(blob, dtype="<f8")
    finite = np.isfinite(params.buffer)
    if not finite.all():
        raise ValueError(f"{path}: non-finite value in {params.name_at(int(np.argmin(finite)))!r}")
    if (params.bn_running_var < 0).any():
        raise ValueError(f"{path}: negative value in 'bn.running_var'")
    if params.gem_p < 1:
        raise ValueError(f"{path}: 'gem_p' is {float(params.gem_p)!r}, below 1")
    if not shape.gem_p_learnable and params.gem_p != shape.gem_p:
        raise ValueError(
            f"{path}: 'gem_p' is {float(params.gem_p)!r}, but the header fixes it at {shape.gem_p!r}"
        )
    return params


__all__ = [
    "EncoderShape",
    "EncoderParams",
    "param_layout",
    "Tape",
    "SgdHyper",
    "init_params",
    "forward",
    "encode_dataset",
    "backward",
    "lr_factor",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
]
