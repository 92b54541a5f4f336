"""Synthetic two-modality identity data and the identity-balanced PK sampler.

The synthetic generator stands in for a real visible/thermal image corpus at
desk scale: every identity is a Gaussian cluster in descriptor space, thermal
samples are displaced by a modality shift (optionally in a random direction
per identity), and train/test identity sets are disjoint.

Two array-of-struct containers are used throughout the library:

* :class:`FeatureSet` — encoded feature vectors with identity/modality labels,
  consumed by the MMD losses and the retrieval evaluator.
* :class:`DescriptorSet` — raw per-sample descriptor grids (H local
  descriptors each), consumed by the encoder.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

VISIBLE = 0
THERMAL = 1

_MODALITY_TOKEN = {VISIBLE: "v", THERMAL: "t"}

_DUMP_VERSION = 1
_TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class FeatureSet:
    """A batch of feature vectors with parallel identity and modality labels."""

    features: np.ndarray    # (N, D) float64
    identities: np.ndarray  # (N,) int
    modalities: np.ndarray  # (N,) int, VISIBLE or THERMAL

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        ids = np.asarray(self.identities, dtype=np.int64)
        mods = np.asarray(self.modalities, dtype=np.int64)
        if f.ndim != 2:
            raise ValueError(f"features must be 2-D (N, D), got shape {f.shape}")
        if not (len(f) == len(ids) == len(mods)):
            raise ValueError(
                f"parallel arrays disagree: {len(f)} features, "
                f"{len(ids)} identities, {len(mods)} modalities"
            )
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "identities", ids)
        object.__setattr__(self, "modalities", mods)

    def __len__(self) -> int:
        return len(self.features)

    def select(self, mask: np.ndarray) -> "FeatureSet":
        return FeatureSet(self.features[mask], self.identities[mask], self.modalities[mask])

    def modality_slice(self, modality: int) -> np.ndarray:
        """Feature rows of one modality."""
        return self.features[self.modalities == modality]


@dataclass(frozen=True)
class DescriptorSet:
    """Per-sample descriptor grids (N, H, D_in) with identity/modality labels."""

    descriptors: np.ndarray  # (N, H, D_in) float64
    identities: np.ndarray   # (N,) int
    modalities: np.ndarray   # (N,) int

    def __post_init__(self):
        d = np.asarray(self.descriptors, dtype=np.float64)
        ids = np.asarray(self.identities, dtype=np.int64)
        mods = np.asarray(self.modalities, dtype=np.int64)
        if d.ndim != 3:
            raise ValueError(f"descriptors must be 3-D (N, H, D_in), got shape {d.shape}")
        if not (len(d) == len(ids) == len(mods)):
            raise ValueError("descriptor/identity/modality arrays disagree in length")
        object.__setattr__(self, "descriptors", d)
        object.__setattr__(self, "identities", ids)
        object.__setattr__(self, "modalities", mods)

    def __len__(self) -> int:
        return len(self.descriptors)

    def select(self, index: np.ndarray) -> "DescriptorSet":
        return DescriptorSet(self.descriptors[index], self.identities[index], self.modalities[index])


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic two-modality identity world.

    ``thermal_noise_scale`` multiplies the within-class noise of thermal
    samples only: real thermal captures are blurrier than visible ones, and a
    second-moment mismatch between the modalities is exactly the kind of gap
    that center-based alignment cannot see.
    """

    num_identities: int = 50
    samples_per_identity_per_modality: int = 20
    descriptor_count: int = 4   # H
    descriptor_dim: int = 8     # D_in
    identity_spread: float = 1.0
    within_noise: float = 0.08
    thermal_noise_scale: float = 2.0
    modality_shift: float = 4.0
    per_identity_shift_rotation: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.num_identities < 1 or self.samples_per_identity_per_modality < 1:
            raise ValueError("counts must be >= 1")
        if self.descriptor_count < 1 or self.descriptor_dim < 1:
            raise ValueError("descriptor shape must be >= 1")
        if self.identity_spread <= 0 or self.within_noise < 0:
            raise ValueError("identity_spread must be > 0 and within_noise >= 0")
        if self.thermal_noise_scale < 0:
            raise ValueError("thermal_noise_scale must be >= 0")
        if self.modality_shift < 0:
            raise ValueError("modality_shift must be >= 0")


@dataclass(frozen=True)
class BatchSpec:
    """P identities x K samples per identity per modality (batch size 2*P*K)."""

    p: int = 4
    k: int = 4

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"P must be >= 2, got {self.p}")
        if self.k < 1:
            raise ValueError(f"K must be >= 1, got {self.k}")

    @property
    def batch_size(self) -> int:
        return 2 * self.p * self.k


def generate(spec: SyntheticSpec, rng: np.random.Generator | None = None) -> tuple[DescriptorSet, DescriptorSet]:
    """Generate (train, test) descriptor sets with disjoint identities.

    Per identity: a Gaussian cluster center; visible samples are noisy copies
    of the center, thermal samples additionally carry the modality shift.
    Identities are split 80/20 train/test. Fully determined by `spec.seed`
    unless an explicit generator is passed.
    """
    if spec.num_identities < 4:
        raise ValueError(
            f"need at least 4 identities for a nonempty 80/20 split, got {spec.num_identities}"
        )
    if rng is None:
        rng = np.random.default_rng(spec.seed)

    n_id = spec.num_identities
    h, d = spec.descriptor_count, spec.descriptor_dim
    k = spec.samples_per_identity_per_modality

    centers = spec.identity_spread * rng.standard_normal((n_id, d))

    # Modality gap, always of norm modality_shift. With the rotation flag the
    # gap direction is the identity's own center direction passed through one
    # fixed random rotation: every identity's gap points somewhere different
    # (so aligning the thermal cloud to the visible cloud as a whole cannot
    # close per-identity gaps), yet the direction is a smooth function of the
    # center, so a trained encoder can undo the gap for unseen identities
    # too. Without the flag, a single global shift direction.
    if spec.per_identity_shift_rotation:
        rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
        norms = np.linalg.norm(centers, axis=1, keepdims=True)
        directions = (centers / np.maximum(norms, 1e-12)) @ rotation.T
    else:
        direction = rng.standard_normal(d)
        directions = np.tile(direction / max(np.linalg.norm(direction), 1e-12), (n_id, 1))
    shifts = spec.modality_shift * directions

    descriptors = np.empty((n_id * 2 * k, h, d))
    identities = np.empty(n_id * 2 * k, dtype=np.int64)
    modalities = np.empty(n_id * 2 * k, dtype=np.int64)
    row = 0
    for i in range(n_id):
        for modality in (VISIBLE, THERMAL):
            base = centers[i] if modality == VISIBLE else centers[i] + shifts[i]
            sigma = spec.within_noise
            if modality == THERMAL:
                sigma *= spec.thermal_noise_scale
            descriptors[row:row + k] = base[None, None, :] + sigma * rng.standard_normal((k, h, d))
            identities[row:row + k] = i
            modalities[row:row + k] = modality
            row += k

    order = rng.permutation(n_id)
    n_train = int(round(_TRAIN_FRACTION * n_id))
    train_ids = set(order[:n_train].tolist())
    train_mask = np.isin(identities, list(train_ids))

    full = DescriptorSet(descriptors, identities, modalities)
    return full.select(np.where(train_mask)[0]), full.select(np.where(~train_mask)[0])


@dataclass(frozen=True)
class CellIndex:
    """Rows grouped by (identity, modality) cell, as a CSR index.

    Cell ``2 * r + t`` holds the rows of the identity of rank ``r`` in
    ``ids`` and modality ``t`` (0 visible, 1 thermal). Its rows, in
    ascending row order, are ``order[starts[c]:starts[c + 1]]``.
    """

    ids: np.ndarray     # (P,) distinct identities, ascending
    cell: np.ndarray    # (N,) each row's cell
    counts: np.ndarray  # (2P,) rows per cell
    order: np.ndarray   # (N,) row indices sorted by cell, stable
    starts: np.ndarray  # (2P + 1,) offsets of each cell into ``order``

    def rows(self, c: int) -> np.ndarray:
        return self.order[self.starts[c]:self.starts[c + 1]]

    def first_empty(self, cells=None) -> tuple[int, int] | None:
        """(identity, modality) of the first empty cell among ``cells``
        (every cell, in cell order, by default), or None."""
        cells = np.arange(len(self.counts)) if cells is None else np.asarray(cells)
        empty = cells[self.counts[cells] == 0]
        if len(empty) == 0:
            return None
        return int(self.ids[empty[0] // 2]), int(empty[0] % 2)


def cell_index(identities, modalities, ids=None) -> CellIndex:
    """Index the rows of parallel identity/modality labels by cell.

    ``ids`` (ascending, holding every row's identity) fixes the identities
    indexed, empty cells included; by default they are those present.
    """
    if ids is None:
        ids = np.unique(identities)
    cell = 2 * np.searchsorted(ids, identities) + (np.asarray(modalities) == THERMAL)
    counts = np.bincount(cell, minlength=2 * len(ids))
    starts = np.zeros(len(counts) + 1, dtype=np.intp)
    starts[1:] = np.cumsum(counts)
    return CellIndex(ids, cell, counts, np.argsort(cell, kind="stable"), starts)


def _choose(rng: np.random.Generator, pool: np.ndarray, k: int) -> np.ndarray:
    # uniform without replacement when the cell is big enough, else with
    if len(pool) >= k:
        return rng.choice(pool, size=k, replace=False)
    return rng.choice(pool, size=k, replace=True)


def sample_batch(
    dataset: DescriptorSet,
    spec: BatchSpec,
    rng: np.random.Generator,
    index: CellIndex | None = None,
) -> DescriptorSet:
    """Draw one identity-balanced cross-modal batch.

    P distinct identities uniformly without replacement, then K visible and K
    thermal samples per identity. Output rows are grouped by identity with
    the visible block before the thermal block. ``index`` is the dataset's
    :func:`cell_index`, built here when not given.
    """
    if index is None:
        index = cell_index(dataset.identities, dataset.modalities)
    if len(index.ids) < spec.p:
        raise ValueError(f"dataset has {len(index.ids)} identities, batch needs P={spec.p}")
    chosen = rng.choice(index.ids, size=spec.p, replace=False)
    cells = (2 * np.searchsorted(index.ids, chosen)[:, None] + np.array([VISIBLE, THERMAL])).ravel()
    gap = index.first_empty(cells)
    if gap is not None:
        raise ValueError(f"identity {gap[0]} has no samples of modality {gap[1]}")
    picks = [_choose(rng, index.rows(c), spec.k) for c in cells]
    return dataset.select(np.concatenate(picks))


class BatchSampler:
    """Stateful single-consumer batch stream over one dataset.

    Cloning with a forked seed (a fresh generator) is the supported way to
    run parallel experiments off one dataset.
    """

    def __init__(self, dataset: DescriptorSet, spec: BatchSpec, rng: np.random.Generator):
        self.dataset = dataset
        self.spec = spec
        self.rng = rng
        self.index = cell_index(dataset.identities, dataset.modalities)

    def next_batch(self) -> DescriptorSet:
        return sample_batch(self.dataset, self.spec, self.rng, self.index)

    def batches_per_epoch(self) -> int:
        return -(-len(self.dataset) // self.spec.batch_size)  # ceil division


def dump(dataset: DescriptorSet, path) -> None:
    """Write a descriptor set as delimited text, losslessly.

    One row per sample: ``identity,modality,d_0,...`` with all H*D_in
    descriptor values flattened row-major. Floats are written with ``repr``
    so the round-trip is exact.
    """
    n, h, d = dataset.descriptors.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#version={_DUMP_VERSION},H={h},D_in={d}\n")
        flat = dataset.descriptors.reshape(n, h * d)
        for i in range(n):
            vals = ",".join(repr(v) for v in flat[i].tolist())
            fh.write(f"{dataset.identities[i]},{_MODALITY_TOKEN[int(dataset.modalities[i])]},{vals}\n")


def _rows(fh):
    """(file line, text) of each row of ``fh`` that loadtxt parses: lines
    are 1-based, the header is line 1, and empty lines are skipped."""
    fh.seek(0)
    for line, text in enumerate(fh, start=1):
        if line > 1 and text != "\n":
            yield line, text


def _line_of(path, sample: int) -> int:
    """The file line of the ``sample``-th (0-based) row loadtxt parsed."""
    with open(path, "r", encoding="utf-8") as fh:
        return next(itertools.islice(_rows(fh), sample, None))[0]


def _parse_error(fh, row: np.dtype, exc: ValueError) -> str:
    """Why numpy rejects the rows of ``fh``, prefixed by the file line of
    the first row it rejects on its own.

    numpy numbers the rows it parsed, skipping empty lines, from 0 for a bad
    value and from 1 for a wrong field count; that number is dropped."""
    reason = str(exc)
    for line, text in _rows(fh):
        try:
            np.loadtxt([text], dtype=row, delimiter=",", comments=None)
        except ValueError as bad:
            unnumbered = re.sub(r" at row \d+(, )?", lambda m: " in " if m[1] else "", str(bad))
            reason = f"line {line}: {unnumbered}"
            break
    return reason.partition(";")[0].rstrip(".")  # without loadtxt's usecols hint


def load(path) -> DescriptorSet:
    """Read a descriptor set written by :func:`dump`.

    The rows are parsed by numpy's C text reader into one structured array,
    without a Python object per value. A malformed header, a row of the
    wrong length or with an unknown modality token, and a non-finite value
    each raise ``ValueError`` naming ``path``; a bad row is named by its
    line in the file (1-based; the header is line 1).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing dataset header line")
        fields = dict(part.partition("=")[::2] for part in header[1:].split(","))
        try:
            version, h, d = (int(fields[key]) for key in ("version", "H", "D_in"))
        except (KeyError, ValueError):
            raise ValueError(
                f"{path}: dataset header {header!r} needs integer version, H and D_in"
            ) from None
        if version != _DUMP_VERSION:
            raise ValueError(f"{path}: unsupported dataset version {version}")

        row = np.dtype([
            ("identity", np.int64),
            ("token", "U2"),  # two characters, so that a longer token stays invalid
            ("values", np.float64, (h * d,)),
        ])
        body = fh.tell()
        if not fh.read(1):  # header only: an empty set (loadtxt would warn)
            rows = np.empty(0, dtype=row)
        else:
            fh.seek(body)
            try:
                rows = np.loadtxt(fh, dtype=row, delimiter=",", comments=None, ndmin=1)
            except ValueError as exc:
                raise ValueError(
                    f"{path}: {_parse_error(fh, row, exc)}; "
                    f"a row is identity,v|t,<H*D_in values>: {2 + h * d} fields"
                ) from None

    thermal = rows["token"] == _MODALITY_TOKEN[THERMAL]
    bad = ~thermal & (rows["token"] != _MODALITY_TOKEN[VISIBLE])
    if bad.any():
        i = int(np.argmax(bad))
        line, token = _line_of(path, i), str(rows["token"][i])
        raise ValueError(f"{path}: line {line}: modality token {token!r} is not v or t")
    finite = np.isfinite(rows["values"]).all(axis=1)
    if not finite.all():
        line = _line_of(path, int(np.argmin(finite)))
        raise ValueError(f"{path}: line {line}: non-finite descriptor value")
    # copies, so that the structured rows are freed
    descriptors = np.ascontiguousarray(rows["values"]).reshape(len(rows), h, d)
    modalities = np.where(thermal, THERMAL, VISIBLE)
    return DescriptorSet(descriptors, rows["identity"].copy(), modalities)


__all__ = [
    "VISIBLE",
    "THERMAL",
    "FeatureSet",
    "DescriptorSet",
    "SyntheticSpec",
    "BatchSpec",
    "BatchSampler",
    "CellIndex",
    "cell_index",
    "generate",
    "sample_batch",
    "dump",
    "load",
]
