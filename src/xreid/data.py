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

Each owns its rows' (identity, modality) :class:`CellIndex` as ``cells``,
built on first use, which the sampler, the per-class losses and the
evaluator's gallery draws share. Both raise a ``ValueError`` naming the fault
for labels that are not 1-D or not one per row, a modality other than
VISIBLE or THERMAL, and a NaN or inf value, so ``cells`` means what the
labels say; ``select`` takes rows of such a checked set without checking
them again.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

VISIBLE = 0
THERMAL = 1

_MODALITY_TOKEN = {VISIBLE: "v", THERMAL: "t"}

_DUMP_VERSION = 1
_TRAIN_FRACTION = 0.8


def _check_rows(labelled, name: str, axes: tuple[str, ...]) -> None:
    """Store a labelled set's ``name`` values as float64 and its labels as
    int64, or raise a ``ValueError`` naming the fault."""
    values = np.asarray(getattr(labelled, name), dtype=np.float64)
    ids = np.asarray(labelled.identities, dtype=np.int64)
    mods = np.asarray(labelled.modalities, dtype=np.int64)
    if values.ndim != len(axes):
        raise ValueError(f"{name} must be {len(axes)}-D ({', '.join(axes)}), got shape {values.shape}")
    if ids.ndim != 1 or mods.ndim != 1:
        raise ValueError(f"identities and modalities must be 1-D, got shapes {ids.shape} and {mods.shape}")
    if not len(values) == len(ids) == len(mods):
        raise ValueError(
            f"parallel arrays disagree: {len(values)} {name}, {len(ids)} identities, {len(mods)} modalities"
        )
    unknown = np.flatnonzero((mods != VISIBLE) & (mods != THERMAL))
    if len(unknown):
        raise ValueError(f"row {unknown[0]}: modality {mods[unknown[0]]} is not VISIBLE (0) or THERMAL (1)")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} hold non-finite values (NaN or inf)")
    for field, array in ((name, values), ("identities", ids), ("modalities", mods)):
        object.__setattr__(labelled, field, array)


def _prechecked(cls, values, identities, modalities):
    """A ``cls`` (:class:`FeatureSet` or :class:`DescriptorSet`) holding the
    arrays as given, without :func:`_check_rows`: for arrays that already
    pass it as stored (float64 finite values, 1-D int64 labels, one per
    row, modalities VISIBLE or THERMAL), such as rows of a checked set."""
    labelled = object.__new__(cls)
    vars(labelled).update(zip(cls.__dataclass_fields__, (values, identities, modalities)))
    return labelled


def _select(labelled, values, index):
    # rows of a checked set pass the checks as they are: only the index's
    # shape can break a set, and then only its labels can show it
    identities = labelled.identities[index]
    if identities.ndim != 1:
        raise ValueError(f"select takes a 1-D row index or mask, got {np.shape(index)}")
    return _prechecked(type(labelled), values[index], identities, labelled.modalities[index])


@dataclass(frozen=True)
class FeatureSet:
    """A batch of feature vectors with parallel identity and modality labels."""

    features: np.ndarray    # (N, D) float64
    identities: np.ndarray  # (N,) int
    modalities: np.ndarray  # (N,) int, VISIBLE or THERMAL

    def __post_init__(self):
        _check_rows(self, "features", ("N", "D"))

    def __len__(self) -> int:
        return len(self.features)

    def select(self, index: np.ndarray) -> "FeatureSet":
        """The rows at a 1-D integer ``index`` or boolean mask. They come from
        this checked set, so the arrays are what the validating constructor
        would store, and they are not checked again."""
        return _select(self, self.features, index)

    @cached_property
    def cells(self) -> CellIndex:
        """The rows' :func:`cell_index`, built on first use and kept, so the
        labels must not be changed in place after that."""
        return cell_index(self.identities, self.modalities)

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
        _check_rows(self, "descriptors", ("N", "H", "D_in"))

    def __len__(self) -> int:
        return len(self.descriptors)

    def select(self, index: np.ndarray) -> "DescriptorSet":
        """The rows at ``index``, unchecked, as :meth:`FeatureSet.select`."""
        return _select(self, self.descriptors, index)

    cells = FeatureSet.cells


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic two-modality identity world.

    ``thermal_noise_scale`` multiplies the within-class noise of thermal
    samples only: real thermal captures are blurrier than visible ones, and a
    second-moment mismatch between the modalities is exactly the kind of gap
    that center-based alignment cannot see.
    """

    num_identities: int = 50
    samples_per_identity: int = 20  # per modality, so 2x this many rows per identity
    descriptor_count: int = 4   # H
    descriptor_dim: int = 8     # D_in
    identity_spread: float = 1.0
    within_noise: float = 0.08
    thermal_noise_scale: float = 2.0
    modality_shift: float = 4.0
    per_identity_shift_rotation: bool = True

    def __post_init__(self):
        # each check is written as `not x > 0` / `not x >= 0`, so NaN fails it
        if not (self.num_identities >= 1 and self.samples_per_identity >= 1):
            raise ValueError("counts must be >= 1")
        if not (self.descriptor_count >= 1 and self.descriptor_dim >= 1):
            raise ValueError("descriptor shape must be >= 1")
        if not (self.identity_spread > 0 and self.within_noise >= 0):
            raise ValueError("identity_spread must be > 0 and within_noise >= 0")
        if not self.thermal_noise_scale >= 0:
            raise ValueError("thermal_noise_scale must be >= 0")
        if not self.modality_shift >= 0:
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


def generate(spec: SyntheticSpec, rng: np.random.Generator) -> tuple[DescriptorSet, DescriptorSet]:
    """Generate (train, test) descriptor sets with disjoint identities.

    Per identity: a Gaussian cluster center; visible samples are noisy copies
    of the center, thermal samples additionally carry the modality shift and
    ``thermal_noise_scale`` times the noise. The noise is one standard-normal
    draw in (identity, modality, sample) order, visible before thermal, and
    the rows come in that order. Identities are split 80/20 train/test.
    Fully determined by ``spec`` and the state of ``rng``, the only source
    of randomness.
    """
    if spec.num_identities < 4:
        raise ValueError(
            f"need at least 4 identities for a nonempty 80/20 split, got {spec.num_identities}"
        )

    n_id = spec.num_identities
    h, d = spec.descriptor_count, spec.descriptor_dim
    k = spec.samples_per_identity

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

    # one draw in (identity, modality, sample) order, scaled by each
    # modality's sigma and shifted by its base in place
    sigma = spec.within_noise * np.array([1.0, spec.thermal_noise_scale])
    descriptors = rng.standard_normal((n_id, 2, k, h, d))
    descriptors *= sigma[:, None, None, None]
    descriptors += np.stack([centers, centers + shifts], axis=1)[:, :, None, None, :]
    identities = np.repeat(np.arange(n_id), 2 * k)
    modalities = np.tile(np.repeat([VISIBLE, THERMAL], k), n_id)

    order = rng.permutation(n_id)
    train_mask = np.isin(identities, order[:int(round(_TRAIN_FRACTION * n_id))])

    full = DescriptorSet(descriptors.reshape(-1, h, d), identities, modalities)
    return full.select(train_mask), full.select(~train_mask)


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

    def first_empty(self) -> tuple[int, int] | None:
        """(identity, modality) of the first empty cell, in cell order, or None."""
        if self.counts.all():
            return None
        empty = int(np.argmin(self.counts))
        return int(self.ids[empty // 2]), empty % 2


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


def sample_batch(dataset: DescriptorSet, spec: BatchSpec, rng: np.random.Generator) -> DescriptorSet:
    """Draw one identity-balanced cross-modal batch.

    P distinct identities uniformly without replacement, then K visible and K
    thermal samples per identity. Output rows are grouped by identity with
    the visible block before the thermal block. Each cell's pool is a slice
    of the dataset's ``cells``.

    The draws are those of ``rng.choice(cells.ids, P, replace=False)`` and,
    per cell ``c``, ``rng.choice(pool, K, replace=count < K)`` over its rows
    ``pool = cells.order[cells.starts[c]:cells.starts[c + 1]]``: each call is
    made with the pool's size, which draws the same positions, and the
    positions then index the pool.
    """
    index = dataset.cells
    if len(index.ids) < spec.p:
        raise ValueError(f"dataset has {len(index.ids)} identities, batch needs P={spec.p}")
    ranks = rng.choice(len(index.ids), size=spec.p, replace=False)
    cells = (2 * ranks[:, None] + np.array([VISIBLE, THERMAL])).ravel()
    counts = index.counts[cells]
    if not counts.all():
        empty = cells[np.argmin(counts)]
        raise ValueError(f"identity {index.ids[empty // 2]} has no samples of modality {empty % 2}")
    # uniform without replacement when the cell is big enough, else with
    k = spec.k
    picks = np.concatenate([rng.choice(count, size=k, replace=count < k) for count in counts.tolist()])
    picks += np.repeat(index.starts[cells], k)
    return dataset.select(index.order[picks])


class BatchSampler:
    """Stateful single-consumer batch stream over one dataset.

    Cloning with a forked seed (a fresh generator) is the supported way to
    run parallel experiments off one dataset.
    """

    def __init__(self, dataset: DescriptorSet, spec: BatchSpec, rng: np.random.Generator):
        self.dataset = dataset
        self.spec = spec
        self.rng = rng

    def next_batch(self) -> DescriptorSet:
        return sample_batch(self.dataset, self.spec, self.rng)

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
        write_rows(fh, dataset.identities, dataset.modalities, dataset.descriptors.reshape(n, h * d))


def write_rows(fh, identities, modalities, values) -> None:
    """Write one ``identity,v|t,x_0,...`` text row per sample of the (N, M)
    ``values``, each float with ``repr`` so that reading it back is exact."""
    for identity, modality, row in zip(identities, modalities, values):
        fh.write(f"{identity},{_MODALITY_TOKEN[int(modality)]},{','.join(map(repr, row.tolist()))}\n")


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
        if h < 1 or d < 1:
            raise ValueError(f"{path}: dataset header {header!r} needs H >= 1 and D_in >= 1")

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
    "write_rows",
    "load",
]
