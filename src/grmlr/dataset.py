"""Site-level observation tables: ingestion, validation, synthesis.

Three aligned tables describe each study: microbial relative abundances
(n sites x p taxa, rows closed to 1), macrofauna counts (n x k non-negative
integers), and per-site stage labels. The abundance file is the site-order
authority; the other tables are reordered to match it on load.

CSV schemas
-----------
abundances.csv : header ``site_id,<taxon_1>,...,<taxon_p>``; decimal fractions.
macrofauna.csv : header ``site_id,dead,adult,juvenile,clam``; integer counts.
labels.csv     : header ``site_id,stage``; stage in {juvenile, adult, dead}
                 (case-insensitive on read, lowercase on write).
adjacency.csv  : header ``taxon,<taxon_1>,...``; rows follow the header's taxa order
                 (written by graph export, never read).

In every table the first header column is the key and another column
follows it, every row is as wide as the header, and the key column is
unique. This module is the only one that opens files.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidShape,
    InvalidValue,
    IoFailure,
    MissingSite,
    NegativeCount,
    NegativeValue,
    RowSumViolation,
    UnknownLabel,
)

STAGE_LABELS = ("juvenile", "adult", "dead")
MACROFAUNA_CATEGORIES = ("dead", "adult", "juvenile", "clam")
ROW_SUM_TOLERANCE = 1e-6

# Internal knobs of the synthetic generator: amplitude of the per-class
# block shift in log space, and the split of `noise` into a block-shared
# component (builds within-block correlation) and an idiosyncratic one.
_SHIFT_AMPLITUDE = 2.0
_BLOCK_NOISE_FRACTION = 0.6
_IDIO_NOISE_FRACTION = 0.8


def substream(seed: int, name: str) -> np.random.Generator:
    """Deterministic named RNG substream derived from a single run seed.

    Raises InvalidValue unless ``seed`` is an integer, numpy integers
    included and ``bool`` excluded.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise InvalidValue(f"seed must be an integer, got {seed!r}")
    return np.random.default_rng([int(seed) % (2**63), zlib.crc32(name.encode("utf-8"))])


def reject_non_finite(
    values: np.ndarray,
    site_ids: Sequence[str],
    column_names: Sequence[str],
    what: str,
    column_kind: str,
) -> None:
    """Raise InvalidValue naming the site and column of the first NaN or +/-inf."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise InvalidValue(
            f"non-finite {what} {values[i, j]} at site '{site_ids[i]}', "
            f"{column_kind} '{column_names[j]}'"
        )


@dataclass(eq=False)
class AbundanceMatrix:
    """Relative abundances per site; rows sum to 1 within 1e-6."""

    site_ids: list[str]
    taxa_names: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        n, p = len(self.site_ids), len(self.taxa_names)
        if self.values.shape != (n, p):
            raise InvalidShape(
                f"abundance matrix shape {self.values.shape} does not match "
                f"{n} sites x {p} taxa"
            )
        if len(set(self.site_ids)) != n:
            raise InvalidValue("duplicate site ids in abundance table")
        if len(set(self.taxa_names)) != p:
            raise InvalidValue("duplicate taxa names in abundance table")
        reject_non_finite(self.values, self.site_ids, self.taxa_names, "abundance", "taxon")
        neg = np.argwhere(self.values < 0)
        if neg.size:
            i, j = neg[0]
            raise NegativeValue(
                f"negative abundance at site '{self.site_ids[i]}', taxon '{self.taxa_names[j]}'"
            )
        sums = self.values.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE)
        if bad.size:
            i = int(bad[0])
            raise RowSumViolation(
                f"abundance row for site '{self.site_ids[i]}' sums to {sums[i]:.8f}, expected 1"
            )
        self.values.setflags(write=False)

    @property
    def n_sites(self) -> int:
        return len(self.site_ids)

    @property
    def n_taxa(self) -> int:
        return len(self.taxa_names)


@dataclass(eq=False)
class MacrofaunaCounts:
    """Non-negative integer macrofauna counts per site, each within int64."""

    site_ids: list[str]
    values: np.ndarray
    category_names: list[str] = field(default_factory=lambda: list(MACROFAUNA_CATEGORIES))

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        n, k = len(self.site_ids), len(self.category_names)
        if len(set(self.site_ids)) != n:
            raise InvalidValue("duplicate site ids in macrofauna table")
        if len(set(self.category_names)) != k:
            raise InvalidValue("duplicate category names in macrofauna table")
        if arr.shape != (n, k):
            raise InvalidShape(
                f"macrofauna matrix shape {arr.shape} does not match "
                f"{n} sites x {k} categories"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            arr = np.asarray(arr, dtype=float)
            reject_non_finite(arr, self.site_ids, self.category_names, "count", "category")
            if not np.array_equal(np.rint(arr), arr):
                raise NegativeCount("macrofauna counts must be integers")
        for bad, error, what in (
            (arr < 0, NegativeCount, "negative count"),
            (arr >= 2**63, InvalidValue, "count above the int64 maximum"),
        ):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise error(
                    f"{what} at site '{self.site_ids[i]}', "
                    f"category '{self.category_names[j]}'"
                )
        self.values = arr.astype(np.int64)
        self.values.setflags(write=False)


@dataclass(eq=False)
class StageLabels:
    """Per-site developmental stage labels from an ordered label set."""

    site_ids: list[str]
    labels: list[str]
    label_set: tuple[str, ...] = STAGE_LABELS

    def __post_init__(self) -> None:
        if len(set(self.site_ids)) != len(self.site_ids):
            raise InvalidValue("duplicate site ids in stage labels")
        if len(self.labels) != len(self.site_ids):
            raise InvalidShape(
                f"{len(self.labels)} labels for {len(self.site_ids)} sites"
            )
        allowed = set(self.label_set)
        for site, lab in zip(self.site_ids, self.labels):
            if lab not in allowed:
                raise UnknownLabel(
                    f"site '{site}' has label '{lab}', expected one of {list(self.label_set)}"
                )

    def indices(self) -> np.ndarray:
        """Labels as integer indices into ``label_set``."""
        lookup = {lab: i for i, lab in enumerate(self.label_set)}
        return np.array([lookup[lab] for lab in self.labels], dtype=np.int64)


@dataclass(eq=False)
class Dataset:
    """Aligned site-level observations; macrofauna and stages are optional."""

    abundances: AbundanceMatrix
    macrofauna: Optional[MacrofaunaCounts] = None
    stages: Optional[StageLabels] = None

    def __post_init__(self) -> None:
        ids = self.abundances.site_ids
        if self.macrofauna is not None and self.macrofauna.site_ids != ids:
            raise MissingSite("macrofauna site ids do not match abundance site ids")
        if self.stages is not None:
            if self.stages.site_ids != ids:
                raise MissingSite("label site ids do not match abundance site ids")
            if len(ids) < len(self.stages.label_set):
                raise InvalidShape(
                    f"{len(ids)} sites for {len(self.stages.label_set)} classes; "
                    "need at least one sample per class"
                )

    @property
    def n_sites(self) -> int:
        return self.abundances.n_sites

    @property
    def n_taxa(self) -> int:
        return self.abundances.n_taxa

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """New Dataset holding only the selected sites, order preserved."""
        idx = list(indices)
        ids = [self.abundances.site_ids[i] for i in idx]
        ab = AbundanceMatrix(ids, list(self.abundances.taxa_names), self.abundances.values[idx])
        mf = None
        if self.macrofauna is not None:
            mf = MacrofaunaCounts(
                list(ids), self.macrofauna.values[idx], list(self.macrofauna.category_names)
            )
        st = None
        if self.stages is not None:
            st = StageLabels(
                list(ids), [self.stages.labels[i] for i in idx], self.stages.label_set
            )
        return Dataset(ab, mf, st)

    def with_labels(self, labels: Sequence[str]) -> "Dataset":
        """Same observations with a replacement label column."""
        if self.stages is None:
            raise InvalidShape("dataset has no labels to replace")
        st = StageLabels(list(self.abundances.site_ids), list(labels), self.stages.label_set)
        return Dataset(self.abundances, self.macrofauna, st)


def _read_file(path: str | Path) -> str:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidValue(f"{path}: not UTF-8 text: {exc}") from exc


def _write_file(path: str | Path, text: str) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _make_dir(path: str | Path) -> Path:
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {path}: {exc}") from exc
    return path


def _read_table(path: str | Path, key_column: str, parse: Callable) -> tuple[list[str], dict]:
    """Value columns and, by key in file order, each row's cells mapped by ``parse``.

    ``parse(cell, where)`` gets ``where`` naming file, key and column for its errors.
    """
    try:
        rows = list(csv.reader(io.StringIO(_read_file(path), newline="")))
    except csv.Error as exc:
        raise InvalidValue(f"{path}: not a CSV table: {exc}") from exc
    if not rows:
        raise InvalidValue(f"{path}: empty file")
    header = rows[0]
    if header[:1] != [key_column]:
        raise InvalidValue(f"{path}: first header column must be '{key_column}'")
    columns = header[1:]
    if not columns:
        raise InvalidValue(f"{path}: no columns after '{key_column}'")
    table: dict[str, list] = {}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InvalidValue(f"{path}: row {line} has {len(row)} cells, expected {len(header)}")
        key = row[0]
        if key in table:
            raise InvalidValue(f"{path}: row {line} repeats {key_column} '{key}'")
        table[key] = [
            parse(cell, f"{path}: {key_column} '{key}', column '{col}'")
            for col, cell in zip(columns, row[1:])
        ]
    return columns, table


def _parse_float(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise InvalidValue(f"{where}: not a number: {cell!r}") from exc


def _parse_count(cell: str, where: str) -> int:
    try:
        value = int(cell)
    except ValueError as exc:
        raise InvalidValue(f"{where}: not an integer count: {cell!r}") from exc
    if value < 0:
        raise NegativeCount(f"{where}: negative count {value}")
    if value >= 2**63:
        raise InvalidValue(f"{where}: count {value} above the int64 maximum")
    return value


def load_dataset(
    abundance_path: str | Path,
    macrofauna_path: str | Path | None = None,
    labels_path: str | Path | None = None,
) -> Dataset:
    """Load and validate the site tables; rows follow abundance-file order.

    Stage labels must be in STAGE_LABELS, whose order is the class order.

    Raises
    ------
    InvalidValue
        If a file is empty, not UTF-8 or not CSV, breaks a table rule of the
        module docstring (such as two rows for one site), has a cell that
        does not parse or a count above the int64 maximum, or the labels
        header is not ``site_id,stage``.
    MissingSite, RowSumViolation, NegativeCount, NegativeValue,
    UnknownLabel, IoFailure
    """
    abundance_path = Path(abundance_path)
    taxa, rows = _read_table(abundance_path, "site_id", _parse_float)
    site_ids = list(rows)
    values = np.array(list(rows.values()), dtype=float).reshape(len(site_ids), len(taxa))
    abundances = AbundanceMatrix(site_ids, taxa, values)

    macrofauna = None
    if macrofauna_path is not None:
        macrofauna_path = Path(macrofauna_path)
        categories, counts = _read_table(macrofauna_path, "site_id", _parse_count)
        ordered = _align(counts, site_ids, macrofauna_path, abundance_path)
        macrofauna = MacrofaunaCounts(list(site_ids), np.array(ordered, dtype=np.int64), categories)

    stages = None
    if labels_path is not None:
        labels_path = Path(labels_path)
        columns, labels = _read_table(labels_path, "site_id", lambda cell, _: cell.strip().lower())
        if columns != ["stage"]:
            raise InvalidValue(f"{labels_path}: expected header 'site_id,stage'")
        ordered_labels = [row[0] for row in _align(labels, site_ids, labels_path, abundance_path)]
        stages = StageLabels(list(site_ids), ordered_labels)
    return Dataset(abundances, macrofauna, stages)


def _align(by_site: dict, site_ids: list[str], path: Path, authority: Path) -> list:
    missing = [s for s in site_ids if s not in by_site]
    if missing:
        raise MissingSite(f"{path}: site '{missing[0]}' from {authority.name} is absent")
    extra = [s for s in by_site if s not in set(site_ids)]
    if extra:
        raise MissingSite(f"{path}: site '{extra[0]}' is absent from {authority.name}")
    return [by_site[s] for s in site_ids]


def save_dataset(
    dataset: Dataset,
    abundance_path: str | Path,
    macrofauna_path: str | Path | None = None,
    labels_path: str | Path | None = None,
) -> None:
    """Write the dataset back to the CSV schemas (full-precision floats)."""
    ab = dataset.abundances
    _write_csv(
        abundance_path,
        ["site_id", *ab.taxa_names],
        [[sid, *[repr(float(v)) for v in row]] for sid, row in zip(ab.site_ids, ab.values)],
    )
    if macrofauna_path is not None:
        if dataset.macrofauna is None:
            raise InvalidValue("dataset has no macrofauna counts to save")
        mf = dataset.macrofauna
        _write_csv(
            macrofauna_path,
            ["site_id", *mf.category_names],
            [[sid, *[str(int(v)) for v in row]] for sid, row in zip(mf.site_ids, mf.values)],
        )
    if labels_path is not None:
        if dataset.stages is None:
            raise InvalidValue("dataset has no labels to save")
        st = dataset.stages
        _write_csv(
            labels_path,
            ["site_id", "stage"],
            [[sid, lab] for sid, lab in zip(st.site_ids, st.labels)],
        )


def _write_csv(path: str | Path, header: list[str], rows: list, lineterminator="\r\n") -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    _write_file(path, buffer.getvalue())


def _write_json(payload: dict, path: str | Path) -> None:
    _write_file(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _label_set_for(n_classes: int) -> tuple[str, ...]:
    if n_classes <= len(STAGE_LABELS):
        return STAGE_LABELS[:n_classes]
    extra = tuple(f"stage_{i}" for i in range(len(STAGE_LABELS), n_classes))
    return STAGE_LABELS + extra


def taxa_blocks(p: int, n_blocks: int) -> list[np.ndarray]:
    """Partition taxon indices 0..p-1 into contiguous blocks."""
    return [b for b in np.array_split(np.arange(p), n_blocks)]


def synthesize_dataset(
    n: int,
    p: int,
    K: int,
    n_blocks: int,
    coupling: float,
    noise: float,
    seed: int,
) -> Dataset:
    """Generate block-structured compositional data with planted signal.

    Taxa are partitioned into ``n_blocks`` contiguous blocks. Each class
    shifts the log-abundance of one whole block coherently; within-block
    taxa additionally share a noise component so that blocks are genuinely
    co-occurring groups. Rows are closed to sum 1. Macrofauna counts are
    monotone (dense-rank) functions of the abundance mean of the block
    each category tracks, mixed with independent noise weighted
    ``coupling`` : ``1 - coupling``. Deterministic given ``seed``.

    Raises
    ------
    InvalidShape
        If n < K, p < n_blocks, or n_blocks < 1.
    InvalidValue
        If ``seed`` is not an integer.
    """
    if K < 1 or n < K or n_blocks < 1 or p < n_blocks:
        raise InvalidShape(
            f"need n >= K >= 1 and p >= n_blocks >= 1, got n={n} p={p} K={K} n_blocks={n_blocks}"
        )
    if not 0.0 <= coupling <= 1.0:
        raise InvalidShape(f"coupling must be in [0, 1], got {coupling}")
    if not noise >= 0.0:
        raise InvalidShape(f"noise must be >= 0, got {noise}")

    rng = substream(seed, "synthesize")
    blocks = taxa_blocks(p, n_blocks)
    block_of = np.empty(p, dtype=np.int64)
    for b, members in enumerate(blocks):
        block_of[members] = b
    n_signal = min(K, n_blocks)
    classes = np.arange(n) % K

    baseline = rng.normal(0.0, 0.5, size=p)
    block_noise = rng.normal(size=(n, n_blocks))
    idio_noise = rng.normal(size=(n, p))

    # class k lifts block (k % n_signal); classes forced to share a block
    # (K > n_blocks) get distinct amplitudes so they stay separable
    shift = np.zeros((n, p))
    for k in range(K):
        target = k % n_signal
        amp = _SHIFT_AMPLITUDE * (1.0 + (k // n_signal))
        shift[np.ix_(classes == k, blocks[target])] = amp

    log_abund = (
        baseline[None, :]
        + shift
        + noise * _BLOCK_NOISE_FRACTION * block_noise[:, block_of]
        + noise * _IDIO_NOISE_FRACTION * idio_noise
    )
    raw = np.exp(log_abund)
    closed = raw / raw.sum(axis=1, keepdims=True)

    site_ids = [f"site_{i + 1:02d}" for i in range(n)]
    taxa = [f"taxon_{j + 1:02d}" for j in range(p)]
    abundances = AbundanceMatrix(site_ids, taxa, closed)

    k_cat = len(MACROFAUNA_CATEGORIES)
    count_noise = rng.normal(size=(n, k_cat))
    counts = np.empty((n, k_cat), dtype=np.int64)
    for c in range(k_cat):
        tracked = blocks[c % n_signal]
        block_mean = closed[:, tracked].mean(axis=1)
        std = block_mean.std()
        signal = (block_mean - block_mean.mean()) / std if std > 0 else np.zeros(n)
        score = coupling * signal + (1.0 - coupling) * count_noise[:, c]
        counts[:, c] = _dense_rank(score)
    macrofauna = MacrofaunaCounts(list(site_ids), counts)

    label_set = _label_set_for(K)
    stages = StageLabels(list(site_ids), [label_set[k] for k in classes], label_set)
    return Dataset(abundances, macrofauna, stages)


def _dense_rank(values: np.ndarray) -> np.ndarray:
    """Map values to 0-based dense ranks; ties share a rank."""
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64)
