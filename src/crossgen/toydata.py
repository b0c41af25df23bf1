"""Synthetic three-modality dataset: two 16x16 rendered views plus a token
report, with ground-truth binary condition labels.

Each of the C=5 conditions draws a small glyph into its own 5x5 cell, at a
different cell and with a different shape in each view. Nuisance factors
(position jitter, intensity scale) move and scale the glyphs; the report
describes the active conditions plus coarse position/intensity descriptors,
so every pair of modalities shares recoverable information beyond the label
bits. A rule-based labeler inverts reports exactly on in-distribution text.

The dataset is stored as the checkpoint of stage "dataset": ``save_dataset``
turns it into float64 arrays and metadata, ``load_dataset`` turns them back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import stream

NUM_CONDITIONS = 5
VIEW_SIZE = 16
MAX_REPORT_LEN = 32

#: positive-rate profile of the class-imbalance experiment
DEFAULT_POSITIVE_RATES = (0.156, 0.135, 0.0299, 0.104, 0.141)

CONDITIONS = ("alpha", "beta", "gamma", "delta", "epsilon")
_OPENERS = ("routine", "followup", "urgent")
_CLOSERS = ("stable", "unchanged", "review")
_X_WORDS = ("left", "center", "right")
_Y_WORDS = ("upper", "middle", "lower")
_I_WORDS = ("faint", "dim", "soft", "mild", "marked", "strong", "bright", "vivid")

PAD = "<pad>"
VOCAB = (
    (PAD, "study", "no", "findings", "marker")
    + CONDITIONS + _OPENERS + _CLOSERS + _X_WORDS + _Y_WORDS + _I_WORDS
)
TOKEN_TO_ID = {tok: i for i, tok in enumerate(VOCAB)}

JITTER_LEVELS = 3
INTENSITY_LEVELS = len(_I_WORDS)
NUM_FACTOR_BUCKETS = JITTER_LEVELS * JITTER_LEVELS * INTENSITY_LEVELS

_INTENSITY_LO, _INTENSITY_HI = 0.25, 1.0

# 3x3 grid of 5x5 cells; view_a uses cells 0..4, view_b uses cells 4..8,
# so every condition sits at a different location in the two views.
_CELLS = [(r, c) for r in (0, 5, 10) for c in (0, 5, 10)]
_VIEW_A_CELLS = _CELLS[0:5]
_VIEW_B_CELLS = _CELLS[4:9]

# every glyph covers exactly 5 pixels so the conditions are equally salient
_GLYPHS_A = np.array([
    [[0, 1, 0], [1, 1, 1], [0, 1, 0]],   # plus
    [[1, 0, 1], [0, 1, 0], [1, 0, 1]],   # saltire
    [[1, 1, 1], [0, 1, 0], [0, 1, 0]],   # tee
    [[1, 0, 0], [1, 0, 0], [1, 1, 1]],   # ell
    [[1, 1, 0], [0, 1, 0], [0, 1, 1]],   # zig
], dtype=np.float64)
_GLYPHS_B = np.array([
    [[0, 1, 0], [0, 1, 0], [1, 1, 1]],   # inverted tee
    [[0, 0, 1], [0, 0, 1], [1, 1, 1]],   # jay
    [[0, 1, 1], [0, 1, 0], [1, 1, 0]],   # ess
    [[1, 0, 1], [1, 0, 1], [0, 1, 0]],   # vee
    [[1, 1, 0], [1, 0, 0], [0, 1, 1]],   # hook
], dtype=np.float64)

_BG_ROWS, _BG_COLS = np.meshgrid(np.arange(VIEW_SIZE), np.arange(VIEW_SIZE), indexing="ij")
BACKGROUND = 0.05 + 0.05 * (_BG_ROWS + _BG_COLS) / (2.0 * (VIEW_SIZE - 1))


@dataclass
class Record:
    """One synthetic study: two views, a token report, labels and factors."""
    id: int
    view_a: np.ndarray
    view_b: np.ndarray
    report: tuple[str, ...]
    labels: np.ndarray
    factors: np.ndarray


@dataclass
class Dataset:
    records: list[Record]
    split: dict[str, np.ndarray]
    seed: int

    def subset(self, name: str) -> list[Record]:
        return [self.records[i] for i in self.split[name]]


MODALITIES = ("view_a", "view_b", "report")


def payload(record: Record, modality: str):
    """The record's data for one modality."""
    if modality == "view_a":
        return record.view_a
    if modality == "view_b":
        return record.view_b
    if modality == "report":
        return record.report
    raise ValueError(f"unknown modality {modality!r}")


def payload_batch(records, modality: str):
    """The records' data for one modality: a list of reports, or a stacked
    (B, 16, 16) array of views."""
    if modality == "report":
        return [payload(r, modality) for r in records]
    return np.stack([payload(r, modality) for r in records])


def report_to_ids(report) -> np.ndarray:
    """Token ids padded with 0 to MAX_REPORT_LEN; ValueError naming a token
    outside VOCAB, or the length of a report longer than MAX_REPORT_LEN."""
    if len(report) > MAX_REPORT_LEN:
        raise ValueError(f"a report holds at most {MAX_REPORT_LEN} tokens, got {len(report)}")
    ids = np.zeros(MAX_REPORT_LEN, dtype=np.int64)
    try:
        for i, tok in enumerate(report):
            ids[i] = TOKEN_TO_ID[tok]
    except KeyError:
        raise ValueError(f"token {tok!r} is not in the vocabulary") from None
    return ids


def _jitter_offsets(factors: np.ndarray) -> tuple[int, int]:
    dx = int(np.clip(np.rint(factors[0]), -1, 1))
    dy = int(np.clip(np.rint(factors[1]), -1, 1))
    return dx, dy


def intensity_bucket(intensity: float) -> int:
    span = _INTENSITY_HI - _INTENSITY_LO
    b = int((float(intensity) - _INTENSITY_LO) / span * INTENSITY_LEVELS)
    return min(max(b, 0), INTENSITY_LEVELS - 1)


def factor_bucket(factors: np.ndarray) -> int:
    """Quantize (jitter_x, jitter_y, intensity) into a single bucket index."""
    dx, dy = _jitter_offsets(factors)
    ib = intensity_bucket(factors[2])
    return ((dx + 1) * JITTER_LEVELS + (dy + 1)) * INTENSITY_LEVELS + ib


def condition_box(condition: int, view: str) -> tuple[int, int, int, int]:
    """Row/col bounds (r0, r1, c0, c1) of the cell owned by a condition."""
    cells = _VIEW_A_CELLS if view == "view_a" else _VIEW_B_CELLS
    r, c = cells[condition]
    return r, r + 5, c, c + 5


#: view_b displays intensity coarsely (complementary projections: view_a
#: shows the continuous value, the report carries the 8-level descriptor)
VIEW_B_INTENSITY_LEVELS = 4


def _view_b_display_intensity(intensity: float) -> float:
    span = _INTENSITY_HI - _INTENSITY_LO
    b = int((float(intensity) - _INTENSITY_LO) / span * VIEW_B_INTENSITY_LEVELS)
    b = min(max(b, 0), VIEW_B_INTENSITY_LEVELS - 1)
    return _INTENSITY_LO + (b + 0.5) * span / VIEW_B_INTENSITY_LEVELS


def render_views(labels: np.ndarray, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically draw both views from (labels, factors)."""
    labels = np.asarray(labels)
    dx, dy = _jitter_offsets(np.asarray(factors, dtype=np.float64))
    intensity = float(factors[2])
    views = []
    for cells, glyphs, value in (
            (_VIEW_A_CELLS, _GLYPHS_A, intensity),
            (_VIEW_B_CELLS, _GLYPHS_B, _view_b_display_intensity(intensity))):
        img = BACKGROUND.copy()
        for k in range(NUM_CONDITIONS):
            if not labels[k]:
                continue
            r0, c0 = cells[k]
            rc, cc = r0 + 2 + dy, c0 + 2 + dx
            mask = glyphs[k] > 0
            img[rc - 1:rc + 2, cc - 1:cc + 2][mask] = value
        views.append(img)
    return views[0], views[1]


def render_report(labels: np.ndarray, style_seed: int) -> tuple[str, ...]:
    """One phrase per active condition plus descriptor/filler tokens.

    The style seed drives the filler choices; its low bits select the
    position/intensity descriptor words (the dataset generator passes the
    record's factor bucket here, so reports and views stay consistent).
    """
    labels = np.asarray(labels)
    style_seed = int(style_seed)
    rng = np.random.Generator(np.random.PCG64(abs(style_seed)))
    tokens = [_OPENERS[rng.integers(len(_OPENERS))], "study"]
    active = [k for k in range(NUM_CONDITIONS) if labels[k]]
    if not active:
        tokens += ["no", "findings"]
    else:
        for k in active:
            tokens += [CONDITIONS[k], "marker"]
        b = style_seed % NUM_FACTOR_BUCKETS
        ib = b % INTENSITY_LEVELS
        dy = (b // INTENSITY_LEVELS) % JITTER_LEVELS
        dx = b // (INTENSITY_LEVELS * JITTER_LEVELS)
        tokens += [_X_WORDS[dx], _Y_WORDS[dy], _I_WORDS[ib]]
    tokens.append(_CLOSERS[rng.integers(len(_CLOSERS))])
    return tuple(tokens)


def rule_label_text(report) -> np.ndarray:
    """Extract the condition-label vector from a token sequence.

    Marks condition k iff its name occurs anywhere without an immediately
    preceding "no" token. Unknown tokens are ignored.
    """
    tokens = list(report)
    labels = np.zeros(NUM_CONDITIONS, dtype=np.uint8)
    for k, name in enumerate(CONDITIONS):
        for pos, tok in enumerate(tokens):
            if tok == name and (pos == 0 or tokens[pos - 1] != "no"):
                labels[k] = 1
                break
    return labels


def _draw_dataset(seed: int, n: int, positive_rates):
    """The labels, per-record factors and 70/10/20 split of
    ``generate_dataset``, drawn from its stream in its order."""
    if n < 10:
        raise ConfigError(f"dataset size {n} < 10")
    rates = np.asarray(positive_rates, dtype=np.float64)
    if rates.shape != (NUM_CONDITIONS,):
        raise ConfigError(f"positive_rates must have length {NUM_CONDITIONS}")
    if np.any(rates <= 0.0) or np.any(rates >= 1.0):
        raise ConfigError("positive_rates must lie strictly inside (0, 1)")

    rng = stream(seed, "toydata")
    labels = (rng.random((n, NUM_CONDITIONS)) < rates).astype(np.uint8)
    jitter = rng.uniform(-1.5, 1.5, size=(n, 2))
    intensity = rng.uniform(_INTENSITY_LO, _INTENSITY_HI, size=n)
    factors = np.column_stack([jitter, intensity])  # (jitter x, jitter y, intensity)

    perm = rng.permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.1 * n))
    split = {
        "train": np.sort(perm[:n_train]),
        "val": np.sort(perm[n_train:n_train + n_val]),
        "test": np.sort(perm[n_train + n_val:]),
    }
    return labels, factors, split


def _render_record(i: int, labels: np.ndarray, factors: np.ndarray) -> Record:
    view_a, view_b = render_views(labels, factors)
    report = render_report(labels, factor_bucket(factors))
    return Record(i, view_a, view_b, report, labels.copy(), factors.copy())


def generate_dataset(seed: int, n: int,
                     positive_rates=DEFAULT_POSITIVE_RATES) -> Dataset:
    """Sample n records deterministically and split them 70/10/20."""
    labels, factors, split = _draw_dataset(seed, n, positive_rates)
    return Dataset([_render_record(i, labels[i], factors[i]) for i in range(n)],
                   split, int(seed))


def generate_subset(seed: int, n: int, name: str, count: int | None = None) -> list[Record]:
    """``generate_dataset(seed, n).subset(name)[:count]``, rendering only
    those records."""
    labels, factors, split = _draw_dataset(seed, n, DEFAULT_POSITIVE_RATES)
    return [_render_record(i, labels[i], factors[i]) for i in split[name][:count]]


# ---------------------------------------------------------------------------
# the dataset as checkpoint arrays

SPLITS = ("train", "val", "test")


def save_dataset(dataset: Dataset) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and metadata of the dataset's checkpoint: one row per
    record (its id is its row), the report as token ids padded with 0 and
    the split as its index in ``SPLITS``; every value is exact in float64."""
    records = dataset.records
    split = np.zeros(len(records))
    for code, name in enumerate(SPLITS):
        split[dataset.split[name]] = code
    arrays = {"view_a": payload_batch(records, "view_a"),
              "view_b": payload_batch(records, "view_b"),
              "labels": np.stack([r.labels for r in records]),
              "factors": np.stack([r.factors for r in records]),
              "tokens": np.stack([report_to_ids(r.report) for r in records]),
              "split": split}
    return arrays, {"seed": dataset.seed, "vocab": list(VOCAB)}


def load_dataset(arrays: dict[str, np.ndarray], metadata: dict) -> Dataset:
    """The dataset of ``save_dataset``'s arrays and metadata; ValueError for
    another vocabulary, an array of the wrong shape, a token id outside the
    vocabulary, an empty report or one with a pad token inside it, a label
    outside {0, 1} or a split code outside {0, 1, 2}."""
    if metadata["vocab"] != list(VOCAB):
        raise ValueError("vocabulary does not match this build")
    shapes = {name: a.shape for name, a in arrays.items()}
    n = (shapes.get("split") or (-1,))[0]
    expected = {"view_a": (n, VIEW_SIZE, VIEW_SIZE), "view_b": (n, VIEW_SIZE, VIEW_SIZE),
                "labels": (n, NUM_CONDITIONS), "factors": (n, 3),
                "tokens": (n, MAX_REPORT_LEN), "split": (n,)}
    if shapes != expected:
        raise ValueError(f"dataset arrays have shapes {shapes}, expected {expected}")
    tokens, split, labels = arrays["tokens"], arrays["split"], arrays["labels"]
    if not np.all(np.isin(tokens, np.arange(len(VOCAB)))):
        raise ValueError("token id out of range")
    filled = tokens != 0
    lengths = filled.sum(axis=1)
    if np.any(lengths == 0):
        raise ValueError("empty report")
    if np.any(filled != (np.arange(MAX_REPORT_LEN) < lengths[:, None])):
        raise ValueError("pad token inside a report")
    if not np.all(np.isin(labels, (0, 1))):
        raise ValueError("label outside {0, 1}")
    if not np.all(np.isin(split, (0, 1, 2))):
        raise ValueError("split code outside {0, 1, 2}")
    records = [Record(i, view_a, view_b, tuple([VOCAB[t] for t in row[:length]]), lab, fac)
               for i, (view_a, view_b, row, length, lab, fac) in enumerate(zip(
                   arrays["view_a"], arrays["view_b"], tokens.astype(np.int64).tolist(),
                   lengths.tolist(), labels.astype(np.uint8), arrays["factors"]))]
    return Dataset(records, {name: np.flatnonzero(split == code)
                             for code, name in enumerate(SPLITS)}, metadata["seed"])
