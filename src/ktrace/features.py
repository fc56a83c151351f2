"""Causal sparse feature extraction for the five linear feature families.

Every feature of a row is computed from strictly earlier interactions of
the same learner.  Counts are rescaled with ln(1+x).  Window membership
is strict: an event at age exactly w is outside window w.

Rows exist in one form, the CSR `FeatureMatrix` built by the vectorized
`extract`: row i of `X` is `X.indices`/`X.data` between `X.indptr[i]`
and `X.indptr[i + 1]`, sorted by index with zero values omitted.  Counts
are scaled with `math.log1p` read from a lookup table (`_scale_counts`),
the evaluator of `scale_count`, so rows are bit-identical on any numpy
build: numpy's vectorized log1p can differ from it by an ulp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .errors import DataError, UsageError
from .ingest import LabeledInteraction

MS_MINUTE = 60_000
MS_HOUR = 3_600_000
MS_DAY = 86_400_000
DEFAULT_WINDOWS: tuple[float, ...] = (
    MS_HOUR,
    MS_DAY,
    7 * MS_DAY,
    30 * MS_DAY,
    math.inf,
)

FAMILIES = ("irt", "pfa", "das3h", "best_lr", "best_lr_tw")

_WINDOW_NAMES = {
    float(MS_HOUR): "1h",
    float(MS_DAY): "1d",
    float(7 * MS_DAY): "7d",
    float(30 * MS_DAY): "30d",
    math.inf: "inf",
}


def window_name(w: float) -> str:
    """Name of window w (ms) in block names; `parse_window` reads it back
    exactly."""
    w = float(w)
    name = _WINDOW_NAMES.get(w)
    if name is not None:
        return name
    return f"{int(w)}ms" if w.is_integer() else f"{w!r}ms"


def parse_window(token: str) -> float:
    """Window in ms from `inf` or a number with an optional unit: `ms`,
    `m`, `h`, `d` or `w` (no unit means ms)."""
    text = token.strip().lower()
    if text in ("inf", "infinity"):
        return math.inf
    units = {"ms": 1, "m": MS_MINUTE, "h": MS_HOUR, "d": MS_DAY, "w": 7 * MS_DAY}
    number, scale = text, 1
    for unit, ms in units.items():  # "ms" before "m"
        if text.endswith(unit):
            number, scale = text[: -len(unit)], ms
            break
    try:
        return float(number) * scale
    except ValueError:
        raise UsageError(f"cannot parse window {token!r}") from None


def scale_count(x: float) -> float:
    """ln(1+x) count rescaling; monotone, zero at zero."""
    if x < 0:
        raise UsageError(f"count must be non-negative, got {x}")
    return math.log1p(x)


def _scale_counts(counts: np.ndarray) -> np.ndarray:
    """`scale_count` of every entry of a non-negative integer count array,
    read from a table of `scale_count(k)` for k = 0..max(counts)."""
    size = int(counts.max()) + 1 if counts.size else 0
    table = np.fromiter(map(scale_count, range(size)), np.float64, size)
    return table[counts]


@dataclass(frozen=True)
class FeatureConfig:
    family: str
    windows: tuple[float, ...] = DEFAULT_WINDOWS
    scale: str = "log1p"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown feature family {self.family!r}")
        if self.scale != "log1p":
            raise UsageError(f"unknown scale {self.scale!r}")
        if not all(w > 0 for w in self.windows):
            raise UsageError("windows must be positive")
        if self.family in ("das3h", "best_lr_tw"):
            ws = self.windows
            if not ws or ws[-1] != math.inf:
                raise UsageError("windows must end with inf")
            if any(b <= a for a, b in zip(ws, ws[1:])):
                raise UsageError("windows must be strictly increasing")

    def effective_windows(self) -> tuple[float, ...]:
        """Windows actually used by the layout for this family."""
        if self.family in ("das3h", "best_lr_tw"):
            return tuple(float(w) for w in self.windows)
        if self.family in ("pfa", "best_lr"):
            return (math.inf,)
        return ()

    def to_jsonable(self) -> dict:
        return {
            "family": self.family,
            "windows": [window_name(w) for w in self.windows],
            "scale": self.scale,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "FeatureConfig":
        return cls(
            family=payload["family"],
            windows=tuple(parse_window(w) for w in payload["windows"]),
            scale=payload.get("scale", "log1p"),
        )


@dataclass(frozen=True)
class Block:
    name: str
    kind: str  # "onehot" | "count"
    group: str  # "item" | "kc" | "attempts" | "wins"
    offset: int
    width: int


class FeatureLayout:
    """Deterministic feature-index layout for one (vocab, config) pair.

    Each one-hot block reserves its last index for unknown test-time
    items/skills; unknown skills are pooled into that bucket before any
    counting, so counters also operate on mapped indices.
    """

    def __init__(self, item_vocab: list[str], skill_vocab: list[int], config: FeatureConfig):
        self.item_vocab = list(item_vocab)
        self.skill_vocab = list(skill_vocab)
        self.config = config
        self._item_index = {q: i for i, q in enumerate(self.item_vocab)}
        self._skill_index = {s: i for i, s in enumerate(self.skill_vocab)}
        self.n_items = len(self.item_vocab) + 1  # + unknown
        self.n_skills = len(self.skill_vocab) + 1
        self.blocks: list[Block] = self._build_blocks()
        self._by_name = {b.name: b for b in self.blocks}
        self.width = self.blocks[-1].offset + self.blocks[-1].width
        self._offsets = np.array([b.offset for b in self.blocks])
        self._onehot = np.array([b.kind == "onehot" for b in self.blocks])

    def _build_blocks(self) -> list[Block]:
        fam = self.config.family
        ws = self.config.effective_windows()
        spec: list[tuple[str, str, str, int]] = []
        if fam != "pfa":
            spec.append(("item", "onehot", "item", self.n_items))
        if fam != "irt":
            spec.append(("skill", "onehot", "kc", self.n_skills))
            for w in ws:
                spec.append((f"skill_attempts@{window_name(w)}", "count", "attempts", self.n_skills))
            for w in ws:
                spec.append((f"skill_wins@{window_name(w)}", "count", "wins", self.n_skills))
        if fam in ("best_lr", "best_lr_tw"):
            spec.append(("item_attempts", "count", "attempts", 1))
            spec.append(("total_attempts", "count", "attempts", 1))
            spec.append(("item_wins", "count", "wins", 1))
            spec.append(("total_wins", "count", "wins", 1))
        blocks = []
        offset = 0
        for name, kind, group, width in spec:
            blocks.append(Block(name, kind, group, offset, width))
            offset += width
        return blocks

    def item_index(self, question_id: str) -> int:
        return self._item_index.get(question_id, len(self.item_vocab))

    def skill_index(self, skill: int) -> int:
        return self._skill_index.get(skill, len(self.skill_vocab))

    def has_block(self, name: str) -> bool:
        return name in self._by_name

    def block(self, name: str) -> Block:
        return self._by_name[name]

    def _block_ids(self, cols) -> np.ndarray:
        """Position in `blocks` of each feature index in cols."""
        cols = np.asarray(cols)
        if cols.size and (cols.min() < 0 or cols.max() >= self.width):
            raise UsageError(f"feature index out of range [0, {self.width})")
        return np.searchsorted(self._offsets, cols, side="right") - 1

    def block_of(self, feature_index: int) -> Block:
        return self.blocks[int(self._block_ids(feature_index))]

    def is_onehot(self, cols) -> np.ndarray:
        """Boolean mask: which feature indices in cols are one-hot."""
        return self._onehot[self._block_ids(cols)]

    def to_json(self) -> str:
        payload = {
            "config": self.config.to_jsonable(),
            "item_vocab": self.item_vocab,
            "skill_vocab": self.skill_vocab,
            "width": self.width,
            "blocks": [
                {"name": b.name, "kind": b.kind, "group": b.group,
                 "offset": b.offset, "width": b.width}
                for b in self.blocks
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FeatureLayout":
        payload = json.loads(text)
        return cls(
            payload["item_vocab"],
            payload["skill_vocab"],
            FeatureConfig.from_jsonable(payload["config"]),
        )


@dataclass
class FeatureMatrix:
    X: sp.csr_matrix
    y: np.ndarray  # bool
    learner_ids: list[str]
    timestamps: np.ndarray  # int64
    layout: FeatureLayout

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


def _segment_starts(change: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment start indices, per-element start index) for a boolean
    new-segment marker array whose first element is True."""
    starts = np.flatnonzero(change)
    seg_of = np.cumsum(change) - 1
    return starts, starts[seg_of]


def _windowed_counts(seg_key: np.ndarray, ts: np.ndarray, cor: np.ndarray,
                     windows: tuple[float, ...]):
    """Causal prefix attempt/win counts per element within its segment.

    Elements must be grouped by segment (seg_key constant per segment) and
    time-ordered within each segment.  Returns dicts window -> counts.
    For finite windows, segment timestamps are shifted onto disjoint int64
    bands so one global searchsorted yields every within-segment lower
    bound at once.
    """
    n = len(ts)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = seg_key[1:] != seg_key[:-1]
    starts, start_of = _segment_starts(change)

    occ = np.arange(n, dtype=np.int64) - start_of
    csum = np.cumsum(cor, dtype=np.int64)
    excl = csum - cor  # wins among strictly earlier elements, globally
    sc = excl - excl[start_of]  # ... within the segment

    att = {}
    win = {}
    finite = [w for w in windows if not math.isinf(w)]
    if finite:
        w_max = int(max(finite))
        ends = np.r_[starts[1:], n] - 1
        mins = ts[starts]
        maxs = ts[ends]
        shift_incr = np.empty(len(starts), dtype=np.int64)
        shift_incr[0] = 0
        shift_incr[1:] = maxs[:-1] - mins[1:] + w_max + 1
        band = np.cumsum(shift_incr)
        shifted = ts + band[np.cumsum(change) - 1]
        for w in finite:
            lo = np.searchsorted(shifted, shifted - int(w), side="right")
            k = lo - start_of
            att[w] = occ - k
            win[w] = excl - excl[start_of + k]
    for w in windows:
        if math.isinf(w):
            att[w] = occ
            win[w] = sc
    return att, win


def extract(
    learners: Mapping[str, list[LabeledInteraction]], layout: FeatureLayout
) -> FeatureMatrix:
    """Vectorized batch extraction; rows ordered by learner id then time.

    One flattening pass over the interactions, then global numpy passes:
    counters are never advanced row by row.
    """
    lids = [lid for lid in sorted(learners) if learners[lid]]
    lengths = np.array([len(learners[lid]) for lid in lids], dtype=np.int64)
    n = int(lengths.sum()) if len(lids) else 0
    if n == 0:
        raise DataError("no interactions to featurize")

    flat = [it for lid in lids for it in learners[lid]]
    ts = np.fromiter((it.timestamp_ms for it in flat), np.int64, n)
    correct = np.fromiter((it.correct for it in flat), np.int64, n)
    item_lookup = layout.item_index
    item_idx = np.fromiter(
        (item_lookup(it.question_id) for it in flat), np.int64, n
    )
    need_skill = layout.has_block("skill")
    if need_skill:
        # distinct tag sets are few, so map each set to its sorted layout
        # indices once
        skill_lookup = layout.skill_index
        mapped_cache: dict[frozenset, list[int]] = {}
        e_skill_l: list[int] = []
        e_counts = np.empty(n, dtype=np.int64)
        for i, it in enumerate(flat):
            mapped = mapped_cache.get(it.kc_tags)
            if mapped is None:
                mapped = sorted({skill_lookup(s) for s in it.kc_tags})
                mapped_cache[it.kc_tags] = mapped
            e_skill_l.extend(mapped)
            e_counts[i] = len(mapped)

    lid_idx = np.repeat(np.arange(len(lids), dtype=np.int64), lengths)
    first_of_learner = np.r_[0, np.cumsum(lengths)[:-1]]
    is_first = np.zeros(n, dtype=bool)
    is_first[first_of_learner] = True
    bad = np.flatnonzero((np.diff(ts) < 0) & ~is_first[1:])
    if len(bad):
        raise DataError(
            f"learner {lids[lid_idx[bad[0]]]}: interactions not time-ordered"
        )

    windows = layout.config.effective_windows()
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []

    def add(rows, cols, vals):
        row_parts.append(np.asarray(rows, dtype=np.int64))
        col_parts.append(np.asarray(cols, dtype=np.int64))
        val_parts.append(np.asarray(vals, dtype=np.float64))

    all_rows = np.arange(n, dtype=np.int64)

    if layout.has_block("item"):
        add(all_rows, layout.block("item").offset + item_idx, np.ones(n))

    if need_skill:
        e_row = np.repeat(all_rows, e_counts)
        e_skill = np.array(e_skill_l, dtype=np.int64)
        add(e_row, layout.block("skill").offset + e_skill, np.ones(len(e_row)))
        # group by (learner, skill); e_row ascending keeps time order
        order = np.lexsort((e_row, e_skill, lid_idx[e_row]))
        g_row = e_row[order]
        g_skill = e_skill[order]
        n_sk = layout.n_skills
        seg_key = lid_idx[g_row] * n_sk + g_skill
        att, win = _windowed_counts(seg_key, ts[g_row], correct[g_row], windows)
        for w in windows:
            off = layout.block(f"skill_attempts@{window_name(w)}").offset
            add(g_row, off + g_skill, _scale_counts(att[w]))
            off = layout.block(f"skill_wins@{window_name(w)}").offset
            add(g_row, off + g_skill, _scale_counts(win[w]))

    if layout.has_block("item_attempts"):
        # per-(learner, item) prefix counts
        order = np.lexsort((all_rows, item_idx, lid_idx))
        seg_key = lid_idx[order] * layout.n_items + item_idx[order]
        att, win = _windowed_counts(seg_key, ts[order], correct[order], (math.inf,))
        i_att = np.empty(n, dtype=np.int64)
        i_win = np.empty(n, dtype=np.int64)
        i_att[order] = att[math.inf]
        i_win[order] = win[math.inf]
        # per-learner totals
        t_att = all_rows - first_of_learner[lid_idx]
        csum = np.cumsum(correct)
        excl = csum - correct
        t_win = excl - excl[first_of_learner[lid_idx]]
        add(all_rows, np.full(n, layout.block("item_attempts").offset), _scale_counts(i_att))
        add(all_rows, np.full(n, layout.block("total_attempts").offset), _scale_counts(t_att))
        add(all_rows, np.full(n, layout.block("item_wins").offset), _scale_counts(i_win))
        add(all_rows, np.full(n, layout.block("total_wins").offset), _scale_counts(t_win))

    X = sp.coo_matrix(
        (np.concatenate(val_parts),
         (np.concatenate(row_parts), np.concatenate(col_parts))),
        shape=(n, layout.width),
    ).tocsr()
    X.sort_indices()
    X.eliminate_zeros()
    return FeatureMatrix(
        X=X,
        y=correct.astype(bool),
        learner_ids=list(np.repeat(lids, lengths)),
        timestamps=ts,
        layout=layout,
    )


# ---------------------------------------------------------------------------
# Row file format: "label index:value index:value ..." + layout sidecar
# ---------------------------------------------------------------------------


def write_rows(rows_path, matrix: FeatureMatrix, layout_path=None, meta_path=None) -> None:
    X, y = matrix.X, matrix.y
    indptr, indices, data = X.indptr, X.indices, X.data
    with open(rows_path, "w", encoding="utf-8") as fh:
        for i in range(X.shape[0]):
            parts = [str(int(y[i]))]
            for j in range(indptr[i], indptr[i + 1]):
                parts.append(f"{indices[j]}:{data[j]:.17g}")
            fh.write(" ".join(parts) + "\n")
    if layout_path is not None:
        with open(layout_path, "w", encoding="utf-8") as fh:
            fh.write(matrix.layout.to_json())
    if meta_path is not None:
        with open(meta_path, "w", encoding="utf-8") as fh:
            fh.write("learner_id,timestamp_ms\n")
            for lid, ts in zip(matrix.learner_ids, matrix.timestamps):
                fh.write(f"{lid},{int(ts)}\n")


def read_rows(rows_path, layout: FeatureLayout, meta_path=None) -> FeatureMatrix:
    labels: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    with open(rows_path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            parts = line.split()
            if not parts:
                continue
            labels.append(int(parts[0]))
            for token in parts[1:]:
                idx, val = token.split(":")
                rows.append(i)
                cols.append(int(idx))
                vals.append(float(val))
    n = len(labels)
    X = sp.coo_matrix(
        (vals, (rows, cols)), shape=(n, layout.width)
    ).tocsr()
    X.sort_indices()
    learner_ids = [""] * n
    timestamps = np.zeros(n, dtype=np.int64)
    if meta_path is not None:
        with open(meta_path, "r", encoding="utf-8") as fh:
            next(fh)
            for i, line in enumerate(fh):
                lid, ts = line.rstrip("\n").split(",")
                learner_ids[i] = lid
                timestamps[i] = int(ts)
    return FeatureMatrix(
        X=X,
        y=np.array(labels, dtype=bool),
        learner_ids=learner_ids,
        timestamps=timestamps,
        layout=layout,
    )


def layout_for(dataset, config: FeatureConfig) -> FeatureLayout:
    """Layout from a dataset's (training) vocabularies."""
    return FeatureLayout(dataset.item_vocab, dataset.kc_vocab, config)
