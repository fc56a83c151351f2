"""Correlation-based local explanation of a linear model, plus skill
difficulty analysis.

Each explained row is perturbed (Bernoulli flips on one-hot entries,
truncated Gaussian noise on count entries), the model scores every
perturbation, and per-feature Pearson correlations with the predicted
probability are aggregated into support (mean positive) and contradict
(mean negative) values per feature group and prediction bucket.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.special import expit

from .errors import UsageError
from .features import FeatureLayout
from .linear_models import LinearModel
from .prep import Dataset

GROUP_LABELS = {
    "kc": "KCs (One hot encoded)",
    "attempts": "Attempt (Counts)",
    "wins": "Wins (Counts)",
    "item": "Item (One hot encoded)",
}
GROUP_ORDER = ("kc", "attempts", "wins", "item")
BUCKETS = ("correct", "incorrect")


@dataclass(frozen=True)
class LimeConfig:
    n_perturbations: int = 300
    flip_prob: float = 0.3
    noise_scale: float = 0.5
    seed: int = 0
    n_test_learners_sampled: int = 1000

    def __post_init__(self):
        if self.n_perturbations < 2:
            raise UsageError("n_perturbations must be >= 2")


def perturb_sample(
    cols: np.ndarray, vals: np.ndarray, layout: FeatureLayout,
    config: LimeConfig, seed: int,
) -> np.ndarray:
    """n perturbed copies of one row's active features.

    cols/vals are the row's slice of a CSR matrix's indices/data.  The
    result P has shape (n_perturbations, len(cols)).  One-hot entries
    flip to 0 with probability flip_prob; count entries get zero-mean
    Gaussian noise truncated at 0.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    is_binary = layout.is_onehot(cols)
    n = config.n_perturbations
    P = np.tile(np.asarray(vals, dtype=np.float64), (n, 1))
    if is_binary.any():
        flips = rng.random((n, int(is_binary.sum()))) < config.flip_prob
        block = P[:, is_binary]
        block[flips] = 1.0 - block[flips]
        P[:, is_binary] = block
    if (~is_binary).any():
        noise = rng.normal(0.0, config.noise_scale, (n, int((~is_binary).sum())))
        P[:, ~is_binary] = np.maximum(P[:, ~is_binary] + noise, 0.0)
    return P


def _pearson_columns(P: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """Pearson correlation of each column of P with preds; 0 on zero variance."""
    pc = preds - preds.mean()
    denom_p = np.sqrt(np.sum(pc * pc))
    Xc = P - P.mean(axis=0)
    denom_x = np.sqrt(np.sum(Xc * Xc, axis=0))
    out = np.zeros(P.shape[1])
    ok = (denom_x > 0) & (denom_p > 0)
    if ok.any():
        out[ok] = (Xc[:, ok].T @ pc) / (denom_x[ok] * denom_p)
    return out


def lime_correlations(
    model: LinearModel, cols: np.ndarray, vals: np.ndarray,
    layout: FeatureLayout, config: LimeConfig, seed: int,
) -> np.ndarray:
    """Correlation of each active feature (cols) with the model output."""
    P = perturb_sample(cols, vals, layout, config, seed)
    scores = model.bias + P @ model.weights[cols]
    preds = expit(scores)
    if len(np.unique(preds)) < 2:
        warnings.warn("fewer than 2 distinct perturbed predictions; zero vector")
        return np.zeros(len(cols))
    return _pearson_columns(P, preds)


@dataclass
class GroupImportance:
    support: float | None  # mean positive correlation, None if bucket empty
    contradict: float | None
    n_pairs: int


@dataclass
class ExplanationReport:
    """Support/contradict mean correlations per group x prediction bucket."""

    cells: dict[str, dict[str, GroupImportance]]
    n_samples: dict[str, int]
    skill_importance: dict[int, float] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "n_samples": self.n_samples,
            "cells": {
                bucket: {
                    group: {
                        "support": gi.support,
                        "contradict": gi.contradict,
                        "n_pairs": gi.n_pairs,
                    }
                    for group, gi in groups.items()
                }
                for bucket, groups in self.cells.items()
            },
            "skill_importance": {str(k): v for k, v in sorted(self.skill_importance.items())},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        lines = ["features\tcorrect_support\tcorrect_contradict\tincorrect_support\tincorrect_contradict"]

        def fmt(v):
            return "absent" if v is None else f"{v:.4f}"

        for group in GROUP_ORDER:
            cells = []
            for bucket in BUCKETS:
                gi = self.cells.get(bucket, {}).get(group)
                cells.append(fmt(gi.support if gi else None))
                cells.append(fmt(gi.contradict if gi else None))
            lines.append(GROUP_LABELS[group] + "\t" + "\t".join(cells))
        return "\n".join(lines) + "\n"


def aggregate_importances(
    per_sample: Iterable[tuple[np.ndarray, np.ndarray]],
    predictions: Sequence[float],
    labels: Sequence[bool],
    layout: FeatureLayout,
    threshold: float = 0.5,
) -> ExplanationReport:
    """Bucket samples by prediction correctness and average correlation signs.

    support = mean over (sample, feature) pairs with positive correlation,
    contradict = mean over pairs with negative correlation; empty buckets
    are reported absent, not zero.
    """
    sums = {b: {g: [0.0, 0, 0.0, 0] for g in GROUP_ORDER} for b in BUCKETS}
    n_samples = {b: 0 for b in BUCKETS}
    skill_block = layout.block("skill") if layout.has_block("skill") else None
    skill_sum: dict[int, float] = {}
    skill_n: dict[int, int] = {}

    groups_cache: dict[int, str] = {}

    def group_of(col: int) -> str:
        g = groups_cache.get(col)
        if g is None:
            g = layout.block_of(col).group
            groups_cache[col] = g
        return g

    for (cols, corrs), pred, label in zip(per_sample, predictions, labels):
        bucket = "correct" if (pred >= threshold) == bool(label) else "incorrect"
        n_samples[bucket] += 1
        for col, corr in zip(cols, corrs):
            col = int(col)
            g = group_of(col)
            cell = sums[bucket][g]
            if corr > 0:
                cell[0] += corr
                cell[1] += 1
            elif corr < 0:
                cell[2] += corr
                cell[3] += 1
            if skill_block is not None and skill_block.offset <= col < skill_block.offset + skill_block.width:
                rel = col - skill_block.offset
                if rel < len(layout.skill_vocab):
                    skill = layout.skill_vocab[rel]
                    skill_sum[skill] = skill_sum.get(skill, 0.0) + float(corr)
                    skill_n[skill] = skill_n.get(skill, 0) + 1

    cells: dict[str, dict[str, GroupImportance]] = {}
    for bucket in BUCKETS:
        cells[bucket] = {}
        for g in GROUP_ORDER:
            pos_sum, pos_n, neg_sum, neg_n = sums[bucket][g]
            cells[bucket][g] = GroupImportance(
                support=pos_sum / pos_n if pos_n else None,
                contradict=neg_sum / neg_n if neg_n else None,
                n_pairs=pos_n + neg_n,
            )
    return ExplanationReport(
        cells=cells,
        n_samples=n_samples,
        skill_importance={s: skill_sum[s] / skill_n[s] for s in skill_sum},
    )


def explain_model(
    model: LinearModel,
    test: Dataset,
    layout: FeatureLayout,
    config: LimeConfig,
) -> ExplanationReport:
    """Explain the model on a learner subsample of the test set."""
    from . import features as ft
    from .prep import sample_learners

    n = min(config.n_test_learners_sampled, test.n_learners)
    subset = sample_learners(test, n, config.seed)
    matrix = ft.extract(subset.learners, layout)
    X = matrix.X
    per_sample = []
    for i in range(matrix.n_rows):
        lo, hi = X.indptr[i], X.indptr[i + 1]
        cols, vals = X.indices[lo:hi], X.data[lo:hi]
        corrs = lime_correlations(model, cols, vals, layout, config, seed=config.seed + i + 1)
        per_sample.append((cols, corrs))
    return aggregate_importances(per_sample, model.predict_matrix(X), matrix.y, layout)


@dataclass
class SkillDifficulty:
    skill: int
    n_interactions: int
    n_correct: int
    correctness_ratio: float
    lime_importance: float | None = None


def skill_difficulty(
    dataset: Dataset, skill_importance: dict[int, float] | None = None
) -> list[SkillDifficulty]:
    """Per-skill correctness ratio, sorted ascending (hardest first)."""
    attempts: dict[int, int] = {}
    wins: dict[int, int] = {}
    for it in dataset.all_interactions():
        for s in it.kc_tags:
            attempts[s] = attempts.get(s, 0) + 1
            wins[s] = wins.get(s, 0) + int(it.correct)
    rows = [
        SkillDifficulty(
            skill=s,
            n_interactions=attempts[s],
            n_correct=wins[s],
            correctness_ratio=wins[s] / attempts[s],
            lime_importance=None if skill_importance is None else skill_importance.get(s),
        )
        for s in attempts
    ]
    rows.sort(key=lambda r: (r.correctness_ratio, r.skill))
    return rows


def skill_difficulty_table(rows: Sequence[SkillDifficulty], top_k: int = 3) -> str:
    """Hardest and easiest skills with their local importances."""
    lines = ["rank\tdifficult_skill\tratio\tlime\teasy_skill\tratio\tlime"]

    def fmt(v):
        return "" if v is None else f"{v:.4f}"

    easiest = rows[::-1]
    for i in range(min(top_k, len(rows))):
        hard = rows[i]
        easy = easiest[i]
        lines.append(
            f"{i + 1}\t{hard.skill}\t{hard.correctness_ratio:.4f}\t{fmt(hard.lime_importance)}"
            f"\t{easy.skill}\t{easy.correctness_ratio:.4f}\t{fmt(easy.lime_importance)}"
        )
    return "\n".join(lines) + "\n"


def skill_difficulty_csv(rows: Sequence[SkillDifficulty]) -> str:
    lines = ["skill,n_interactions,n_correct,correctness_ratio,lime_importance"]
    for r in rows:
        imp = "" if r.lime_importance is None else f"{r.lime_importance:.17g}"
        lines.append(
            f"{r.skill},{r.n_interactions},{r.n_correct},{r.correctness_ratio:.17g},{imp}"
        )
    return "\n".join(lines) + "\n"
