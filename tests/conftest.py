"""Shared fixtures and independent oracles used across the suite.

The oracles here deliberately avoid the library's incremental/vectorized
code paths: features are recounted by scanning the full prefix, AUC is
the quadratic pairwise definition, and the power-law exponent comes from
a log-log regression on the survival function.
"""

import math

import numpy as np
import pytest

from ktrace.features import FeatureLayout
from ktrace.ingest import LabeledInteraction


def make_interaction(
    learner_id="s0",
    timestamp_ms=0,
    question_id="q0",
    user_answer="a",
    correct=True,
    kc_tags=(1,),
    bundle_id=None,
    elapsed_time_ms=1000,
):
    return LabeledInteraction(
        learner_id=learner_id,
        timestamp_ms=timestamp_ms,
        question_id=question_id,
        bundle_id=bundle_id,
        user_answer=user_answer,
        elapsed_time_ms=elapsed_time_ms,
        correct=correct,
        kc_tags=frozenset(kc_tags),
    )


def row_entries(matrix, i):
    """Row i of a FeatureMatrix as sorted (index, value) pairs, read from
    the CSR arrays."""
    X = matrix.X
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return tuple(zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist()))


def brute_force_features(inter, i, layout: FeatureLayout):
    """Dense-semantics feature dict for interaction i, recounted from the
    full prefix with nested loops.  Zero values are omitted."""
    it = inter[i]
    prefix = inter[:i]
    windows = layout.config.effective_windows()
    vals = {}

    def put(col, v):
        if v != 0.0:
            vals[col] = v

    if layout.has_block("item"):
        put(layout.block("item").offset + layout.item_index(it.question_id), 1.0)

    if layout.has_block("skill"):
        mapped = sorted({layout.skill_index(s) for s in it.kc_tags})
        for s in mapped:
            put(layout.block("skill").offset + s, 1.0)
        for w in windows:
            a_off = layout.block(f"skill_attempts@{_wname(w)}").offset
            w_off = layout.block(f"skill_wins@{_wname(w)}").offset
            for s in mapped:
                att = 0
                wins = 0
                for p in prefix:
                    p_mapped = {layout.skill_index(x) for x in p.kc_tags}
                    if s not in p_mapped:
                        continue
                    if math.isinf(w) or (it.timestamp_ms - p.timestamp_ms) < w:
                        att += 1
                        wins += int(p.correct)
                put(a_off + s, math.log1p(att))
                put(w_off + s, math.log1p(wins))

    if layout.has_block("item_attempts"):
        item_att = sum(1 for p in prefix if p.question_id == it.question_id)
        item_win = sum(int(p.correct) for p in prefix if p.question_id == it.question_id)
        total_att = len(prefix)
        total_win = sum(int(p.correct) for p in prefix)
        put(layout.block("item_attempts").offset, math.log1p(item_att))
        put(layout.block("total_attempts").offset, math.log1p(total_att))
        put(layout.block("item_wins").offset, math.log1p(item_win))
        put(layout.block("total_wins").offset, math.log1p(total_win))
    return vals


def _wname(w):
    from ktrace.features import window_name

    return window_name(w)


def pairwise_auc(labels, scores):
    """O(n^2) Mann-Whitney definition: concordant + half ties."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def fit_powerlaw_exponent(counts, x_max=None):
    """Log-log regression on the survival function; returns alpha."""
    counts = np.asarray(counts, dtype=float)
    xs = np.unique(counts)
    if x_max is not None:
        xs = xs[xs <= x_max]
    ccdf = np.array([(counts >= x).mean() for x in xs])
    keep = ccdf > 0
    slope, _ = np.polyfit(np.log(xs[keep]), np.log(ccdf[keep]), 1)
    return 1.0 - slope


def random_learner_histories(rng, n_learners, max_total, n_items=30, n_skills=8):
    """Random per-learner interaction lists with sorted timestamps."""
    learners = {}
    total = 0
    for li in range(n_learners):
        if total >= max_total:
            break
        T = int(rng.integers(2, 21))
        T = min(T, max_total - total)
        total += T
        ts = np.cumsum(rng.integers(60_000, 3 * 86_400_000, T)) + 1_500_000_000_000
        inter = []
        for t in range(T):
            k = int(rng.integers(1, 3))
            tags = tuple(int(s) for s in rng.choice(n_skills, size=k, replace=False))
            inter.append(
                make_interaction(
                    learner_id=f"s{li}",
                    timestamp_ms=int(ts[t]),
                    question_id=f"q{int(rng.integers(0, n_items))}",
                    correct=bool(rng.random() < 0.6),
                    kc_tags=tags,
                )
            )
        learners[f"s{li}"] = inter
    return learners


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
