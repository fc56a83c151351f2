"""Checks of the pipeline's final outputs against computations made here.

Every expected value comes from the raw KT1 files and `ground_truth.json`
that `ktrace synth` wrote, never from the program's intermediate stores
(`labeled.csv`, `interactions.csv`, `rows.txt`, `meta.csv`) and never
from a stored copy of earlier outputs.  Each check is one operation of
the benchmark; a check that fails, or that cannot read its output, is a
failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SEQUENCE_MODELS = ("dkt", "sakt")
TEST_FRACTION = 0.2  # `ktrace split --test`
BASELINE_TOLERANCE = 1e-9
EXPLAIN_DEFAULT_LEARNERS = 1000  # `ktrace explain --n-learners` default
# DKT's training loss rises in its third epoch: on some seeds above the
# first epoch's, and its test AUC below the item-frequency baseline.  A
# check that fails on some seeds only cannot tell a regression from the
# seed, so neither is checked for DKT.
UNSTABLE_TRAINING = ("dkt",)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class Interactions:
    """The raw input, each learner's rows in time order."""

    learners: list[str]  # sorted ids
    offsets: np.ndarray  # learner i owns rows offsets[i]:offsets[i + 1]
    item: np.ndarray  # index into items
    correct: np.ndarray  # bool
    planted: np.ndarray  # P(correct) under the generating model
    items: list[str]
    item_tags: list[tuple[int, ...]]

    def rows_of(self, learner_ids, skip_first: bool = False) -> np.ndarray:
        """Row indices of these learners, without each first row if asked.

        The sequence models predict every row but a learner's first.
        """
        index = {lid: i for i, lid in enumerate(self.learners)}
        parts = [np.arange(self.offsets[index[lid]] + skip_first, self.offsets[index[lid] + 1])
                 for lid in sorted(learner_ids)]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def read_raw(raw: Path, per_learner_files: bool) -> Interactions:
    truth = json.loads((raw / "ground_truth.json").read_text())
    rows: dict[str, list[tuple[int, str, str]]] = {}
    if per_learner_files:
        for path in sorted(raw.glob("u*.csv")):
            with open(path, encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                next(reader)
                rows[path.stem[1:]] = [(int(ts), q, a) for ts, q, _, a, _ in reader]
    else:
        with open(raw / "interactions.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for lid, ts, q, _, a, _ in reader:
                rows.setdefault(lid, []).append((int(ts), q, a))

    items = sorted(truth["item_answers"])
    code = {q: i for i, q in enumerate(items)}
    answers = [truth["item_answers"][q] for q in items]
    difficulty = np.array([truth["difficulties"][q] for q in items])
    increment = truth["config"]["learning_increment"]
    learners = sorted(rows)
    item_parts, correct_parts, planted_parts = [], [], []
    offsets = [0]
    for lid in learners:
        seq = sorted(rows[lid], key=lambda r: r[0])  # stable, as prep sorts
        item = np.array([code[q] for _, q, _ in seq], dtype=np.int64)
        item_parts.append(item)
        correct_parts.append(np.array([a == answers[code[q]] for _, q, a in seq]))
        logit = truth["abilities"][lid] + increment * np.arange(len(seq)) - difficulty[item]
        planted_parts.append(1.0 / (1.0 + np.exp(-logit)))
        offsets.append(offsets[-1] + len(seq))
    return Interactions(
        learners=learners,
        offsets=np.array(offsets),
        item=np.concatenate(item_parts),
        correct=np.concatenate(correct_parts),
        planted=np.concatenate(planted_parts),
        items=items,
        item_tags=[tuple(truth["item_tags"][q]) for q in items],
    )


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC, ties at their average rank."""
    order = np.argsort(scores, kind="mergesort")
    ranked = scores[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], len(ranked)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def baseline_scores(data: Interactions, train_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Training-part correctness frequency of each row's item, else the global mean."""
    n_items = len(data.items)
    attempts = np.bincount(data.item[train_rows], minlength=n_items)
    wins = np.bincount(data.item[train_rows], weights=data.correct[train_rows], minlength=n_items)
    global_mean = int(data.correct[train_rows].sum()) / len(train_rows)
    freq = np.full(n_items, global_mean)
    seen = attempts > 0
    freq[seen] = wins[seen] / attempts[seen]
    return freq[data.item[rows]]


def read_report(work: Path, model: str) -> dict:
    return json.loads((work / "reports" / f"{model}.json").read_text())


def explain_covers_test_part(workload) -> bool:
    args = list(workload.explain_args)
    n = EXPLAIN_DEFAULT_LEARNERS
    if "--n-learners" in args:
        n = int(args[args.index("--n-learners") + 1])
    n_test = round(TEST_FRACTION * workload.generator["n_learners"])
    return n >= n_test


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


class _Context:
    """The raw input and the split, shared by the checks of one round."""

    def __init__(self, data: Interactions, work: Path):
        self.work = work
        self.data = data
        split = json.loads((work / "sp" / "split.json").read_text())
        self.train_ids, self.test_ids = split["train"], split["test"]
        self.train_rows = self.data.rows_of(self.train_ids)
        self.test_rows = self.data.rows_of(self.test_ids)
        self.later_test_rows = self.data.rows_of(self.test_ids, skip_first=True)

    def rows_for(self, model: str) -> np.ndarray:
        return self.later_test_rows if model in SEQUENCE_MODELS else self.test_rows


def _stats(ctx: _Context):
    stats = json.loads((ctx.work / "ds" / "stats.json").read_text())
    d = ctx.data
    expected = {"n_learners": len(d.learners), "n_interactions": len(d.item),
                "n_correct": int(d.correct.sum()), "n_wrong": int((~d.correct).sum())}
    got = {k: stats[k] for k in expected}
    return got == expected, f"{got} vs {expected}"


def _split(ctx: _Context):
    train, test = ctx.train_ids, ctx.test_ids
    n = len(ctx.data.learners)
    ok = (len(set(train)) == len(train) and len(set(test)) == len(test)
          and not set(train) & set(test)
          and set(train) | set(test) == set(ctx.data.learners)
          and len(test) == round(TEST_FRACTION * n))
    return ok, f"{len(train)} train / {len(test)} test of {n}"


def _n_test(model: str):
    def check(ctx: _Context):
        got = read_report(ctx.work, model)["n_test_interactions"]
        expected = len(ctx.rows_for(model))
        return got == expected, f"{got} vs {expected}"
    return check


def _baseline_auc(ctx: _Context):
    rows = ctx.test_rows
    expected = auc(ctx.data.correct[rows], baseline_scores(ctx.data, ctx.train_rows, rows))
    got = read_report(ctx.work, "baseline")["auc"]
    return abs(got - expected) <= BASELINE_TOLERANCE, f"{got!r} vs {expected!r}"


def _auc_bounds(ctx: _Context, model: str) -> tuple[float, float, float]:
    """(independent baseline AUC, the model's AUC, planted-model AUC) on its rows."""
    rows = ctx.rows_for(model)
    labels = ctx.data.correct[rows]
    return (auc(labels, baseline_scores(ctx.data, ctx.train_rows, rows)),
            read_report(ctx.work, model)["auc"],
            auc(labels, ctx.data.planted[rows]))


def _auc_above_baseline(model: str):
    def check(ctx: _Context):
        lo, got, _ = _auc_bounds(ctx, model)
        return got > lo, f"{got:.4f} > baseline {lo:.4f}"
    return check


def _auc_below_planted(model: str):
    def check(ctx: _Context):
        _, got, hi = _auc_bounds(ctx, model)
        return got < hi, f"{got:.4f} < planted {hi:.4f}"
    return check


def _skill_difficulty(ctx: _Context):
    expected: dict[int, list[int]] = {}
    d = ctx.data
    for row in ctx.test_rows:
        for skill in d.item_tags[d.item[row]]:
            counts = expected.setdefault(skill, [0, 0])
            counts[0] += 1
            counts[1] += int(d.correct[row])
    with open(ctx.work / "ex" / "skill_difficulty.csv", encoding="utf-8", newline="") as fh:
        got = {int(r["skill"]): [int(r["n_interactions"]), int(r["n_correct"])]
               for r in csv.DictReader(fh)}
    bad = sorted(s for s in expected.keys() | got.keys() if expected.get(s) != got.get(s))
    return not bad, f"{len(got)} skills, {len(bad)} differ {bad[:5]}"


def _explanation_cells(ctx: _Context):
    report = json.loads((ctx.work / "ex" / "explanation.json").read_text())
    cells = [c for groups in report["cells"].values() for c in groups.values()]
    bad = [c for c in cells
           if (c["support"] is not None and not 0.0 <= c["support"] <= 1.0)
           or (c["contradict"] is not None and not -1.0 <= c["contradict"] <= 0.0)
           or any(v is not None and math.isnan(v) for v in (c["support"], c["contradict"]))]
    pairs = sum(c["n_pairs"] for c in cells)
    return not bad and pairs > 0, f"{len(cells)} cells, {pairs} pairs, {len(bad)} out of range"


def _explained_rows(ctx: _Context):
    report = json.loads((ctx.work / "ex" / "explanation.json").read_text())
    got = sum(report["n_samples"].values())
    expected = len(ctx.test_rows)
    return got == expected, f"{got} vs {expected}"


def _loss_falls(model: str):
    def check(ctx: _Context):
        with open(ctx.work / model / "trace.csv", encoding="utf-8", newline="") as fh:
            losses = [float(r["loss"]) for r in csv.DictReader(fh)]
        return len(losses) >= 2 and losses[-1] < losses[0], f"epoch losses {losses}"
    return check


def _checks(workload) -> list[tuple[str, Callable]]:
    models = workload.models
    out = [("stats", _stats), ("split", _split)]
    out += [(f"n_test_{m}", _n_test(m)) for m in models]
    if "baseline" in models:
        out.append(("baseline_auc", _baseline_auc))
    scored = [m for m in models if m != "baseline"]
    out += [(f"auc_above_baseline_{m}", _auc_above_baseline(m))
            for m in scored if m not in UNSTABLE_TRAINING]
    out += [(f"auc_below_planted_{m}", _auc_below_planted(m)) for m in scored]
    out += [("skill_difficulty", _skill_difficulty), ("explanation_cells", _explanation_cells)]
    if explain_covers_test_part(workload):
        out.append(("explained_rows", _explained_rows))
    out += [(f"loss_falls_{m}", _loss_falls(m))
            for m in models if m in SEQUENCE_MODELS and m not in UNSTABLE_TRAINING]
    return out


def check_names(workload) -> list[str]:
    return [name for name, _ in _checks(workload)]


def run_checks(workload, data: Interactions, work: Path) -> list[CheckResult]:
    try:
        ctx = _Context(data, work)
    except (OSError, ValueError, KeyError) as exc:
        return [CheckResult(name, False, f"cannot read split.json: {exc!r}")
                for name in check_names(workload)]
    results = []
    for name, check in _checks(workload):
        try:
            ok, detail = check(ctx)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ok, detail = False, f"cannot read output: {exc!r}"
        results.append(CheckResult(name, bool(ok), detail))
    return results
