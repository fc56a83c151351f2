"""Batch command surface tying the pipeline together.

Every output directory receives a run manifest (config hash, seeds,
inputs, outputs, stage timings).  Exit codes: 0 success, 2 usage error,
3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from . import evaluation as ev
from . import explain as ex
from . import features as ft
from . import ingest as ig
from . import linear_models as lm
from . import prep as pp
from . import seq_models as sm
from . import synth as sy
from .errors import KtraceError, UsageError


def _write_manifest(out_dir: Path, command: str, args: dict, inputs: list,
                    outputs: list, seeds: dict, timings: dict) -> None:
    canonical = json.dumps({"command": command, "args": args}, sort_keys=True, default=str)
    payload = {
        "tool_version": __version__,
        "command": command,
        "args": args,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        "seeds": seeds,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "timings_s": timings,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(path) -> pp.Dataset:
    path = Path(path)
    store = path / "interactions.csv" if path.is_dir() else path
    if not store.exists():
        raise UsageError(f"dataset not found: {store}")
    labeled = ig.read_labeled_store(store)
    return pp.Dataset.from_learners(ig.group_by_learner(labeled))


def _load_split(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _apply_split(dataset: pp.Dataset, split_path, part: str) -> pp.Dataset:
    if split_path is None:
        return dataset
    split = _load_split(split_path)
    if part not in ("train", "test"):
        raise UsageError(f"--part must be train or test, got {part!r}")
    return dataset.subset(split[part])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = sy.SynthConfig.from_jsonable(json.load(fh))
    else:
        config = sy.SynthConfig(
            n_learners=args.n_learners, n_items=args.n_items,
            n_skills=args.n_skills, powerlaw_alpha=args.alpha,
            learning_increment=args.learning_increment, seed=args.seed,
        )
    out = _out_dir(args.out)
    dataset, truth = sy.generate(config)
    sy.write_kt1(dataset, truth, out, consolidated=not args.per_learner_files)
    _write_manifest(
        out, "synth", {**config.to_jsonable(), "per_learner_files": args.per_learner_files},
        inputs=[args.config] if args.config else [],
        outputs=sorted(str(p.name) for p in out.iterdir() if p.name != "manifest.json"),
        seeds={"seed": config.seed},
        timings={"synth": round(time.perf_counter() - t0, 3)},
    )
    print(f"synth: {dataset.n_learners} learners, {dataset.n_interactions} interactions -> {out}")
    return 0


def cmd_ingest(args) -> int:
    t0 = time.perf_counter()
    data = Path(args.data)
    bank = ig.load_question_bank(args.questions)
    if data.is_dir():
        consolidated = data / "interactions.csv"
        if consolidated.exists():
            parsed = ig.parse_kt1(consolidated)
        else:
            parsed = ig.parse_kt1_dir(data)
    else:
        parsed = ig.parse_kt1(data)
    labeled = ig.label_correctness(parsed.records, bank)
    out = _out_dir(args.out)
    n = ig.write_labeled_store(out / "labeled.csv", labeled.labeled)
    exclusions = {
        "n_parsed": len(parsed.records),
        "n_labeled": n,
        "n_parse_errors": len(parsed.errors),
        "n_label_errors": len(labeled.errors),
        "parse_errors": [e.__dict__ for e in parsed.errors[:1000]],
        "label_errors": [e.__dict__ for e in labeled.errors[:1000]],
    }
    with open(out / "exclusions.json", "w", encoding="utf-8") as fh:
        json.dump(exclusions, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        out, "ingest", {"data": str(data), "questions": str(args.questions)},
        inputs=[data, args.questions], outputs=["labeled.csv", "exclusions.json"],
        seeds={}, timings={"ingest": round(time.perf_counter() - t0, 3)},
    )
    print(f"ingest: {n} labeled, {len(parsed.errors)} parse errors, "
          f"{len(labeled.errors)} label errors -> {out}")
    return 0


def cmd_prep(args) -> int:
    t0 = time.perf_counter()
    store = Path(args.store)
    if store.is_dir():
        store = store / "labeled.csv"
    labeled = ig.read_labeled_store(store)
    dataset = pp.preprocess(ig.group_by_learner(labeled), args.min_interactions)
    stats = pp.compute_stats(dataset)
    out = _out_dir(args.out)
    ig.write_labeled_store(out / "interactions.csv", dataset.all_interactions())
    with open(out / "vocab.json", "w", encoding="utf-8") as fh:
        fh.write(pp.vocab_to_json(dataset))
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        fh.write(stats.to_json())
    pp.write_histogram(out / "powerlaw.csv", pp.powerlaw_histogram(dataset))
    _write_manifest(
        out, "prep", {"store": str(store), "min_interactions": args.min_interactions},
        inputs=[store],
        outputs=["interactions.csv", "vocab.json", "stats.json", "powerlaw.csv"],
        seeds={}, timings={"prep": round(time.perf_counter() - t0, 3)},
    )
    print(f"prep: {stats.n_learners} learners, {stats.n_interactions} interactions -> {out}")
    return 0


def cmd_sample(args) -> int:
    t0 = time.perf_counter()
    dataset = _load_dataset(args.dataset)
    full_ratio = pp.correctness_ratio(dataset)
    sampled = pp.sample_learners(dataset, args.n, args.seed)
    sub_ratio = pp.correctness_ratio(sampled)
    out = _out_dir(args.out)
    ig.write_labeled_store(out / "interactions.csv", sampled.all_interactions())
    with open(out / "vocab.json", "w", encoding="utf-8") as fh:
        fh.write(pp.vocab_to_json(sampled))
    with open(out / "sample_report.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"full_correctness_ratio": full_ratio,
             "sample_correctness_ratio": sub_ratio,
             "n_sampled": args.n, "seed": args.seed},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    _write_manifest(
        out, "sample", {"dataset": str(args.dataset), "n": args.n, "seed": args.seed},
        inputs=[args.dataset],
        outputs=["interactions.csv", "vocab.json", "sample_report.json"],
        seeds={"seed": args.seed},
        timings={"sample": round(time.perf_counter() - t0, 3)},
    )
    print(f"sample: ratio {sub_ratio:.4f} vs full {full_ratio:.4f} -> {out}")
    return 0


def cmd_split(args) -> int:
    t0 = time.perf_counter()
    dataset = _load_dataset(args.dataset)
    train, test = pp.learner_split(dataset, args.test, args.seed)
    out = _out_dir(args.out)
    with open(out / "split.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"seed": args.seed, "test_fraction": args.test,
             "train": train.learner_ids(), "test": test.learner_ids()},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    _write_manifest(
        out, "split", {"dataset": str(args.dataset), "test": args.test, "seed": args.seed},
        inputs=[args.dataset], outputs=["split.json"],
        seeds={"seed": args.seed},
        timings={"split": round(time.perf_counter() - t0, 3)},
    )
    print(f"split: {train.n_learners} train / {test.n_learners} test learners -> {out}")
    return 0


def cmd_featurize(args) -> int:
    t0 = time.perf_counter()
    dataset = _load_dataset(args.dataset)
    windows = (tuple(ft.parse_window(tok) for tok in args.windows.split(","))
               if args.windows else ft.DEFAULT_WINDOWS)
    config = ft.FeatureConfig(family=args.family, windows=windows)
    train = _apply_split(dataset, args.split, "train")
    layout = ft.layout_for(train, config)
    part = train if args.part == "train" else _apply_split(dataset, args.split, args.part)
    t1 = time.perf_counter()
    matrix = ft.extract(part.learners, layout)
    t_extract = time.perf_counter() - t1
    out = _out_dir(args.out)
    ft.write_rows(out / "rows.txt", matrix, out / "layout.json", out / "meta.csv")
    _write_manifest(
        out, "featurize",
        {"dataset": str(args.dataset), "family": args.family,
         "windows": args.windows, "split": args.split, "part": args.part},
        inputs=[args.dataset] + ([args.split] if args.split else []),
        outputs=["rows.txt", "layout.json", "meta.csv"],
        seeds={},
        timings={"featurize": round(time.perf_counter() - t0, 3),
                 "extract": round(t_extract, 3)},
    )
    rate = matrix.n_rows / t_extract if t_extract > 0 else float("inf")
    print(f"featurize: {matrix.n_rows} rows, width {layout.width}, "
          f"{rate:.0f} interactions/s -> {out}")
    return 0


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args.out)
    src = Path(args.input)
    meta = {"model": args.model}
    if args.model == "baseline":
        dataset = _load_dataset(src)
        dataset = _apply_split(dataset, args.split, "train")
        model = lm.fit_baseline(dataset.learners)
        (out / "model.json").write_text(model.to_json())
        _write_manifest(
            out, "train", {**vars_subset(args), **meta}, [src],
            ["model.json"], {},
            {"train": round(time.perf_counter() - t0, 3)},
        )
        print(f"train: baseline over {len(model.item_probs)} items -> {out}")
        return 0
    if args.model == "lr":
        missing = [n for n in ("rows.txt", "layout.json", "meta.csv")
                   if not (src / n).exists()]
        if missing:
            raise UsageError(f"no {', '.join(missing)} in {src}: lr trains from "
                             "the output directory of `ktrace featurize`")
        layout = ft.FeatureLayout.from_json((src / "layout.json").read_text())
        matrix = ft.read_rows(src / "rows.txt", layout, src / "meta.csv")
        model = lm.fit_logistic_matrix(matrix, l2=args.l2, max_iter=args.max_iter, tol=args.tol)
        (out / "model.json").write_text(model.to_json())
        (out / "layout.json").write_text(matrix.layout.to_json())
        with open(out / "trace.csv", "w", encoding="utf-8") as fh:
            fh.write("iteration,loss\n")
            for i, loss in enumerate(model.report.loss_trace):
                fh.write(f"{i},{loss:.17g}\n")
        _write_manifest(
            out, "train", {**vars_subset(args), **meta}, [src],
            ["model.json", "layout.json", "trace.csv"], {},
            {"train": round(time.perf_counter() - t0, 3)},
        )
        print(f"train: lr converged={model.report.converged} "
              f"iters={model.report.n_iter} -> {out}")
        return 0

    # sequence models
    dataset = _load_dataset(src)
    dataset = _apply_split(dataset, args.split, "train")
    samples, n_tags = sm.build_sequence_samples(dataset)
    config = sm.TrainConfig(
        learning_rate=args.learning_rate, dropout=args.dropout,
        batch_size=args.batch_size, epochs=args.epochs, seed=args.seed,
    )
    if args.model == "dkt":
        net = sm.DKTModel(n_tags, hidden=args.hidden, seed=args.seed)
    else:
        L = args.max_len or max(2, pp.median_sequence_length(dataset))
        net = sm.SAKTModel(n_tags, dim=args.hidden, max_len=L,
                           dropout=args.dropout, seed=args.seed)
    trace = sm.train_sequence_model(net, samples, config)
    sm.save_checkpoint(net, out / "checkpoint.json")
    with open(out / "combined_vocab.json", "w", encoding="utf-8") as fh:
        fh.write(pp.vocab_to_json(dataset))
    with open(out / "trace.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(trace):
            fh.write(f"{i},{loss:.17g}\n")
    _write_manifest(
        out, "train", {**vars_subset(args), **meta}, [src],
        ["checkpoint.json", "combined_vocab.json", "trace.csv"],
        {"seed": args.seed},
        {"train": round(time.perf_counter() - t0, 3)},
    )
    print(f"train: {args.model} final loss {trace[-1]:.4f} -> {out}")
    return 0


def vars_subset(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    model_dir = Path(args.model_dir)
    dataset = _load_dataset(args.dataset)
    test = _apply_split(dataset, args.split, args.part)
    if (model_dir / "model.json").exists():
        payload = json.loads((model_dir / "model.json").read_text())
        if payload["kind"] == "baseline":
            model = lm.BaselineModel.from_json((model_dir / "model.json").read_text())
            labels, scores = ev.score_baseline(model, test)
            model_name, family = "baseline", "item_correctness"
        else:
            model = lm.LinearModel.from_json((model_dir / "model.json").read_text())
            layout = ft.FeatureLayout.from_json((model_dir / "layout.json").read_text())
            matrix = ft.extract(test.learners, layout)
            labels, scores = matrix.y, model.predict_matrix(matrix.X)
            model_name, family = "lr", layout.config.family
    elif (model_dir / "checkpoint.json").exists():
        net = sm.load_checkpoint(model_dir / "checkpoint.json")
        vocab_payload = json.loads((model_dir / "combined_vocab.json").read_text())
        vocab = {
            tuple(sorted(entry["tags"])): entry["id"]
            for entry in vocab_payload["combined_kc_vocab"]
        }
        samples, _ = sm.build_sequence_samples(test, vocab)
        labels, scores = ev.score_sequence_model(net, samples)
        model_name = "dkt" if isinstance(net, sm.DKTModel) else "sakt"
        family = "original"
    else:
        raise UsageError(f"no model found in {model_dir}")
    report = ev.EvalReport(
        model=model_name, feature_family=family,
        auc=ev.compute_auc(labels, scores),
        accuracy=ev.accuracy_at(labels, scores),
        n_test_interactions=int(len(labels)),
        n_test_learners=test.n_learners,
        seed=args.seed,
        # paths stay out of the hash so identical runs in different
        # directories produce identical reports
        config_hash=ev.config_hash(
            {"model": model_name, "family": family, "part": args.part,
             "seed": args.seed}
        ),
    )
    out = _out_dir(Path(args.out).parent if Path(args.out).suffix else args.out)
    report_path = Path(args.out) if Path(args.out).suffix else out / "report.json"
    report_path.write_text(report.to_json())
    _write_manifest(
        out, "eval", vars_subset(args), [model_dir, args.dataset],
        [report_path.name], {"seed": args.seed},
        {"eval": round(time.perf_counter() - t0, 3)},
    )
    print(f"eval: {model_name} AUC {report.auc:.4f} on "
          f"{report.n_test_interactions} interactions -> {report_path}")
    return 0


def cmd_leaderboard(args) -> int:
    reports = [ev.EvalReport.from_json(Path(p).read_text()) for p in args.reports]
    text = ev.leaderboard(reports)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def cmd_explain(args) -> int:
    t0 = time.perf_counter()
    model_dir = Path(args.model_dir)
    model = lm.LinearModel.from_json((model_dir / "model.json").read_text())
    layout = ft.FeatureLayout.from_json((model_dir / "layout.json").read_text())
    dataset = _load_dataset(args.dataset)
    test = _apply_split(dataset, args.split, args.part)
    config = ex.LimeConfig(
        n_perturbations=args.n_perturb, seed=args.seed,
        n_test_learners_sampled=args.n_learners,
    )
    report = ex.explain_model(model, test, layout, config)
    difficulty = ex.skill_difficulty(test, report.skill_importance)
    out = _out_dir(args.out)
    (out / "explanation.json").write_text(report.to_json())
    (out / "importance_table.tsv").write_text(report.to_table())
    (out / "skill_difficulty.csv").write_text(ex.skill_difficulty_csv(difficulty))
    (out / "skill_difficulty_table.tsv").write_text(ex.skill_difficulty_table(difficulty))
    _write_manifest(
        out, "explain", vars_subset(args), [model_dir, args.dataset],
        ["explanation.json", "importance_table.tsv", "skill_difficulty.csv",
         "skill_difficulty_table.tsv"],
        {"seed": args.seed},
        {"explain": round(time.perf_counter() - t0, 3)},
    )
    print(f"explain: {sum(report.n_samples.values())} interactions explained -> {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ktrace", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--out", required=True)
    p.add_argument("--n-learners", type=int, default=100)
    p.add_argument("--n-items", type=int, default=100)
    p.add_argument("--n-skills", type=int, default=20)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--learning-increment", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-learner-files", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse logs and label correctness")
    p.add_argument("data", help="directory of u*.csv files or one interactions file")
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("prep", help="filter, sort, and compute statistics")
    p.add_argument("store", help="labeled store file or ingest output directory")
    p.add_argument("--min-interactions", type=int, default=pp.MIN_INTERACTIONS_DEFAULT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("sample", help="subsample learners")
    p.add_argument("dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("split", help="learner-level train/test split")
    p.add_argument("dataset")
    p.add_argument("--test", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("featurize", help="extract sparse feature rows")
    p.add_argument("dataset")
    p.add_argument("--family", required=True, choices=ft.FAMILIES)
    p.add_argument("--windows", help="e.g. 1h,1d,7d,30d,inf")
    p.add_argument("--split", help="split.json path; vocabularies come from train")
    p.add_argument("--part", default="train", choices=("train", "test"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit a model")
    p.add_argument("input", help="featurize output dir (lr) or dataset dir")
    p.add_argument("--model", required=True, choices=("baseline", "lr", "dkt", "sakt"))
    p.add_argument("--split")
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--max-len", type=int, default=0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--dropout", type=float, default=0.25)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model on test data")
    p.add_argument("model_dir")
    p.add_argument("dataset")
    p.add_argument("--split")
    p.add_argument("--part", default="test", choices=("train", "test"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report path or directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("leaderboard", help="combine eval reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_leaderboard)

    p = sub.add_parser("explain", help="correlation-LIME + skill difficulty")
    p.add_argument("model_dir")
    p.add_argument("dataset")
    p.add_argument("--split")
    p.add_argument("--part", default="test", choices=("train", "test"))
    p.add_argument("--n-learners", type=int, default=1000)
    p.add_argument("--n-perturb", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    command = "ktrace"
    try:
        args = parser.parse_args(argv)
        command = args.command or command
        return args.func(args)
    except KtraceError as exc:
        print(f"{command}: error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
