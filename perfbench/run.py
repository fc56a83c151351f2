"""End-to-end benchmark of the ktrace pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload lr_10k --seed 1 --seconds 30 --trace 0

One round generates the workload's KT1 input with `ktrace synth` (three
times, for the set-up time), runs every CLI stage as its own process,
as a user runs them, and checks the outputs against the benchmark's own
computations from the raw input (`checks.py`).  Rounds repeat until
`--seconds` have passed; each metric is the median over rounds.  With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` every stage process runs under
`trace_stage.py` and the object holds the per-layer metrics every
workload reports (`layers.REPORTED`).  Results and traces are kept
under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import layers  # noqa: E402

SETUP_REPS = 3
SPLIT_SEED = 1
TEST_FRACTION = checks.TEST_FRACTION
# A run is refused (and its processes stopped) after this many seconds.
DEADLINE_S = 170.0
MB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    generator: dict  # `ktrace synth --config` fields, except the seed
    per_learner_files: bool
    # The synth seed is chosen so that the input holds this many
    # interactions (within 0.5%) and the test learners a fifth of them
    # (within 1%); None takes the seed as given.
    target_interactions: int | None
    models: tuple[str, ...]  # trained, then evaluated, in this order
    epochs: int  # sequence models
    explain_args: tuple[str, ...] = ()


# The criterion-10 generator of tests/test_acceptance.py.
LR_10K = Workload(
    name="lr_10k",
    generator=dict(
        n_learners=10_000, n_items=200, n_skills=50, two_kc_prob=0.5,
        powerlaw_alpha=2.0, min_interactions=18, max_interactions=8000,
        difficulty_sd=1.0, ability_sd=1.0, learning_increment=0.01,
    ),
    per_learner_files=False,
    target_interactions=1_275_000,
    models=("lr",),
    epochs=0,
    explain_args=("--n-learners", "20", "--n-perturb", "50"),
)

# The paper's model comparison at desk scale: an EdNet-like vocabulary
# (about 1.1k combined tags) and one KT1 file per learner.
PAPER_2K = Workload(
    name="paper_2k",
    generator=dict(
        n_learners=2_000, n_items=2_000, n_skills=150, two_kc_prob=0.5,
        powerlaw_alpha=2.0, min_interactions=18, max_interactions=8000,
        difficulty_sd=1.0, ability_sd=1.0, learning_increment=0.01,
    ),
    per_learner_files=True,
    target_interactions=255_000,
    models=("lr", "baseline", "dkt", "sakt"),
    epochs=3,
)

WORKLOADS = {w.name: w for w in (LR_10K, PAPER_2K)}


@dataclass
class Stage:
    name: str
    argv: list[str]
    out: Path | None = None  # output directory, counted in artifact_mb
    # a directory no later stage reads, removed once this stage has run
    done_with: Path | None = None


@dataclass
class StageRun:
    name: str
    start: float
    end: float
    exit_code: int
    rss_mb: float
    spans: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Workload input
# ---------------------------------------------------------------------------


def planned_counts(generator: dict, seed: int) -> np.ndarray:
    """Interactions per learner that `ktrace synth` draws for this seed.

    Mirrors the order of the first draws in `synth.generate`; the stats
    check compares the resulting total with the raw files.
    """
    global_seed, _ = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(global_seed)
    n_items, n_skills = generator["n_items"], generator["n_skills"]
    rng.normal(0.0, generator["difficulty_sd"], n_items)
    rng.integers(0, 4, n_items)
    rng.integers(0, n_skills, n_items)
    rng.integers(0, n_skills, n_items)
    rng.random(n_items)
    u = rng.random(generator["n_learners"])
    x = generator["min_interactions"] * (1.0 - u) ** (-1.0 / (generator["powerlaw_alpha"] - 1.0))
    return np.minimum(x, generator["max_interactions"]).astype(np.int64)


def test_learner_indices(n_learners: int) -> np.ndarray:
    """Positions, in sorted id order, of the learners `ktrace split` tests."""
    n_test = round(TEST_FRACTION * n_learners)
    return np.random.default_rng(SPLIT_SEED).permutation(n_learners)[:n_test]


def synth_seed(workload: Workload, seed: int) -> int:
    """The synth seed for a benchmark seed.

    The learner-length distribution is heavy-tailed, so the input size
    and the test part's size vary by 4-20% between synth seeds.  The
    benchmark keeps the first of seed*100000, seed*100000+1, ... whose
    sizes are on target, so that different seeds time the same work.
    """
    if workload.target_interactions is None:
        return seed
    target = workload.target_interactions
    test_idx = test_learner_indices(workload.generator["n_learners"])
    for k in range(100_000):
        candidate = seed * 100_000 + k
        counts = planned_counts(workload.generator, candidate)
        if (abs(counts.sum() - target) <= 0.005 * target
                and abs(counts[test_idx].sum() - TEST_FRACTION * target)
                <= 0.01 * TEST_FRACTION * target):
            return candidate
    raise RuntimeError(f"no synth seed on target for seed {seed}")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def setup_stage(workload: Workload, config: Path, raw: Path, rep: int) -> Stage:
    argv = ["synth", "--config", str(config), "--out", str(raw)]
    if workload.per_learner_files:
        argv.append("--per-learner-files")
    return Stage(f"synth{rep}", argv)


def pipeline(workload: Workload, raw: Path, work: Path) -> list[Stage]:
    ds, feat, reports = work / "ds", work / "feat", work / "reports"
    split = ["--split", str(work / "sp" / "split.json")]
    data = raw if workload.per_learner_files else raw / "interactions.csv"
    stages = [
        Stage("ingest", ["ingest", str(data), "--questions", str(raw / "questions.csv"),
                         "--out", str(work / "store")], work / "store", done_with=raw),
        Stage("prep", ["prep", str(work / "store"), "--out", str(ds)], ds,
              done_with=work / "store"),
        Stage("split", ["split", str(ds), "--test", str(TEST_FRACTION),
                        "--seed", str(SPLIT_SEED), "--out", str(work / "sp")], work / "sp"),
        Stage("featurize", ["featurize", str(ds), "--family", "best_lr_tw", *split,
                            "--part", "train", "--out", str(feat)], feat),
    ]
    for model in workload.models:
        if model == "lr":
            argv = ["train", str(feat), "--model", "lr"]
        elif model == "baseline":
            argv = ["train", str(ds), "--model", "baseline", *split]
        else:
            argv = ["train", str(ds), "--model", model, *split,
                    "--epochs", str(workload.epochs)]
        stages.append(Stage(f"train_{model}", argv + ["--out", str(work / model)], work / model))
    for model in workload.models:
        stages.append(Stage(f"eval_{model}", ["eval", str(work / model), str(ds), *split,
                                              "--out", str(reports / f"{model}.json")], reports))
    if len(workload.models) > 1:
        stages.append(Stage("leaderboard", [
            "leaderboard", *(str(reports / f"{m}.json") for m in workload.models),
            "--out", str(reports / "leaderboard.tsv")], reports))
    stages.append(Stage("explain", ["explain", str(work / "lr"), str(ds), *split,
                                    *workload.explain_args, "--out", str(work / "ex")],
                        work / "ex"))
    return stages


class Runner:
    """Runs stage processes one at a time and stops them at the deadline."""

    def __init__(self, repo: Path, trace_dir: Path | None, deadline: float):
        self.repo = repo
        self.trace_dir = trace_dir
        self.deadline = deadline
        # A fixed hash seed gives every run of a stage the same dict and
        # set layouts; the program's outputs do not depend on it.
        self.env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONHASHSEED="0")
        self.current: subprocess.Popen | None = None

    def run(self, stage: Stage, log: Path) -> StageRun:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "ktrace.cli", *stage.argv]
        else:
            spans_path = self.trace_dir / f"{stage.name}.{time.monotonic_ns()}.json"
            cmd = [sys.executable, str(BENCH_DIR / "trace_stage.py"),
                   str(spans_path), stage.name, "--", *stage.argv]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return StageRun(stage.name, 0.0, 0.0, -1, 0.0)
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"$ ktrace {' '.join(stage.argv)}\n")
            out.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.repo, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            self.current = proc
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.current = None
        run = StageRun(stage.name, start, end, proc.returncode, usage.ru_maxrss / 1024)
        if self.trace_dir is not None and spans_path.exists():
            run.spans = json.loads(spans_path.read_text())
        return run

    def stop(self) -> None:
        proc = self.current
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


@dataclass
class Round:
    data: checks.Interactions | None  # the raw input, as the checks read it
    setups: list[StageRun]
    stages: list[StageRun]
    checks: list[checks.CheckResult]
    artifact_bytes: dict[str, int]
    aucs: dict[str, float]

    @property
    def attempted(self) -> int:
        return len(self.setups) + len(self.stages) + len(self.checks)

    @property
    def failed(self) -> int:
        return (sum(r.exit_code != 0 for r in self.setups + self.stages)
                + sum(not c.ok for c in self.checks))


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(workload: Workload, seed: int, work: Path, runner: Runner) -> Round:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    log = work / "stages.log"
    config = work / "gen.json"
    config.write_text(json.dumps({**workload.generator, "seed": synth_seed(workload, seed)}))

    setups = [runner.run(setup_stage(workload, config, work / f"raw{i}", i), log)
              for i in range(SETUP_REPS)]
    # Unlinking a file costs milliseconds once it has been written back
    # to disk, so a directory is removed as soon as nothing reads it.  The
    # checks read the raw input now; after them only ingest reads it.
    raw = work / "raw0"
    for i in range(1, SETUP_REPS):
        shutil.rmtree(work / f"raw{i}", ignore_errors=True)
    ok = all(r.exit_code == 0 for r in setups)
    data = checks.read_raw(raw, workload.per_learner_files) if ok else None

    stages = pipeline(workload, raw, work)
    outs = sorted({s.out for s in stages})
    artifact_bytes: dict[str, int] = {}
    runs: list[StageRun] = []
    for stage in stages:
        if not ok:
            # a stage reads what the one before it wrote
            runs.append(StageRun(stage.name, 0.0, 0.0, -1, 0.0))
            continue
        runs.append(runner.run(stage, log))
        ok = runs[-1].exit_code == 0
        if ok and stage.done_with is not None:
            if stage.done_with in outs:
                artifact_bytes[stage.done_with.name] = dir_bytes(stage.done_with)
            shutil.rmtree(stage.done_with)

    if ok:
        results = checks.run_checks(workload, data, work)
    else:
        results = [checks.CheckResult(name, False, "pipeline did not finish")
                   for name in checks.check_names(workload)]
    for p in outs:
        if p.name not in artifact_bytes and p.exists():
            artifact_bytes[p.name] = dir_bytes(p)
    aucs = {m: checks.read_report(work, m)["auc"] for m in workload.models
            if (work / "reports" / f"{m}.json").exists()}
    return Round(data, setups, runs, results, artifact_bytes, aucs)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def stage_seconds(rnd: Round, prefix: str = "") -> float:
    return sum(r.seconds for r in rnd.stages if r.name.startswith(prefix))


def end_to_end(rnd: Round) -> dict[str, tuple[float, str]]:
    data = sum(r.seconds for r in rnd.stages if r.name in ("ingest", "prep", "split"))
    return {
        "setup_s": (statistics.median(r.seconds for r in rnd.setups), "s"),
        "pipeline_s": (stage_seconds(rnd), "s"),
        "data_s": (data, "s"),
        "featurize_s": (stage_seconds(rnd, "featurize"), "s"),
        "train_s": (stage_seconds(rnd, "train_"), "s"),
        "train_lr_s": (stage_seconds(rnd, "train_lr"), "s"),
        "eval_s": (stage_seconds(rnd, "eval_") + stage_seconds(rnd, "leaderboard"), "s"),
        "explain_s": (stage_seconds(rnd, "explain"), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in rnd.stages), "MB"),
        "artifact_mb": (sum(rnd.artifact_bytes.values()) / MB, "MB"),
        "auc_lr": (rnd.aucs["lr"], "AUC"),
    }


def per_layer(rnd: Round, repo: Path) -> dict[str, tuple[float, str]]:
    metrics = {"cli.startup_s": (layers.startup_seconds(repo), "s"),
               "cli.pipeline_s": (stage_seconds(rnd), "s")}
    for run in rnd.stages:
        metrics.update(layers.stage_metrics(run))
    for name, size in rnd.artifact_bytes.items():
        metrics[f"cli.bytes_{name}"] = (float(size), "bytes")
    metrics.update(layers.synth_metrics([r.spans for r in rnd.setups]))
    metrics.update(layers.module_metrics([s for r in rnd.stages for s in r.spans]))
    return metrics


def median_metrics(per_round: list[dict[str, tuple[float, str]]]) -> dict:
    out = {}
    for name, (_, unit) in per_round[0].items():
        values = [m[name][0] for m in per_round if name in m]
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def summary(workload: Workload, rnd: Round) -> str:
    lines = [f"{workload.name}: set-up {', '.join(f'{r.seconds:.2f}' for r in rnd.setups)} s"]
    for r in rnd.stages:
        lines.append(f"  {r.name:<16} {r.seconds:8.2f} s  {r.rss_mb:8.0f} MB  exit {r.exit_code}")
    for c in rnd.checks:
        lines.append(f"  check {c.name:<28} {'ok' if c.ok else 'FAILED'}  {c.detail}")
    lines.append("  AUC " + ", ".join(f"{m} {a:.6f}" for m, a in rnd.aucs.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    repo = Path.cwd()
    if not (repo / "src" / "ktrace" / "cli.py").is_file():
        print("run.py: no ktrace sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = repo / ".perfbench" / workload.name / f"seed{args.seed}"
    trace_dir = out / "spans" if args.trace else None
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    runner = Runner(repo, trace_dir, time.monotonic() + DEADLINE_S)

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    rounds: list[Round] = []
    metrics: list[dict] = []
    t0 = time.monotonic()
    round_s = 0.0
    try:
        # whole rounds only: another starts while --seconds have not passed
        # and a round as long as the last one would end before the deadline
        while not rounds or (time.monotonic() - t0 < args.seconds
                             and time.monotonic() + round_s < runner.deadline):
            start = time.monotonic()
            rnd = run_round(workload, args.seed, out / "work", runner)
            round_s = time.monotonic() - start
            rounds.append(rnd)
            print(summary(workload, rnd), flush=True)
            if any(r.exit_code != 0 for r in rnd.setups + rnd.stages):
                print(f"run.py: a stage failed; see {out / 'work' / 'stages.log'}",
                      file=sys.stderr)
                return 1
            metrics.append(per_layer(rnd, repo) if args.trace else end_to_end(rnd))
            if rnd.failed:
                break  # a check failed: its outputs stay in the work directory
    finally:
        runner.stop()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if not failed:
        shutil.rmtree(out / "work")
    medians = median_metrics(metrics)
    reported = layers.REPORTED if args.trace else tuple(medians)
    missing = [m for m in reported if m not in medians]
    if missing:
        print(f"run.py: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": all(c.ok for r in rounds for c in r.checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: medians[m] for m in reported},
    }
    if trace_dir is not None:
        spans = [s for i, r in enumerate(rounds) for run in r.setups + r.stages
                 for s in layers.stage_spans(run, i)]
        (out / "trace.json").write_text(json.dumps(spans) + "\n")
        shutil.rmtree(trace_dir)
    # a traced run's file also keeps the metrics of the layers only some
    # workloads run
    saved = {**result, "all_metrics": medians} if args.trace else result
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
