#!/usr/bin/env python3
"""Benchmark of the dpforest command line on three workloads.

Run from the repository root, with numpy importable:

    python3 perfbench/run.py --workload synthf-pipeline --seed 1 --seconds 35 --trace 0

A run generates its data with ``dpforest gen`` at least three times (the
set-up), then runs the workload's timed commands as subprocesses, one at a
time, in passes: at least three, and more while another fits within
``--seconds``. Each pass starts with one more ``gen``, so set-up is also
sampled across the whole run. The fixed task in perfbench/reference.py runs
before the first command and after each one. Each command's wall time is
divided by the mean of the reference task's times just before and just
after it and multiplied by NOMINAL_REFERENCE_S: its time on a host that
runs the reference task in that time. The times on the last line are
medians of these scaled times; raw medians are printed on the lines before
it (see "Noise" in perfbench/COVERAGE.md for why). With ``--trace 1`` every
command then runs once more under perfbench/tracer.py, in-process and
wrapped layer by layer, and the per-layer numbers come from that traced
pass.

Every CLI invocation counts as one operation and fails if any check on its
output fails. Lines before the last describe the environment, every metric
with its unit and spread, and any failure; the last line is one JSON
object with the verdict and the metrics that BENCHMARK.json names.
perfbench/COVERAGE.md says which layer each workload stresses.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

REFERENCE = HERE / "reference.py"
REFERENCE_OUTPUT = "10003"
# the reference task's time on the host that end-to-end times are scaled to
NOMINAL_REFERENCE_S = 0.5

EPSILON = "1.0"
REPEATS = 1  # eval --repeats
# set-up repeats: at least SETUP_REPEATS, and more until SETUP_SECONDS have gone by
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
MIN_PASSES = 3
# a run must end within 180 s; commands still running at this point are killed
RUN_DEADLINE_S = 170.0
# criterion 7: a useful model beats the majority-class rate by this much
ACCURACY_MARGIN = 0.15
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One ``gen`` data set and the commands timed on it.

    With ``train_rows`` set, the first ``train_rows`` records train a model
    and the rest are held out for ``predict``; without it the whole file
    goes to ``eval --budget split``.
    """

    preset: str
    rows: int
    trees: int
    train_rows: int | None = None
    depth: int | None = None
    folds: int = 5

    @property
    def timed(self) -> tuple[str, ...]:
        return ("train", "predict") if self.train_rows else ("eval",)


# Sizes are kept small enough that a run holds five or more passes: the
# records each tree routes and the per-tree work, and so each workload's mix
# of layers, are those of the larger forests in perfbench/COVERAGE.md.
WORKLOADS = {
    # CSV parsing and writing plus a 3.8 MB model dominate
    "synthf-pipeline": Workload("SynthF", 30000, 50, train_rows=15000),
    # routing, the leaf mechanism and structure draw dominate; no model file
    "synthf-split-eval": Workload("SynthF", 30000, 25),
    # structure draw, 24,576 leaf queries and a 9 MB model dominate
    "synthc-deep": Workload("SynthC", 2000, 6, train_rows=1000, depth=12),
}
# the same shapes at a size the self-tests can afford
SMOKE = {
    "synthf-pipeline": Workload("SynthF", 6000, 20, train_rows=3000),
    "synthf-split-eval": Workload("SynthF", 2000, 5),
    "synthc-deep": Workload("SynthC", 400, 5, train_rows=200, depth=6),
}


@dataclass
class Op:
    """One CLI invocation and what the checks found wrong with it."""

    command: str
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    problems: list[str] = field(default_factory=list)
    # mean wall time of the reference task run just before and just after
    host_s: float = 0.0

    @property
    def scaled_s(self) -> float:
        """Wall time on a host that runs the reference task in
        NOMINAL_REFERENCE_S."""
        return self.wall_s / self.host_s * NOMINAL_REFERENCE_S


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cli_env() -> dict[str, str]:
    """The caller's environment, with the package on the path and BLAS
    pinned to one thread unless the caller chose otherwise: the commands
    run one thread, and idle BLAS workers would only contend for the
    second core."""
    env = dict(os.environ)
    for name in BLAS_THREAD_VARIABLES:
        env.setdefault(name, "1")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_cli(args: list[str], workdir: Path, deadline: float,
            summary: Path | None = None) -> Op:
    """Run one dpforest command; with ``summary`` run it under the tracer.

    Wall time brackets the whole subprocess; CPU time and peak RSS come
    from its own rusage, so nothing the harness does is counted.
    """
    if summary is None:
        argv = [sys.executable, "-m", "dpforest.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(summary), "--", *args]
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    lock = threading.Lock()
    done = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=cli_env(), stdout=out, stderr=err)

        def kill():
            with lock:
                if not done:
                    proc.kill()

        timer = threading.Timer(max(deadline - time.monotonic(), 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            with lock:
                done = True
                proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    op = Op(args[0], summary is not None, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / 1e6, proc.returncode, out_path.read_text())
    if op.exit_code != 0:
        detail = err_path.read_text().strip().splitlines()[-1:] or ["no output"]
        op.problems.append(f"exit code {op.exit_code}: {detail[0]}")
    return op


def check_spent_epsilon(op: Op) -> None:
    marker = "spent epsilon "
    line = next((s for s in op.stdout.splitlines() if marker in s), None)
    if line is None:
        op.problems.append("train did not report its spent epsilon")
    elif Fraction(line.split(marker, 1)[1].strip()) != Fraction(EPSILON):
        op.problems.append(f"train reported {line!r}, expected epsilon {EPSILON}")


def majority_rate(labels: list[str]) -> float:
    return max(labels.count(label) for label in set(labels)) / len(labels)


def check_predictions(op: Op, path: Path, rows: int, class_labels: list[str],
                      label_column: str) -> float:
    """Check the predict output and return its accuracy."""
    with open(path, newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    header, body = (table[0], table[1:]) if table else ([], [])
    if header[-2:] != [label_column, "prediction"]:
        op.problems.append(f"predictions header ends {header[-2:]}")
        return 0.0
    if len(body) != rows:
        op.problems.append(f"{len(body)} prediction rows for {rows} input rows")
    if any(len(row) != len(header) for row in body):
        op.problems.append("prediction row with the wrong cell count")
        return 0.0
    if not body:
        return 0.0
    unknown = {row[-1] for row in body} - set(class_labels)
    if unknown:
        op.problems.append(f"predicted labels {sorted(unknown)} not in the schema")
    truth = [row[-2] for row in body]
    accuracy = sum(row[-1] == row[-2] for row in body) / len(body)
    check_accuracy(op, accuracy, majority_rate(truth))
    return accuracy


def check_report(op: Op, path: Path, folds: int, baseline: float) -> float:
    """Check the eval report and return its mean accuracy."""
    report = json.loads(path.read_text())
    accuracy = report["metrics"]["accuracy"]
    if len(accuracy["samples"]) != folds * REPEATS:
        op.problems.append(f"{len(accuracy['samples'])} accuracy samples, "
                           f"expected {folds} folds x {REPEATS} repeats")
    check_accuracy(op, accuracy["mean"], baseline)
    return accuracy["mean"]


def check_accuracy(op: Op, accuracy: float, baseline: float) -> None:
    if accuracy < baseline + ACCURACY_MARGIN:
        op.problems.append(f"accuracy {accuracy:.4f} is below the majority rate "
                           f"{baseline:.4f} + {ACCURACY_MARGIN}")


def check_repeats(ops: list[Op], digests: list[str], what: str) -> None:
    """Outputs of one command must be byte-identical in every pass."""
    for op, digest in zip(ops[1:], digests[1:]):
        if digest != digests[0]:
            op.problems.append(f"{what} bytes differ from the first pass "
                               f"({digest[:12]} vs {digests[0][:12]})")


class Run:
    """The files and operations of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.workload, self.seed, self.seconds, self.dir = workload, seed, seconds, workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.ops: list[Op] = []
        self.digests: dict[str, str] = {}
        self.gens: list[Op] = []  # every gen of the set-up and the passes
        self.references: list[float] = []  # wall seconds of each reference task
        self.accuracy = 0.0

    def path(self, name: str) -> Path:
        return self.dir / name

    def cli(self, args: list[str], summary: Path | None = None) -> Op:
        op = run_cli(args, self.dir, self.deadline, summary)
        self.ops.append(op)
        return op

    def reference(self) -> None:
        """Time the reference task once; it is no operation of the program,
        so a failure of it ends the run without a result."""
        start = time.perf_counter()
        found = subprocess.run([sys.executable, str(REFERENCE)], cwd=self.dir,
                               env=cli_env(), capture_output=True, text=True,
                               timeout=max(self.deadline - time.monotonic(), 0.1))
        wall = time.perf_counter() - start
        if found.returncode != 0 or found.stdout.strip() != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference task failed: exit {found.returncode}, "
                               f"output {found.stdout.strip()!r}")
        self.references.append(wall)

    def bracketed(self, args: list[str], summary: Path | None = None) -> Op:
        """Run one command with the reference task just before and just
        after it; consecutive commands share the run between them."""
        if not self.references:
            self.reference()
        op = self.cli(args, summary)
        self.reference()
        op.host_s = statistics.mean(self.references[-2:])
        return op

    def gen_args(self, out: str, schema: str) -> list[str]:
        w = self.workload
        return ["gen", "--preset", w.preset, "--n", str(w.rows), "--seed",
                str(self.seed), "--out", str(self.path(out)),
                "--schema-out", str(self.path(schema))]

    def args(self, command: str, prefix: str = "") -> list[str]:
        """Arguments of a timed command; ``prefix`` renames its outputs."""
        w, p = self.workload, self.path
        common = ["--schema", str(p("schema.json")), "--epsilon", EPSILON,
                  "--trees", str(w.trees), "--seed", str(self.seed)]
        if command == "train":
            depth = ["--depth", str(w.depth)] if w.depth else []
            return ["train", "--data", str(p("train.csv")), *common, *depth,
                    "--out", str(p(prefix + "model.json"))]
        if command == "predict":
            return ["predict", "--model", str(p(prefix + "model.json")),
                    "--data", str(p("heldout.csv")),
                    "--out", str(p(prefix + "predictions.csv"))]
        return ["eval", "--data", str(p("data.csv")), *common, "--budget", "split",
                "--folds", str(w.folds), "--repeats", str(REPEATS),
                "--report", str(p(prefix + "report.json"))]

    def gen(self) -> Op:
        """Generate the data once more; every copy must be identical."""
        op = self.bracketed(self.gen_args("data.csv", "schema.json"))
        self.gens.append(op)
        if op.exit_code == 0:
            first, digest = self.digests.setdefault("data.csv", ""), sha256(self.path("data.csv"))
            if first and digest != first:
                op.problems.append(f"gen output bytes differ from the first gen "
                                   f"({digest[:12]} vs {first[:12]})")
            self.digests["data.csv"] = first or digest
        return op

    def setup(self) -> list[Op]:
        """Generate the data several times and split it for train/predict."""
        start = time.monotonic()
        while len(self.gens) < SETUP_REPEATS or time.monotonic() - start < SETUP_SECONDS:
            if self.gen().exit_code:
                return self.gens
        schema = json.loads(self.path("schema.json").read_text())
        self.class_labels, self.label_column = schema["class_labels"], schema["label_column"]
        with open(self.path("data.csv"), encoding="utf-8") as handle:
            lines = handle.readlines()
        if len(lines) != self.workload.rows + 1:
            self.gens[-1].problems.append(f"gen wrote {len(lines) - 1} rows")
        labels = [line.rsplit(",", 1)[1].strip() for line in lines[1:]]
        self.baseline = majority_rate(labels)
        cut = self.workload.train_rows
        if cut:
            self.path("train.csv").write_text("".join(lines[:cut + 1]))
            self.path("heldout.csv").write_text("".join(lines[:1] + lines[cut + 1:]))
            self.heldout_rows = len(lines) - 1 - cut
        return self.gens

    def check_outputs(self, op: Op, prefix: str = "") -> str:
        """Check one timed command's outputs and return their digest."""
        if op.exit_code != 0:
            return ""
        try:
            if op.command == "train":
                check_spent_epsilon(op)
                output = self.path(prefix + "model.json")
                self.model_mb = output.stat().st_size / 1e6
            elif op.command == "predict":
                output = self.path(prefix + "predictions.csv")
                self.accuracy = check_predictions(op, output, self.heldout_rows,
                                                  self.class_labels, self.label_column)
            else:
                output = self.path(prefix + "report.json")
                self.accuracy = check_report(op, output, self.workload.folds,
                                             self.baseline)
            return sha256(output)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            op.problems.append(f"unreadable {op.command} output: {exc!r}")
            return ""

    def passes(self) -> list[dict[str, Op]]:
        """At least MIN_PASSES timed passes, then more while one still fits
        in ``seconds``, judged by the median pass so far."""
        done: list[dict[str, Op]] = []
        digests: dict[str, list[str]] = {c: [] for c in self.workload.timed}
        start = time.monotonic()
        lengths: list[float] = []
        while len(done) < MIN_PASSES or (
                time.monotonic() - start + statistics.median(lengths) <= self.seconds):
            began = time.monotonic()
            if self.gen().exit_code:
                break
            one = {}
            for command in self.workload.timed:
                op = one[command] = self.bracketed(self.args(command))
                digests[command].append(self.check_outputs(op))
            done.append(one)
            lengths.append(time.monotonic() - began)
            if any(op.exit_code for op in one.values()):
                break
        for command, found in digests.items():
            if found:
                check_repeats([p[command] for p in done], found, f"{command} output")
                self.digests[command] = found[0]
        return done

    def traced_pass(self) -> dict[str, tuple[Op, dict]]:
        """Each command once more under the tracer, outputs compared."""
        traced = {}
        gen = self.bracketed(self.gen_args("traced-data.csv", "traced-schema.json"),
                             self.path("trace-gen.json"))
        traced["gen"] = gen
        if gen.exit_code == 0 and sha256(self.path("traced-data.csv")) != self.digests["data.csv"]:
            gen.problems.append("traced gen wrote other data than gen")
        for command in self.workload.timed:
            op = self.bracketed(self.args(command, "traced-"),
                                self.path(f"trace-{command}.json"))
            traced[command] = op
            digest = self.check_outputs(op, "traced-")
            if op.exit_code == 0 and digest != self.digests[command]:
                op.problems.append(f"traced {command} output differs from the "
                                   "untraced one")
        summaries = {}
        for command, op in traced.items():
            if op.exit_code != 0:
                continue
            summary = json.loads(self.path(f"trace-{command}.json").read_text())
            check_summary(op, summary)
            summaries[command] = (op, summary)
        return summaries


def check_summary(op: Op, summary: dict) -> None:
    """Invariants of a traced command, read from its spans and counts."""
    if Path(summary["package"]) != (SRC / "dpforest").resolve():
        op.problems.append(f"traced run imported dpforest from {summary['package']}")
    counts, spans = summary["counts"], summary["spans"]
    queries = spans["mechanism.majority_label_query"]["calls"]
    if queries != counts["tree.leaves_built"]:
        op.problems.append(f"{queries} leaf queries for "
                           f"{counts['tree.leaves_built']} leaves built")
    if queries != counts["mechanism.diagnostics"]:
        op.problems.append(f"{counts['mechanism.diagnostics']} leaf diagnostics "
                           f"for {queries} leaf queries")
    for ledger in summary["ledgers"]:
        if not Fraction(ledger["composed"]) == Fraction(ledger["total"]) == Fraction(EPSILON):
            op.problems.append(f"ledger composed {ledger['composed']} of "
                               f"{ledger['total']}, expected {EPSILON}")


def spread(values: list[float]) -> str:
    return f"of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def end_to_end(run: Run, passes: list[dict[str, Op]]) -> dict:
    """End-to-end metrics: name -> (value, unit, note).

    A time is the median of its command's scaled times; cli_s sums that
    median over the timed commands. Raw medians are printed beside them.
    """
    median = statistics.median
    ops = {c: [p[c] for p in passes] for c in run.workload.timed}
    peaks = [max(op.rss_mb for op in p.values()) for p in passes]

    def timing(found: list[Op]) -> tuple[float, str]:
        walls = [op.wall_s for op in found]
        return (median(op.scaled_s for op in found),
                f"scaled median, raw median {median(walls):.4f} " + spread(walls))

    setup, setup_note = timing(run.gens)
    raw_cli = sum(median(op.wall_s for op in found) for found in ops.values())
    metrics = {
        "setup_s": (setup, "s", "dpforest gen: " + setup_note),
        "cli_s": (sum(timing(found)[0] for found in ops.values()), "s",
                  "+".join(f"scaled median {c}" for c in ops) + f", raw {raw_cli:.4f}"),
        "peak_rss_mb": (median(peaks), "MB", "median " + spread(peaks)),
        "reference_s": (median(run.references), "s",
                        "median reference task " + spread(run.references)),
        "accuracy": (run.accuracy, "fraction", f"majority rate {run.baseline:.4f}"),
    }
    for command, found in ops.items():
        value, note = timing(found)
        metrics[f"{command}_s"] = (value, "s", note)
        rss = [op.rss_mb for op in found]
        metrics[f"{command}_rss_mb"] = (median(rss), "MB", "median " + spread(rss))
    if "train" in ops:
        metrics["model_mb"] = (run.model_mb, "MB", "model file written by train")
    return metrics


def per_layer(run: Run, passes: list[dict[str, Op]],
              summaries: dict[str, tuple[Op, dict]]) -> dict:
    """Per-layer metrics from the traced pass: name -> (value, unit, note).

    Times are summed over the workload's commands. A name ending in _s is
    the span's self time, except where the note says inclusive.
    """
    median = statistics.median
    spans = [s["spans"] for _, s in summaries.values()]
    counts = [s["counts"] for _, s in summaries.values()]

    def span(name: str, key: str = "self_s") -> float:
        return sum(s[name][key] for s in spans if name in s)

    def count(name: str) -> int:
        return sum(c[name] for c in counts)

    timed = [c for c in run.workload.timed if c in summaries]
    untraced = {"gen": run.gens, **{c: [p[c] for p in passes] for c in timed}}
    metrics = {
        "cli.import_s": (median(s["import_s"] for _, s in summaries.values()), "s",
                         "import dpforest.cli in a fresh interpreter, median"),
        "cli.cmd_self_s": (sum(summaries[c][1]["spans"]["cli.main"]["self_s"]
                               for c in timed), "s", "+".join(timed)),
        "cli.cmd_cpu_s": (sum(median(op.cpu_s for op in untraced[c]) for c in timed),
                          "s", "untraced user+sys, " + "+".join(timed)),
    }
    for command, (op, summary) in summaries.items():
        plain = median(o.scaled_s for o in untraced[command])
        metrics[f"cli.{command}_self_s"] = (summary["spans"]["cli.main"]["self_s"], "s", "")
        metrics[f"cli.{command}_cpu_s"] = (median(o.cpu_s for o in untraced[command]),
                                           "s", "untraced user+sys")
        metrics[f"cli.{command}_trace_overhead_s"] = (
            op.scaled_s - plain, "s",
            f"scaled: traced {op.scaled_s:.4f} - untraced median {plain:.4f}")
    queries = span("mechanism.majority_label_query", "calls")
    occupied = count("mechanism.occupied_leaves")
    layers = {
        "synth.generate_s": (span("synth.generate", "total_s"), "s", "inclusive"),
        "data.save_dataset_s": (span("data.save_dataset"), "s", ""),
        "data.load_dataset_s": (span("data.load_dataset"), "s", ""),
        "data.partition_s": (span("data.partition_disjoint"), "s", "partition_disjoint"),
        "tree.build_tree_s": (span("tree.build_tree"), "s", ""),
        "tree.nodes_built": (count("tree.nodes_built"), "count", ""),
        "tree.leaves_built": (count("tree.leaves_built"), "count", ""),
        "tree.leaf_assignments_s": (span("tree.leaf_assignments"), "s", ""),
        "tree.leaf_assignments_calls": (span("tree.leaf_assignments", "calls"), "count", ""),
        "tree.node_to_dict_s": (span("tree.node_to_dict"), "s", ""),
        "tree.node_from_dict_s": (span("tree.node_from_dict"), "s", ""),
        "mechanism.majority_label_query_s": (span("mechanism.majority_label_query"), "s", ""),
        "mechanism.queries": (queries, "count", ""),
        "mechanism.empty_leaf_fraction": (
            count("mechanism.empty_leaves") / queries if queries else 0.0, "fraction", ""),
        "mechanism.flip_fraction": (
            count("mechanism.flips") / occupied if occupied else 0.0, "fraction",
            "over occupied leaves"),
        "forest.build_forest_s": (span("forest.build_forest", "total_s"), "s", "inclusive"),
        "forest.fill_leaf_labels_s": (span("forest.fill_leaf_labels"), "s", ""),
        "forest.vote_matrix_s": (span("forest.vote_matrix"), "s", ""),
        "forest.vote_matrix_calls": (span("forest.vote_matrix", "calls"), "count", ""),
        "forest.save_model_s": (span("forest.save_model"), "s", ""),
        "forest.load_model_s": (span("forest.load_model"), "s", ""),
        "evaluation.cross_validate_s": (span("evaluation.cross_validate", "total_s"),
                                        "s", "inclusive"),
        "evaluation.scoring_s": (span("evaluation.auc") + span("evaluation.f1"), "s",
                                 "auc + f1"),
        "budget.ledger_entries": (span("budget.record", "calls"), "count", ""),
    }
    # layers that some workloads never call get no number there, not a zero
    only_where_called = {
        "data.partition_s": "data.partition_disjoint",
        "tree.node_to_dict_s": "tree.node_to_dict",
        "tree.node_from_dict_s": "tree.node_from_dict",
        "forest.save_model_s": "forest.save_model",
        "forest.load_model_s": "forest.load_model",
        "evaluation.cross_validate_s": "evaluation.cross_validate",
        "evaluation.scoring_s": "evaluation.auc",
    }
    for name, value in layers.items():
        if name not in only_where_called or span(only_where_called[name], "calls"):
            metrics[name] = value
    return metrics


def environment(seed: int, load_before: tuple[float, ...]) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = found.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "commit": commit,
        "seed": seed,
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "command_thread_variables": {k: v for k, v in cli_env().items()
                                     if k in THREAD_VARIABLES},
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload and return the result object printed last."""
    spec = benchmark_spec()
    load_before = os.getloadavg()
    workload = (SMOKE if smoke else WORKLOADS)[name]
    workdir = WORK / f"{name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(workload, seed, seconds, workdir)
        failed_setup = any(op.exit_code for op in run.setup())
        passes = [] if failed_setup else run.passes()
        metrics = end_to_end(run, passes) if passes else {}
        wanted = spec["end_to_end"]
        if trace and passes and not any(op.problems for op in run.ops):
            metrics.update(per_layer(run, passes, run.traced_pass()))
        if trace:
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(seed, load_before)))
    print(f"workload {name} seed {seed} passes {len(passes)} trace {int(trace)}")
    for key, (value, unit, note) in metrics.items():
        print(f"metric {key} {value!r} {unit}" + (f"  ({note})" if note else ""))
    failed = [op for op in run.ops if op.problems]
    for op in failed:
        kind = "traced " if op.traced else ""
        print(f"FAILED {kind}{op.command}: " + "; ".join(op.problems))
    # after a failure some metrics may be missing; otherwise all must exist
    return {
        "correct": not failed,
        "attempted": len(run.ops),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted if not failed or m["name"] in metrics
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "dpforest" / "cli.py").is_file():
        print(f"run.py: no dpforest sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
