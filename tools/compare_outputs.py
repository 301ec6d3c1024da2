"""Check that two source trees write the same bytes from the same commands.

Usage: python tools/compare_outputs.py PARENT_TREE CHANGE_TREE

In each tree, with that tree's ``src`` first on PYTHONPATH, one Python
process runs a fixed matrix of ``dpforest`` commands at small sizes and
fixed seeds:

- ``gen`` for SynthA, SynthC, SynthF and SynthG;
- ``depth`` on each generated schema, one ``train`` per set without
  ``--diagnostics``, and ``train``, ``predict`` and ``eval`` in all four
  sensitivity x budget pairs;
- ``audit`` in both sensitivity modes, with and without ``--report``, and
  on refused counts (one label, a negative count, a non-integer count, a
  total over the audit's limit);
- ``train`` and ``predict`` on a fixed set of refused inputs that the
  script writes into each run's directory first: 2,500-row CSVs with one
  fault each or several around the 1,000-row block edge, a bad schema and
  a bad model.

Every file a run writes is hashed with sha256. A manifest is hashed with
its ``duration_seconds`` removed, since that records wall time. The
script prints both hashes of every output and exits 1 when any output
differs, is missing on one side, or a command's exit code, stdout or
stderr differs. Paths are relative to the run's directory, so stderr matches
across trees.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("SynthA", "SynthC", "SynthF", "SynthG")
PAIRS = [(s, b) for s in ("smooth", "global") for b in ("disjoint", "split")]
FOREST = ["--epsilon", "1.0", "--trees", "10", "--depth", "6", "--seed", "5"]

# refused inputs: a schema with continuous and discrete features, and CSVs
# whose rows, in schema order (a, d, b, label), differ from GOOD_ROW where
# a file names them; each has 2,500 rows, so faults fall in three blocks.
# "good" has none: it trains the model that predict scores the others with
REFUSED_SCHEMA = {
    "features": [
        {"name": "a", "kind": "continuous", "lower": 0.0, "upper": 1.0},
        {"name": "d", "kind": "discrete", "values": ["p", "q"]},
        {"name": "b", "kind": "continuous", "lower": 0.0, "upper": 1.0},
    ],
    "label_column": "label",
    "class_labels": ["no", "yes"],
}
GOOD_ROW = ["0.5", "p", "0.5", "no"]
REFUSED_CSVS = {
    "good": {},
    "ragged": {1250: ["0.5", "p"]},
    "unparseable": {700: ["0.5", "p", "zero", "no"]},
    "non-finite": {1800: ["nan", "p", "0.5", "no"]},
    "out-of-bounds": {1001: ["0.5", "p", "-1.5", "no"]},
    "undeclared": {1500: ["0.5", "r", "0.5", "no"]},
    "unknown-label": {999: ["0.5", "p", "0.5", "maybe"]},
    "values-across-edge": {999: ["0.5", "p", "0.5", "maybe"], 1001: ["9.0", "p", "0.5", "no"]},
    "value-then-ragged": {1000: ["9.0", "p", "0.5", "no"], 1001: ["0.5"]},
    "value-then-unparseable": {998: ["0.5", "r", "0.5", "no"],
                               2003: ["0.5", "p", "--", "yes"]},
    "unparseable-and-ragged": {1700: ["x", "p", "0.5", "no"], 1701: ["0.5"]},
}
# counts that audit refuses, each with exit 1 and one stderr line
REFUSED_AUDIT_COUNTS = {
    "one-label": "A:3",
    "negative": "A:-1,B:2",
    "non-integer": "A:1.5,B:2",
    "over-limit": "A:600,B:401",
}
BAD_FILES = {
    "refused-bad.schema.json": dict(REFUSED_SCHEMA, features=[
        {"name": "d", "kind": "discrete", "values": ["p"]}]),
    "refused-bad.model.json": {
        "format_version": 1, "schema": REFUSED_SCHEMA,
        "config": {"epsilon": 1.0, "tau": 1, "depth": 1, "sensitivity_mode": "smooth",
                   "budget_mode": "disjoint", "seed": 5},
        "trees": [{"kind": "split_disc", "feature": "d", "children": {
            "p": {"kind": "leaf", "label": "no"}, "q": {"kind": "leaf", "label": "maybe"}}}],
    },
}

# Runs inside each tree: reads the argv list from stdin, runs every command
# in order and prints where the package came from and each command's exit
# code, stdout and stderr.
RUNNER = """
import contextlib, io, json, sys
import dpforest
from dpforest.cli import main
outcomes = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        outcomes.append((main(argv), out.getvalue(), err.getvalue()))
print(json.dumps({"package": dpforest.__file__, "outcomes": outcomes}))
"""


def write_refused_inputs(workdir: Path) -> None:
    """Write the refused inputs, the same bytes for every tree."""
    (workdir / "refused.schema.json").write_text(json.dumps(REFUSED_SCHEMA))
    for name, document in BAD_FILES.items():
        (workdir / name).write_text(json.dumps(document))
    for name, faults in REFUSED_CSVS.items():
        lines = ["a,d,b,label"] + [",".join(faults.get(row, GOOD_ROW))
                                   for row in range(1, 2501)]
        (workdir / f"refused-{name}.csv").write_text("\r\n".join(lines) + "\r\n")


def commands() -> list[list[str]]:
    """The fixed matrix, with paths relative to the run's directory."""
    argvs = []
    for preset in PRESETS:
        data = ["--data", f"{preset}.csv", "--schema", f"{preset}.schema.json"]
        argvs.append(["gen", "--preset", preset, "--n", "1200", "--seed", "11",
                      "--out", f"{preset}.csv", "--schema-out", f"{preset}.schema.json"])
        argvs.append(["depth", "--schema", f"{preset}.schema.json"])
        argvs.append(["train", *data, *FOREST, "--out", f"{preset}-plain.model.json"])
        for sensitivity, budget in PAIRS:
            name = f"{preset}-{sensitivity}-{budget}"
            modes = ["--sensitivity", sensitivity, "--budget", budget]
            argvs.append(["train", *data, *FOREST, *modes,
                          "--diagnostics", f"{name}.diagnostics.json",
                          "--out", f"{name}.model.json"])
            argvs.append(["predict", "--model", f"{name}.model.json",
                          "--data", f"{preset}.csv", "--out", f"{name}.predictions.csv"])
            argvs.append(["eval", *data, *FOREST, *modes, "--folds", "4",
                          "--repeats", "2", "--report", f"{name}.eval.json"])
    for sensitivity in ("smooth", "global"):
        argvs.append(["audit", "--counts", "A:3,B:2,C:0", "--epsilon", "0.5",
                      "--sensitivity", sensitivity, "--report", f"audit-{sensitivity}.json"])
        argvs.append(["audit", "--counts", "A:3,B:2,C:0", "--epsilon", "0.5",
                      "--sensitivity", sensitivity])
    for name, counts in REFUSED_AUDIT_COUNTS.items():
        argvs.append(["audit", "--counts", counts, "--epsilon", "1.0",
                      "--report", f"refused-audit-{name}.json"])
    for name in REFUSED_CSVS:
        argvs.append(["train", "--data", f"refused-{name}.csv", "--schema",
                      "refused.schema.json", *FOREST, "--out", f"refused-{name}.model.json"])
        argvs.append(["predict", "--model", "refused-good.model.json", "--data",
                      f"refused-{name}.csv", "--out", f"refused-{name}.predictions.csv"])
    argvs.append(["train", "--data", "refused-good.csv", "--schema",
                  "refused-bad.schema.json", *FOREST, "--out", "refused-schema.model.json"])
    argvs.append(["predict", "--model", "refused-bad.model.json", "--data",
                  "refused-good.csv", "--out", "refused-model.predictions.csv"])
    return argvs


def run_tree(tree: Path, workdir: Path,
             argvs: list[list[str]]) -> list[tuple[int, str, str]]:
    """Run the matrix with ``tree``'s package in ``workdir``; return each
    command's exit code, stdout and stderr."""
    src = (tree / "src").resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=workdir, env=env, check=False)
    if done.returncode != 0:
        sys.exit(f"{tree}: the command runner failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to(src):
        sys.exit(f"{tree}: imported dpforest from {result['package']}, not from {src}")
    return [tuple(outcome) for outcome in result["outcomes"]]


def digest(path: Path) -> str:
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(path.read_text())
        manifest.pop("duration_seconds", None)
        return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    trees = [Path(arg) for arg in argv]
    for tree in trees:
        if not (tree / "src" / "dpforest").is_dir():
            print(f"{tree} has no src/dpforest", file=sys.stderr)
            return 2
    argvs = commands()
    with tempfile.TemporaryDirectory() as scratch:
        digests, outcomes = [], []
        for side, tree in zip(("parent", "change"), trees):
            workdir = Path(scratch) / side
            workdir.mkdir()
            write_refused_inputs(workdir)
            outcomes.append(run_tree(tree, workdir, argvs))
            digests.append({p.name: digest(p) for p in workdir.iterdir()})
    differences = 0
    for argv, *pair in zip(argvs, *outcomes):
        for stream, before, after in zip(("exit", "stdout", "stderr"), *pair):
            if before != after:
                differences += 1
                print(f"{stream} {before!r} -> {after!r}: {' '.join(argv)}")
    parent, change = digests
    for name in sorted(parent.keys() | change.keys()):
        before, after = parent.get(name, "missing"), change.get(name, "missing")
        same = before == after
        differences += not same
        print(f"{'same' if same else 'DIFF'}  {name}  {before}  {after}")
    failed = sum(code != 0 for code, _, _ in outcomes[0])
    print(f"{len(argvs)} commands ({failed} exited non-zero at the parent), "
          f"{len(parent.keys() | change.keys())} outputs, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
