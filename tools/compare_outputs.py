"""Check that two source trees write the same bytes from the same commands.

Usage: python tools/compare_outputs.py PARENT_TREE CHANGE_TREE

In each tree, with that tree's ``src`` first on PYTHONPATH, one Python
process runs a fixed matrix of ``dpforest`` commands at small sizes and
fixed seeds:

- ``gen`` for SynthA, SynthC, SynthF and SynthG;
- on each generated set, ``train``, ``predict`` and ``eval`` in all four
  sensitivity x budget pairs;
- ``audit`` in both sensitivity modes.

Every file a run writes is hashed with sha256. A manifest is hashed with
its ``duration_seconds`` removed, since that records wall time. The
script prints both hashes of every output and exits 1 when any output
differs, is missing on one side, or a command's exit code differs.
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

# Runs inside each tree: reads the argv list from stdin, runs every command
# in order and prints where the package came from and each exit code.
RUNNER = """
import contextlib, io, json, sys
import dpforest
from dpforest.cli import main
codes = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"package": dpforest.__file__, "codes": codes}))
"""


def commands() -> list[list[str]]:
    """The fixed matrix, with paths relative to the run's directory."""
    argvs = []
    for preset in PRESETS:
        data = ["--data", f"{preset}.csv", "--schema", f"{preset}.schema.json"]
        argvs.append(["gen", "--preset", preset, "--n", "1200", "--seed", "11",
                      "--out", f"{preset}.csv", "--schema-out", f"{preset}.schema.json"])
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
    return argvs


def run_tree(tree: Path, workdir: Path, argvs: list[list[str]]) -> list[int]:
    """Run the matrix with ``tree``'s package in ``workdir``; return exit codes."""
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
    return result["codes"]


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
        digests, codes = [], []
        for side, tree in zip(("parent", "change"), trees):
            workdir = Path(scratch) / side
            workdir.mkdir()
            codes.append(run_tree(tree, workdir, argvs))
            digests.append({p.name: digest(p) for p in workdir.iterdir()})
    differences = 0
    for argv, parent_code, change_code in zip(argvs, *codes):
        if parent_code != change_code:
            differences += 1
            print(f"exit {parent_code} -> {change_code}: {' '.join(argv)}")
    parent, change = digests
    for name in sorted(parent.keys() | change.keys()):
        before, after = parent.get(name, "missing"), change.get(name, "missing")
        same = before == after
        differences += not same
        print(f"{'same' if same else 'DIFF'}  {name}  {before}  {after}")
    failed = sum(code != 0 for code in codes[0])
    print(f"{len(argvs)} commands ({failed} exited non-zero at the parent), "
          f"{len(parent.keys() | change.keys())} outputs, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
