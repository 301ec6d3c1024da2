"""What each entry point loads, and the package's lazily filled namespace."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpforest

SRC = Path(dpforest.__file__).resolve().parents[1]
LAYERS = ("budget", "data", "errors", "evaluation", "forest", "mechanism", "synth", "tree")

# runs the command line as ``python -m dpforest.cli ARGS`` does, then
# prints the dpforest modules the process loaded
RUN_CLI = """
import runpy, sys
sys.argv[0] = "dpforest"
try:
    runpy.run_module("dpforest.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert exit.code == 0, exit.code
print(" ".join(sorted(name for name in sys.modules if name.startswith("dpforest"))))
"""
IMPORT_PACKAGE = """
import sys
import dpforest
print(" ".join(sorted(name for name in sys.modules if name.startswith("dpforest"))))
"""


def _loaded(code: str, *argv: str, cwd: Path) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, cwd=cwd, env=env, check=True)
    return set(done.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def synthc(tmp_path_factory):
    root = tmp_path_factory.mktemp("loads")
    loaded = _loaded(RUN_CLI, "gen", "--preset", "SynthC", "--n", "200", "--seed", "1",
                     "--out", "c.csv", "--schema-out", "c.json", cwd=root)
    return root, loaded


def test_import_dpforest_loads_no_layer(tmp_path):
    assert _loaded(IMPORT_PACKAGE, cwd=tmp_path) == {"dpforest"}


def test_gen_loads_no_forest_tree_or_evaluation_layer(synthc):
    root, loaded = synthc
    assert (root / "c.csv").exists()
    assert loaded == {"dpforest", "dpforest.budget", "dpforest.data", "dpforest.errors",
                      "dpforest.mechanism", "dpforest.synth"}


@pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diagnostics"])
def test_train_loads_evaluation_only_for_diagnostics(synthc, diagnostics):
    root, _ = synthc
    extra = ["--diagnostics", "diag.json"] if diagnostics else []
    loaded = _loaded(RUN_CLI, "train", "--data", "c.csv", "--schema", "c.json",
                     "--epsilon", "1", "--trees", "2", "--depth", "3", *extra,
                     "--out", "m.json", cwd=root)
    assert {"dpforest.forest", "dpforest.tree"} <= loaded
    assert ("dpforest.evaluation" in loaded) == diagnostics


def test_every_public_name_is_the_object_its_module_defines():
    assert len(dpforest.__all__) == len(set(dpforest.__all__)) == 51
    for name in dpforest.__all__:
        obj = getattr(dpforest, name)
        owners = [layer for layer in LAYERS
                  if getattr(importlib.import_module(f"dpforest.{layer}"), name, None) is obj]
        assert owners, name
        if hasattr(obj, "__module__"):
            assert obj.__module__ in {f"dpforest.{layer}" for layer in owners}, name


def test_namespace_lists_resolves_and_refuses():
    assert set(dpforest.__all__) | set(LAYERS) <= set(dir(dpforest))
    assert dpforest.tree is importlib.import_module("dpforest.tree")
    namespace: dict = {}
    exec("from dpforest import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(dpforest.__all__)
    assert all(namespace[name] is getattr(dpforest, name) for name in dpforest.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        dpforest.no_such_name
    assert not hasattr(dpforest, "no_such_name")
