"""Pinned sha256 of small CLI outputs for fixed seeds.

A seed must keep producing the same bytes. A change that alters any of
these files on purpose updates the hash here and says why in CHANGES.md.
Manifests are left out because they record wall time.
"""

import hashlib

import pytest

from dpforest.cli import main

TRAIN = ["--epsilon", "1.0", "--trees", "5", "--seed", "7"]

# output name -> (argv that writes it, None when the command before does;
# sha256). {dir} is the output directory; train and eval read gen's files.
CASES = {
    "gen-data": (
        ["gen", "--preset", "SynthF", "--n", "300", "--seed", "3",
         "--out", "{dir}/gen-data", "--schema-out", "{dir}/gen-schema"],
        "813b8d7a38bc1509389ca5d5fc3d2644b4f79c61b6ec37b99234c3c2a6949564",
    ),
    "gen-schema": (
        None,
        "0d7184f54b792136434380abbabed1662a838049ffc9b5b01266881a8a6ec592",
    ),
    "model-smooth-disjoint": (
        ["train", *TRAIN, "--sensitivity", "smooth", "--budget", "disjoint",
         "--diagnostics", "{dir}/diagnostics", "--out", "{dir}/model-smooth-disjoint"],
        "38bb84a0e77d840b9e700d065d9af490644b52bd1e29e6f9934422223dcacea6",
    ),
    "diagnostics": (
        None,
        "13af5aedaa8baadafd646c6516c66da5f75f74096f99ba93783f205383ec6a51",
    ),
    "model-smooth-split": (
        ["train", *TRAIN, "--sensitivity", "smooth", "--budget", "split",
         "--out", "{dir}/model-smooth-split"],
        "da6c8a5fc4b04a699f11c3297b86c4dd2c543c7f2588cd437a0bd0e120263c68",
    ),
    "model-global-disjoint": (
        ["train", *TRAIN, "--sensitivity", "global", "--budget", "disjoint",
         "--out", "{dir}/model-global-disjoint"],
        "d1a734f1b7e08c280e089b5048faa000d236aa540726a0f837753c86bbbe12cf",
    ),
    "model-global-split": (
        ["train", *TRAIN, "--sensitivity", "global", "--budget", "split",
         "--out", "{dir}/model-global-split"],
        "dafd015fc52c2304c881cefdce2e207cea363c9d4e485bf6b77539f8bd1262fd",
    ),
    "predictions": (
        ["predict", "--model", "{dir}/model-smooth-disjoint", "--data", "{dir}/gen-data",
         "--out", "{dir}/predictions"],
        "75659305e62cdd2c51a9a3acf08eb5aa53b3cd94d4b1f71a0380d479814ae9d4",
    ),
    "eval-report": (
        ["eval", "--epsilon", "1.0", "--trees", "4", "--depth", "4", "--seed", "2",
         "--budget", "split", "--folds", "3", "--repeats", "2",
         "--report", "{dir}/eval-report"],
        "f078b5ad8568d4225fc510b8ae088e772dfd1d3253ff073946f389c5696561fa",
    ),
    "audit-report": (
        ["audit", "--counts", "A:3,B:2,C:0", "--epsilon", "0.5",
         "--report", "{dir}/audit-report"],
        "01bf4a4f6bcf6421171b1a427fa1f2eef074ab167a894c127b5fb97c5e9908dd",
    ),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once, in order, and hash what each one wrote."""
    root = tmp_path_factory.mktemp("golden")
    data = ["--data", f"{root}/gen-data", "--schema", f"{root}/gen-schema"]
    for argv, _ in CASES.values():
        if argv is None:
            continue
        argv = [arg.format(dir=root) for arg in argv]
        if argv[0] in ("train", "eval"):
            argv = [argv[0], *data, *argv[1:]]
        assert main(argv) == 0, argv
    return {
        name: hashlib.sha256((root / name).read_bytes()).hexdigest()
        for name in CASES
    }


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_are_pinned(outputs, name):
    assert outputs[name] == CASES[name][1]
