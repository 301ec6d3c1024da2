"""Pinned sha256 of small CLI outputs for fixed seeds.

A seed must keep producing the same bytes. A change that alters any of
these files on purpose updates the hash here and says why in CHANGES.md.
Manifests are left out because they record wall time.
"""

import hashlib

import pytest

from dpforest.cli import main

TRAIN = ["--epsilon", "1.0", "--trees", "5", "--seed", "7"]

# A hand-written set with a discrete feature and three classes, so that
# routing takes discrete branches and leaves count three labels.
MIXED_SCHEMA = """{
  "features": [
    {"name": "x", "kind": "continuous", "lower": 0.0, "upper": 10.0},
    {"name": "y", "kind": "continuous", "lower": -1.0, "upper": 1.0},
    {"name": "colour", "kind": "discrete", "values": ["red", "green", "blue"]}
  ],
  "label_column": "label",
  "class_labels": ["A", "B", "C"]
}
"""
MIXED_ROWS = """\
4.52,0.12,green,C
8.55,-0.62,blue,C
6.14,-0.63,green,C
0.91,0.62,blue,B
5.95,-0.21,green,C
6.16,-0.69,red,C
0.63,-0.93,red,A
7.78,-0.35,blue,C
5.19,0.28,green,A
4.57,-0.44,blue,C
8.4,0.42,green,B
5.13,-0.94,blue,C
4.0,0.69,green,A
8.47,-1.0,red,C
0.52,-0.25,blue,A
0.73,0.26,blue,B
0.87,-0.33,green,A
1.18,-0.51,red,B
7.97,-0.64,blue,C
5.09,0.97,red,A
3.84,-0.21,red,C
3.04,0.77,red,A
9.96,0.2,blue,A
2.13,-0.48,blue,A
2.96,-0.85,red,A
6.37,-0.97,green,C
4.53,0.92,green,B
1.36,-0.23,blue,A
9.08,0.64,red,B
1.58,0.26,blue,B
9.5,0.76,blue,A
1.04,-0.92,green,A
7.05,-0.49,blue,C
5.2,0.86,red,B
5.59,0.7,blue,A
9.17,-0.59,red,B
4.46,-0.88,red,A
5.31,0.95,red,A
8.91,0.96,blue,B
5.22,0.89,blue,A
4.75,-0.29,green,C
0.21,0.27,green,B
3.19,1.0,red,A
3.68,-0.91,blue,A
1.3,0.93,green,B
"""
MIXED = ["--data", "{dir}/mixed-data", "--schema", "{dir}/mixed-schema"]

# output name -> (argv that writes it, None when the command before does;
# sha256). {dir} is the output directory; train and eval read gen's files
# unless they name their own --data.
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
    "mixed-model-disjoint": (
        ["train", *MIXED, "--epsilon", "1.0", "--trees", "3", "--seed", "5",
         "--sensitivity", "smooth", "--budget", "disjoint",
         "--diagnostics", "{dir}/mixed-diagnostics",
         "--out", "{dir}/mixed-model-disjoint"],
        "9d8e668da57ef5d5db853183e96893354fd477d8a1dda76cd17591a222a35bae",
    ),
    "mixed-diagnostics": (
        None,
        "e8821a66f1bbb001a7d0576b5a181056c3ed9d30834e355038faea8bbde29943",
    ),
    "mixed-model-split": (
        ["train", *MIXED, "--epsilon", "2.0", "--trees", "4", "--seed", "6",
         "--sensitivity", "global", "--budget", "split",
         "--out", "{dir}/mixed-model-split"],
        "13f0d84778b1ec72e36868bd68d7970d7f6fd345c049ed3cbab3cb66782f2eb3",
    ),
    "mixed-predictions": (
        ["predict", "--model", "{dir}/mixed-model-disjoint",
         "--data", "{dir}/mixed-data", "--out", "{dir}/mixed-predictions"],
        "932d58c83c38b7b70745d695ced22d77bf1d3d54955db51ace5a0ecfef675341",
    ),
    "mixed-eval-report": (
        ["eval", *MIXED, "--epsilon", "1.0", "--trees", "3", "--depth", "3",
         "--seed", "4", "--sensitivity", "smooth", "--budget", "disjoint",
         "--folds", "3", "--repeats", "2", "--report", "{dir}/mixed-eval-report"],
        "58453849090920953b1bf7b1074262b85b60ae109f6da648dd64e83634abcec2",
    ),
    # deep enough that most leaves are empty and continuous domains are
    # split many times along one path
    "deep-model": (
        ["train", "--epsilon", "1.0", "--trees", "3", "--depth", "11", "--seed", "8",
         "--sensitivity", "smooth", "--budget", "split", "--out", "{dir}/deep-model"],
        "5e20101e3d612a469bde5a1245b5f498ca494b4585c98d4aa86cc6017fd4106f",
    ),
    "deep-predictions": (
        ["predict", "--model", "{dir}/deep-model", "--data", "{dir}/gen-data",
         "--out", "{dir}/deep-predictions"],
        "a4227a753e3bb0c15ae8f8ec9b849aff234221d14c2dea498b96aef0d9c61c0d",
    ),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once, in order, and hash what each one wrote."""
    root = tmp_path_factory.mktemp("golden")
    (root / "mixed-schema").write_text(MIXED_SCHEMA)
    (root / "mixed-data").write_text("x,y,colour,label\n" + MIXED_ROWS)
    data = ["--data", f"{root}/gen-data", "--schema", f"{root}/gen-schema"]
    for argv, _ in CASES.values():
        if argv is None:
            continue
        argv = [arg.format(dir=root) for arg in argv]
        if argv[0] in ("train", "eval") and "--data" not in argv:
            argv = [argv[0], *data, *argv[1:]]
        assert main(argv) == 0, argv
    return {
        name: hashlib.sha256((root / name).read_bytes()).hexdigest()
        for name in CASES
    }


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_are_pinned(outputs, name):
    assert outputs[name] == CASES[name][1]
