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
        "04119000220d774ee6329610fe5f911d53f46d4680a20bf94d0ef0fa769cbf27",
    ),
    "diagnostics": (
        None,
        "efbd1ec214207a8a4c7a3596b559d97d475e7cafd05374c045441914d334e205",
    ),
    "model-smooth-split": (
        ["train", *TRAIN, "--sensitivity", "smooth", "--budget", "split",
         "--out", "{dir}/model-smooth-split"],
        "7274b204b41156b19f4ba0addc67fea0644ceecc4d3c20f8ddc2873f34bc2223",
    ),
    "model-global-disjoint": (
        ["train", *TRAIN, "--sensitivity", "global", "--budget", "disjoint",
         "--out", "{dir}/model-global-disjoint"],
        "5145c663207bbf70b9798c0ba9c6c46bca8cb1294e76a011f6d26b90417397b1",
    ),
    "model-global-split": (
        ["train", *TRAIN, "--sensitivity", "global", "--budget", "split",
         "--out", "{dir}/model-global-split"],
        "9d4597cca9f56fa7103d42a01fa4fa668cda322e38150af16511c30d10fef3ba",
    ),
    "predictions": (
        ["predict", "--model", "{dir}/model-smooth-disjoint", "--data", "{dir}/gen-data",
         "--out", "{dir}/predictions"],
        "db5e977d2a2aaee3ea6b340bf8a2d840ebfb9f11bebaf4e1a91d657965fda867",
    ),
    "eval-report": (
        ["eval", "--epsilon", "1.0", "--trees", "4", "--depth", "4", "--seed", "2",
         "--sensitivity", "smooth", "--budget", "split", "--folds", "3", "--repeats", "2",
         "--report", "{dir}/eval-report"],
        "be9fbf0993ac57a45a5345292e800e1dcb81ae6d29e43acbc7babb3870e52b08",
    ),
    "audit-report": (
        ["audit", "--counts", "A:3,B:2,C:0", "--epsilon", "0.5",
         "--sensitivity", "smooth", "--report", "{dir}/audit-report"],
        "01bf4a4f6bcf6421171b1a427fa1f2eef074ab167a894c127b5fb97c5e9908dd",
    ),
    "mixed-model-disjoint": (
        ["train", *MIXED, "--epsilon", "1.0", "--trees", "3", "--seed", "5",
         "--sensitivity", "smooth", "--budget", "disjoint",
         "--diagnostics", "{dir}/mixed-diagnostics",
         "--out", "{dir}/mixed-model-disjoint"],
        "d88bf449e3ca24f0ac0e58100095143934c4f074d00b07c2a7c2ee2a961621a9",
    ),
    "mixed-diagnostics": (
        None,
        "26f381d1f159682541ec57bf1646d2ac09755369daf4fe7ecc9c1799e0cfad4b",
    ),
    "mixed-model-split": (
        ["train", *MIXED, "--epsilon", "2.0", "--trees", "4", "--seed", "6",
         "--sensitivity", "global", "--budget", "split",
         "--out", "{dir}/mixed-model-split"],
        "04b78d44ffad66d11bfa2bd83197ff1c3484c190f76c3b109d3153ca713d62d1",
    ),
    "mixed-predictions": (
        ["predict", "--model", "{dir}/mixed-model-disjoint",
         "--data", "{dir}/mixed-data", "--out", "{dir}/mixed-predictions"],
        "f7bb0af6f1fe60b7bff4373ef05d748dd8ddf5840bdfa3d7feb665218b4e794a",
    ),
    "mixed-eval-report": (
        ["eval", *MIXED, "--epsilon", "1.0", "--trees", "3", "--depth", "3",
         "--seed", "4", "--sensitivity", "smooth", "--budget", "disjoint",
         "--folds", "3", "--repeats", "2", "--report", "{dir}/mixed-eval-report"],
        "5707a8a94cb1e304ff662521363c02d20afb88756da99c78cebfba977cdbac26",
    ),
    # deep enough that most leaves are empty and continuous domains are
    # split many times along one path
    "deep-model": (
        ["train", "--epsilon", "1.0", "--trees", "3", "--depth", "11", "--seed", "8",
         "--sensitivity", "smooth", "--budget", "split", "--out", "{dir}/deep-model"],
        "cd5821b18f96c22f27286a8aa94d8bd170f0890c39c6784ad28b53f3591441bf",
    ),
    "deep-predictions": (
        ["predict", "--model", "{dir}/deep-model", "--data", "{dir}/gen-data",
         "--out", "{dir}/deep-predictions"],
        "993452246211d2c03802b352ec763fee35a78f25b37c5de461a51f77d5a4de17",
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
