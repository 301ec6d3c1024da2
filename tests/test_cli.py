import csv
import json
import sys

import pytest

from dpforest.cli import main
from dpforest.data import load_dataset, load_schema
from dpforest.forest import load_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    schema = root / "schema.json"
    code = main([
        "gen", "--preset", "SynthF", "--n", "600", "--seed", "1",
        "--out", str(data), "--schema-out", str(schema),
    ])
    assert code == 0
    return {"root": root, "data": data, "schema": schema}


def test_gen_outputs_and_manifest(workspace):
    schema = load_schema(str(workspace["schema"]))
    data = load_dataset(str(workspace["data"]), schema)
    assert len(data) == 600
    assert schema.num_continuous == 10
    manifest = json.loads(
        (workspace["root"] / "data.csv.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 1
    assert manifest["arguments"]["n"] == 600
    assert str(workspace["data"]) in manifest["outputs"]
    assert str(workspace["schema"]) in manifest["outputs"]
    assert manifest["duration_seconds"] >= 0


def test_gen_with_explicit_feature_counts(tmp_path):
    code = main([
        "gen", "--informative", "3", "--random", "2", "--n", "40", "--seed", "0",
        "--out", str(tmp_path / "d.csv"), "--schema-out", str(tmp_path / "s.json"),
    ])
    assert code == 0
    schema = load_schema(str(tmp_path / "s.json"))
    assert schema.num_continuous == 5


def test_depth_prints_derived_depth(workspace, capsys):
    assert main(["depth", "--schema", str(workspace["schema"])]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_train_writes_model_and_manifest(workspace):
    model_path = workspace["root"] / "model.json"
    diag_path = workspace["root"] / "diag.json"
    code = main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--trees", "10", "--seed", "3",
        "--out", str(model_path), "--diagnostics", str(diag_path),
    ])
    assert code == 0
    model = load_model(str(model_path))
    assert model.config.tau == 10
    assert model.config.depth_override == 8
    diag = json.loads(diag_path.read_text(encoding="utf-8"))
    assert set(diag) == {
        "empty_leaf_fraction", "flip_fraction", "mean_smooth_sensitivity",
    }
    manifest = json.loads(
        (workspace["root"] / "model.json.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["command"] == "train"
    assert str(diag_path) in manifest["outputs"]


def test_train_is_deterministic_across_runs_and_threads(workspace, tmp_path):
    out = []
    for name, threads in (("m1.json", "1"), ("m2.json", "1"), ("m4.json", "4")):
        path = tmp_path / name
        code = main([
            "train", "--data", str(workspace["data"]),
            "--schema", str(workspace["schema"]),
            "--epsilon", "0.5", "--trees", "12", "--seed", "7",
            "--threads", threads, "--out", str(path),
        ])
        assert code == 0
        out.append(path.read_bytes())
    assert out[0] == out[1] == out[2]


def test_predict_appends_a_column(workspace, tmp_path):
    model_path = tmp_path / "model.json"
    main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--trees", "10", "--seed", "3", "--out", str(model_path),
    ])
    out_path = tmp_path / "scored.csv"
    code = main([
        "predict", "--model", str(model_path), "--data", str(workspace["data"]),
        "--out", str(out_path),
    ])
    assert code == 0
    with open(out_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][-1] == "prediction"
    assert len(rows) == 601
    labels = {row[-1] for row in rows[1:]}
    assert labels <= {"c0", "c1"}


def test_eval_writes_report(workspace, tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "eval", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--trees", "5", "--depth", "4", "--seed", "2",
        "--folds", "3", "--repeats", "1", "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert len(report["metrics"]["accuracy"]["samples"]) == 3
    assert report["config"]["epsilon"] == 1.0
    assert (tmp_path / "report.json.manifest.json").exists()


def test_audit_prints_report(capsys):
    code = main(["audit", "--counts", "A:3,B:2", "--epsilon", "1.0",
                 "--sensitivity", "smooth"])
    assert code == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert document["sensitivity_mode"] == "smooth"
    assert document["max_log_ratio"] > 1.0
    assert "max log ratio" in captured.err


def test_audit_report_file(tmp_path):
    report_path = tmp_path / "audit.json"
    code = main(["audit", "--counts", "A:3,B:2", "--epsilon", "0.5",
                 "--sensitivity", "global", "--report", str(report_path)])
    assert code == 0
    document = json.loads(report_path.read_text(encoding="utf-8"))
    assert document["max_log_ratio"] <= 0.5 + 1e-12
    assert (tmp_path / "audit.json.manifest.json").exists()


def test_usage_errors_exit_one(workspace, tmp_path, capsys):
    assert main(["train"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1
    assert main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "0", "--out", str(tmp_path / "m.json"),
    ]) == 1
    err = capsys.readouterr().err
    assert "epsilon" in err
    assert main(["audit", "--counts", "A:x", "--epsilon", "1.0"]) == 1
    assert main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--threads", "-1", "--out", str(tmp_path / "m.json"),
    ]) == 1
    assert "threads" in capsys.readouterr().err
    assert main(["gen", "--out", "x.csv", "--schema-out", "y.json",
                 "--preset", "SynthA", "--informative", "3"]) == 1
    capsys.readouterr()
    assert main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--seed", "-1", "--out", str(tmp_path / "m.json"),
    ]) == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert main(["gen", "--preset", "SynthA", "--n", "10", "--seed", "-1",
                 "--out", str(tmp_path / "x.csv"),
                 "--schema-out", str(tmp_path / "y.json")]) == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_gen_over_the_cell_limit_exits_one_before_any_draw(tmp_path, capsys):
    # 10**14 rows is more memory than a 47-bit address space holds, so
    # without the check numpy refuses at once and nothing is allocated
    code = main(["gen", "--preset", "SynthA", "--n", "100000000000000",
                 "--out", str(tmp_path / "x.csv"), "--schema-out", str(tmp_path / "y.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "500000000000025 cells, over the limit of 67108864" in err
    assert not (tmp_path / "x.csv").exists()


def test_audit_of_a_count_past_the_double_range_exits_one(tmp_path, capsys):
    # the total is refused before any derivation, which cannot take a gap
    # that no double holds
    huge = 10**400
    code = main(["audit", "--counts", f"A:{huge},B:0", "--epsilon", "1",
                 "--report", str(tmp_path / "audit.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"usage error: refusing to audit {huge} records (limit 1000)")
    assert not (tmp_path / "audit.json").exists()


@pytest.mark.parametrize("count,message", [
    ("1" + "0" * 5000, "has more than 4300 digits"),
    ("-1" + "0" * 5000, "has more than 4300 digits"),
    ("1." + "0" * 5000, "is not an integer"),
], ids=["digits", "negative-digits", "decimal"])
def test_audit_of_a_count_past_the_digit_limit_names_the_limit(tmp_path, capsys, count,
                                                              message):
    # int() refuses a digit string longer than the interpreter's limit,
    # which is not the same fault as a count that is no integer at all
    assert sys.get_int_max_str_digits() == 4300
    code = main(["audit", "--counts", f"A:{count},B:0", "--epsilon", "1",
                 "--report", str(tmp_path / "audit.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"usage error: count for 'A' {message}\n"
    assert not (tmp_path / "audit.json").exists()


@pytest.mark.parametrize("command,second,named", [
    ("gen", "out", ("--out", "--schema-out")),
    ("gen", "out.manifest.json", ("--schema-out", "the manifest of --out")),
    ("train", "out", ("--out", "--diagnostics")),
    ("train", "out.manifest.json", ("--diagnostics", "the manifest of --out")),
    ("train", "link/out", ("--out", "--diagnostics")),
], ids=["gen", "gen-manifest", "train", "train-manifest", "train-symlink"])
def test_outputs_naming_one_file_exit_one_before_any_write(workspace, tmp_path, capsys,
                                                          command, second, named):
    (tmp_path / "link").symlink_to(tmp_path)
    (tmp_path / "out").write_text("kept\n", encoding="utf-8")
    before = sorted(p.name for p in tmp_path.iterdir())
    if command == "gen":
        argv = ["gen", "--preset", "SynthF", "--n", "50",
                "--out", str(tmp_path / "out"), "--schema-out", str(tmp_path / second)]
    else:
        argv = ["train", "--data", str(workspace["data"]),
                "--schema", str(workspace["schema"]), "--epsilon", "1.0",
                "--trees", "2", "--out", str(tmp_path / "out"),
                "--diagnostics", str(tmp_path / second)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert f"{named[0]} and {named[1]} name the same file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "out").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command,epsilon", [
    ("train", "1e308"), ("train", "1.7e308"), ("train", "5e-324"), ("audit", "1e308"),
])
def test_smooth_mode_takes_extreme_epsilons(workspace, tmp_path, capsys, command,
                                            epsilon):
    # -gap * epsilon overflows to -inf at the top, epsilon / 2 underflows at the bottom
    if command == "audit":
        assert main(["audit", "--counts", "A:5,B:1", "--epsilon", epsilon,
                     "--sensitivity", "smooth"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["per_label_ratios"] == {"A": 0.0, "B": "inf"}
        return
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", epsilon, "--trees", "3", "--sensitivity", "smooth",
        "--out", str(model_path), "--diagnostics", str(tmp_path / "diag.json"),
    ]) == 0
    assert load_model(str(model_path)).config.epsilon == float(epsilon)
    diag = json.loads((tmp_path / "diag.json").read_text(encoding="utf-8"))
    # every occupied leaf releases its majority at the top, flips at random below
    if float(epsilon) > 1.0:
        assert diag["flip_fraction"] == 0.0
    else:
        assert diag["mean_smooth_sensitivity"] == 1.0


def test_binary_eval_with_a_one_class_test_fold_exits_two(workspace, tmp_path, capsys):
    header, *rows = workspace["data"].read_text(encoding="utf-8").splitlines()[:21]
    # one c1 among 20 rows: at most one of five folds can hold both classes
    rows = [row.rsplit(",", 1)[0] + (",c1" if i == 0 else ",c0")
            for i, row in enumerate(rows)]
    data = tmp_path / "one-c1.csv"
    data.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main([
        "eval", "--data", str(data), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--trees", "2", "--folds", "5", "--repeats", "1",
        "--report", str(report),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: test fold ") and err.count("\n") == 1
    assert "in repeat 1 holds only class 'c0'" in err
    assert not report.exists()


@pytest.mark.parametrize("flag", ["--data", "--model"])
def test_paths_that_cannot_be_opened_exit_one(workspace, tmp_path, capsys, flag):
    missing = str(tmp_path / "missing")
    if flag == "--data":
        argv = ["train", "--data", missing, "--schema", str(workspace["schema"]),
                "--epsilon", "1.0", "--out", str(tmp_path / "m.json")]
    else:
        argv = ["predict", "--model", missing, "--data", str(workspace["data"]),
                "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert missing in err


@pytest.mark.parametrize("kind", ["csv", "schema", "model"])
def test_files_that_are_not_utf8_exit_two(workspace, tmp_path, capsys, kind):
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--trees", "2", "--out", str(model_path),
    ]) == 0
    source = {"csv": workspace["data"], "schema": workspace["schema"],
              "model": model_path}[kind]
    text = source.read_bytes()
    bad = tmp_path / f"bad-{kind}"
    # a stray 0xff byte inside the first label name, past the first line
    at = text.index(b"c0", text.index(b"\n"))
    bad.write_bytes(text[:at] + b"\xff" + text[at:])
    if kind == "model":
        argv = ["predict", "--model", str(bad), "--data", str(workspace["data"]),
                "--out", str(tmp_path / "o.csv")]
    else:
        data, schema = workspace["data"], workspace["schema"]
        if kind == "csv":
            data = bad
        else:
            schema = bad
        argv = ["train", "--data", str(data), "--schema", str(schema),
                "--epsilon", "1.0", "--trees", "2", "--out", str(tmp_path / "m.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: not valid UTF-8")


def test_data_errors_exit_two(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    schema = load_schema(str(workspace["schema"]))
    name = schema.features[0].name
    upper = schema.features[0].upper
    header = ",".join(list(schema.feature_names) + ["label"])
    cells = ["0.0"] * len(schema.feature_names) + ["c0"]
    cells[0] = str(upper * 2 + 10)
    bad.write_text(header + "\n" + ",".join(cells) + "\n", encoding="utf-8")
    code = main([
        "train", "--data", str(bad), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2
    assert name in capsys.readouterr().err


def test_data_errors_from_bad_model_file(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"format_version": 99}', encoding="utf-8")
    code = main(["predict", "--model", str(model_path), "--data", "ignored.csv",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "format version" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("epsilon", "NaN"), ("epsilon", "Infinity"), ("tau", "true"), ("tau", "1.0"),
])
def test_model_with_a_bad_config_value_exits_two(workspace, tmp_path, capsys,
                                                  key, value):
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--trees", "1", "--seed", "3", "--out", str(model_path),
    ]) == 0
    text = model_path.read_text(encoding="utf-8")
    line = {"epsilon": '"epsilon": 1.0,', "tau": '"tau": 1,'}[key]
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace(line, f'"{key}": {value},', 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(bad), "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: model config: {key} ") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


def test_deeply_nested_model_file_exits_two(workspace, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--trees", "2", "--seed", "3", "--out", str(model_path),
    ]) == 0
    document = json.loads(model_path.read_text(encoding="utf-8"))
    leaf = '{"kind": "leaf", "label": "c0"}'
    levels = 3000
    chain = ('{"kind": "split_cont", "feature": "f0", "split": 0.0, "below": ' * levels
             + leaf + f', "at_or_above": {leaf}}}' * levels)
    text = json.dumps(dict(document, trees=[]))
    deep = tmp_path / "deep.json"
    deep.write_text(text.replace('"trees": []', f'"trees": [{chain}, {leaf}]'),
                    encoding="utf-8")
    argv = ["predict", "--model", str(deep), "--data", str(workspace["data"]),
            "--out", str(tmp_path / "o.csv")]
    capsys.readouterr()
    assert main(argv) == 2
    assert "nested too deeply" in capsys.readouterr().err

    # nested deeper than the declared depth, yet shallow enough to decode
    depth = document["config"]["depth"]
    chain = ('{"kind": "split_cont", "feature": "f0", "split": 0.0, "below": '
             * (depth + 1) + leaf + f', "at_or_above": {leaf}}}' * (depth + 1))
    deep.write_text(text.replace('"trees": []', f'"trees": [{chain}, {leaf}]'),
                    encoding="utf-8")
    assert main(argv) == 2
    assert "deeper than the model depth" in capsys.readouterr().err


def test_deeply_nested_schema_file_exits_two(workspace, tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text("[" * 3000 + "]" * 3000, encoding="utf-8")
    assert main(["train", "--data", str(workspace["data"]), "--schema", str(schema),
                 "--epsilon", "1.0", "--out", str(tmp_path / "m.json")]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_csv_cell_over_the_field_limit_exits_two(workspace, tmp_path, capsys, command):
    model_path = tmp_path / "model.json"
    if command == "predict":
        assert main([
            "train", "--data", str(workspace["data"]), "--schema",
            str(workspace["schema"]), "--epsilon", "1.0", "--trees", "2",
            "--out", str(model_path),
        ]) == 0
    header, first, rest = workspace["data"].read_text(encoding="utf-8").split("\n", 2)
    big = tmp_path / "big.csv"
    # 200,000 more characters in the first row's label cell
    big.write_text(f"{header}\n{first}{'0' * 200_000}\n{rest}", encoding="utf-8")
    flags = ["--data", str(big), "--schema", str(workspace["schema"]), "--epsilon", "1.0",
             "--trees", "2"]
    argv = {
        "train": ["train", *flags, "--out", str(tmp_path / "m.json")],
        "eval": ["eval", *flags, "--folds", "2", "--repeats", "1",
                 "--report", str(tmp_path / "r.json")],
        "predict": ["predict", "--model", str(model_path), "--data", str(big),
                    "--out", str(tmp_path / "o.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {big}: ") and err.count("\n") == 1
    assert "field larger than field limit" in err


# beyond the largest double, and beyond the digits Python converts to int
TOO_LARGE = "1" + "0" * 400
TOO_LONG = "1" + "0" * 5000


@pytest.mark.parametrize("command,number,message", [
    ("depth", TOO_LARGE, "feature 'f0': 'upper' must be finite"),
    ("train", TOO_LARGE, "feature 'f0': 'upper' must be finite"),
    ("predict", TOO_LARGE, "split for 'f"),
    ("depth", TOO_LONG, "not valid JSON: Exceeds the limit"),
    ("predict", TOO_LONG, "not valid JSON: Exceeds the limit"),
], ids=["depth-large-bound", "train-large-bound", "predict-large-split",
        "depth-long-bound", "predict-long-split"])
def test_numbers_a_double_cannot_hold_exit_two(workspace, tmp_path, capsys, command,
                                               number, message):
    bad = tmp_path / "bad.json"
    if command == "predict":
        model_path = tmp_path / "model.json"
        assert main([
            "train", "--data", str(workspace["data"]), "--schema",
            str(workspace["schema"]), "--epsilon", "1.0", "--trees", "2",
            "--seed", "3", "--out", str(model_path),
        ]) == 0
        document = json.loads(model_path.read_text(encoding="utf-8"))
        document["trees"][0]["split"] = "NUMBER"  # SynthF roots split continuously
        argv = ["predict", "--model", str(bad), "--data", str(workspace["data"]),
                "--out", str(tmp_path / "o.csv")]
    else:
        document = json.loads(workspace["schema"].read_text(encoding="utf-8"))
        document["features"][0]["upper"] = "NUMBER"
        argv = {"depth": ["depth", "--schema", str(bad)],
                "train": ["train", "--data", str(workspace["data"]), "--schema", str(bad),
                          "--epsilon", "1.0", "--out", str(tmp_path / "m.json")]}[command]
    bad.write_text(json.dumps(document).replace('"NUMBER"', number), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_bounds_whose_width_overflows_a_double_exit_two(workspace, tmp_path, capsys,
                                                        command):
    # each bound is a finite double, but upper - lower is not
    if command == "predict":
        source = tmp_path / "model.json"
        assert main([
            "train", "--data", str(workspace["data"]), "--schema",
            str(workspace["schema"]), "--epsilon", "1.0", "--trees", "2",
            "--seed", "3", "--out", str(source),
        ]) == 0
    else:
        source = workspace["schema"]
    document = json.loads(source.read_text(encoding="utf-8"))
    schema = document["schema"] if command == "predict" else document
    schema["features"][0].update(lower=-1e308, upper=1e308)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", str(workspace["data"]), "--schema", str(bad),
                  "--epsilon", "1.0", "--trees", "3", "--out", str(out)],
        "eval": ["eval", "--data", str(workspace["data"]), "--schema", str(bad),
                 "--epsilon", "1.0", "--trees", "3", "--report", str(out)],
        "predict": ["predict", "--model", str(bad), "--data", str(workspace["data"]),
                    "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: feature 'f0': ") and err.count("\n") == 1
    assert "overflows a double" in err
    assert not out.exists()


def test_split_budget_names_a_per_query_epsilon_of_zero(workspace, tmp_path, capsys):
    assert main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--budget", "split", "--epsilon", "5e-324", "--trees", "3",
        "--out", str(tmp_path / "m.json"),
    ]) == 1
    err = capsys.readouterr().err
    assert err == ("usage error: epsilon 5e-324 split over 3 trees rounds to a "
                   "per-query epsilon of 0.0\n")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command,depth,count", [
    ("train", 40, f"{100 * 2**40}"),
    ("eval", 40, f"{100 * 2**40}"),
    ("train", 100000, f"{100 * 2**64} * 2^{100000 - 64}"),
])
def test_depth_over_the_leaf_cap_exits_one_before_any_tree(
        workspace, tmp_path, capsys, monkeypatch, command, depth, count):
    import dpforest.forest

    def no_trees(*args, **kwargs):
        raise AssertionError("a tree was drawn")

    monkeypatch.setattr(dpforest.forest, "build_tree", no_trees)
    out = ["--out", str(tmp_path / "m.json")] if command == "train" else [
        "--report", str(tmp_path / "r.json"), "--folds", "2", "--repeats", "1"]
    code = main([
        command, "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--trees", "100", "--depth", str(depth), *out,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"up to {count} leaves" in err
    assert not (tmp_path / "m.json").exists()


def test_model_declaring_a_huge_depth_still_predicts(workspace, tmp_path):
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--epsilon", "1.0", "--trees", "2", "--seed", "3", "--out", str(model_path),
    ]) == 0
    document = json.loads(model_path.read_text(encoding="utf-8"))
    document["config"]["depth"] = 10**9
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(document), encoding="utf-8")
    outputs = []
    for path in (model_path, huge):
        out = tmp_path / f"{path.stem}.csv"
        assert main(["predict", "--model", str(path), "--data", str(workspace["data"]),
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command,input_flag,output_flag,output", [
    ("predict", "--data", "--out", "data.csv"),
    ("predict", "--model", "--out", "model.json"),
    ("train", "--schema", "--out", "schema.manifest.json"),
    ("train", "--data", "--diagnostics", "data.csv"),
    ("train", "--schema", "the manifest of --out", "schema"),
    ("eval", "--data", "--report", "data.csv"),
])
def test_an_output_naming_an_input_exits_one_before_any_write(
        workspace, tmp_path, capsys, command, input_flag, output_flag, output):
    (tmp_path / "link").symlink_to(tmp_path)
    # the schema's name lets the manifest of an output called "schema" land on it
    data, schema, model = (str(tmp_path / name) for name in
                           ("data.csv", "schema.manifest.json", "model.json"))
    (tmp_path / "data.csv").write_bytes(workspace["data"].read_bytes())
    (tmp_path / "schema.manifest.json").write_bytes(workspace["schema"].read_bytes())
    assert main(["train", "--data", data, "--schema", schema, "--epsilon", "1.0",
                 "--trees", "2", "--out", model]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    # the output reaches the input through a symlink to its directory
    outputs = {"--out": str(tmp_path / "out"), "--diagnostics": str(tmp_path / "diag"),
               "--report": str(tmp_path / "report")}
    outputs[output_flag.removeprefix("the manifest of ")] = str(tmp_path / "link" / output)
    argv = {
        "predict": ["predict", "--model", model, "--data", data, "--out", outputs["--out"]],
        "train": ["train", "--data", data, "--schema", schema, "--epsilon", "1.0",
                  "--trees", "2", "--out", outputs["--out"],
                  "--diagnostics", outputs["--diagnostics"]],
        "eval": ["eval", "--data", data, "--schema", schema, "--epsilon", "1.0",
                 "--trees", "2", "--folds", "2", "--repeats", "1",
                 "--report", outputs["--report"]],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert f"{input_flag} and {output_flag} name the same file" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_a_manifest_that_cannot_be_written_prints_one_stderr_line(tmp_path, capsys):
    report = tmp_path / ("r" * 245 + ".json")  # the manifest's name is over 255 bytes
    assert main(["audit", "--counts", "A:3,B:2", "--epsilon", "1",
                 "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert "File name too long" in captured.err
