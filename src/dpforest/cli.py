"""Command line entry points.

Exit codes: 0 on success, 1 for usage problems, 2 for data or schema
validation failures, 3 for internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .budget import BudgetLedger
from .data import (
    csv_table,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
    write_csv,
    write_json,
)
from .errors import DataValidationError, InternalInvariantError
from .evaluation import (
    collect_diagnostics,
    cross_validate,
    diagnostics_to_dict,
    report_to_dict,
)
from .forest import (
    BUDGET_MODES,
    DEFAULT_BUDGET_MODE,
    TrainConfig,
    build_forest,
    load_model,
    predict_batch,
    save_model,
)
from .mechanism import DEFAULT_SENSITIVITY_MODE, SENSITIVITY_MODES, neighbor_ratio_audit
from .synth import PRESETS, generate, generate_preset
from .tree import optimal_depth


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our codes instead
    def error(self, message):
        raise _UsageError(message)


def _named(args: argparse.Namespace, flags) -> list[tuple[str, str]]:
    named = [(flag, getattr(args, flag[2:].replace("-", "_"))) for flag in flags]
    return [(flag, path) for flag, path in named if path is not None]


def _outputs(args: argparse.Namespace) -> list[str]:
    """The command's output paths, checked before any is written: two of
    them, or one and the manifest, or one and an input, may not name the
    same file."""
    named = _named(args, args.outputs)
    if not named:
        return []
    first_flag, first = named[0]
    seen: dict[str, str] = {}
    for flag, path in named + [(f"the manifest of {first_flag}", first + ".manifest.json")]:
        other = seen.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise _UsageError(f"{other} and {flag} name the same file {path!r}")
    for flag, path in _named(args, args.inputs):
        other = seen.get(os.path.realpath(path))
        if other is not None:
            raise _UsageError(f"{flag} and {other} name the same file {path!r}")
    return [path for _, path in named]


def _write_manifest(args: argparse.Namespace, outputs: list[str], started: float) -> None:
    path = outputs[0] + ".manifest.json"
    arguments = {
        key: value for key, value in sorted(vars(args).items())
        if key not in ("func", "inputs", "outputs")
    }
    manifest = {
        "command": args.command,
        "arguments": arguments,
        "seed": getattr(args, "seed", None),
        "outputs": outputs + [path],
        "duration_seconds": round(time.monotonic() - started, 6),
    }
    write_json(path, manifest)


# Each command returns its summary line, which main prints once the
# manifest is written.


def _cmd_gen(args) -> str:
    if args.seed < 0:
        raise _UsageError("seed must be a non-negative integer")
    rng = np.random.default_rng(args.seed)
    if args.preset is not None:
        if args.informative is not None or args.random is not None:
            raise _UsageError("--preset excludes --informative/--random")
        data = generate_preset(args.preset, args.n, rng)
    else:
        if args.informative is None:
            raise _UsageError("either --preset or --informative is required")
        data = generate(args.informative, args.random or 0, args.n, rng)
    save_dataset(data, args.out)
    save_schema(data.schema, args.schema_out)
    return f"wrote {len(data)} records to {args.out}"


def _cmd_depth(args) -> str:
    schema = load_schema(args.schema)
    return str(optimal_depth(schema.num_continuous, schema.num_discrete))


def _train_config(args) -> TrainConfig:
    if args.threads < 0:
        raise _UsageError("threads must be non-negative")
    return TrainConfig(
        epsilon=args.epsilon,
        tau=args.trees,
        depth_override=args.depth,
        sensitivity_mode=args.sensitivity,
        budget_mode=args.budget,
        seed=args.seed,
    )


def _cmd_train(args) -> str:
    schema = load_schema(args.schema)
    data = load_dataset(args.data, schema)
    config = _train_config(args)
    ledger = BudgetLedger(config.epsilon)
    model = build_forest(
        data,
        config,
        ledger,
        collect_diagnostics=args.diagnostics is not None,
    )
    save_model(model, args.out)
    if args.diagnostics is not None:
        write_json(args.diagnostics, diagnostics_to_dict(collect_diagnostics(model)))
    return (f"trained {config.tau} trees at depth {model.config.depth_override}, "
            f"spent epsilon {float(ledger.composed_cost())}")


def _cmd_predict(args) -> str:
    model = load_model(args.model)
    schema = model.schema
    if "prediction" in schema.feature_names or schema.label_column == "prediction":
        raise DataValidationError(
            "schema already uses the column name 'prediction'"
        )
    data = load_dataset(args.data, schema, require_label=False)
    codes = predict_batch(model, data)
    header, columns = csv_table(data)
    write_csv(args.out, header + ["prediction"],
              columns + [(codes, schema.class_labels)])
    return f"wrote {len(data)} predictions to {args.out}"


def _cmd_eval(args) -> str:
    schema = load_schema(args.schema)
    data = load_dataset(args.data, schema)
    config = _train_config(args)
    metrics, diagnostics = cross_validate(
        data,
        config,
        folds=args.folds,
        repeats=args.repeats,
    )
    report = report_to_dict(config, args.folds, args.repeats, metrics, diagnostics)
    write_json(args.report, report)
    return (f"accuracy {metrics.accuracy.mean:.4f} +/- {metrics.accuracy.std:.4f} "
            f"over {args.folds}x{args.repeats} folds")


def _parse_counts(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in text.split(","):
        label, _, value = part.partition(":")
        label = label.strip()
        if not label or not value.strip():
            raise _UsageError(
                f"bad --counts entry {part!r}; expected LABEL:COUNT pairs"
            )
        if label in counts:
            raise _UsageError(f"label {label!r} repeated in --counts")
        try:
            counts[label] = int(value)
        except ValueError:
            raise _UsageError(f"count for {label!r} is not an integer") from None
    return counts


def _cmd_audit(args) -> str:
    counts = _parse_counts(args.counts)
    report = neighbor_ratio_audit(
        counts, args.epsilon, sensitivity_mode=args.sensitivity
    )
    document = report.to_dict()
    if args.report is not None:
        write_json(args.report, document)
    else:
        print(json.dumps(document, indent=2))
    return (f"max log ratio {document['max_log_ratio']} at epsilon {args.epsilon} "
            f"({args.sensitivity} sensitivity)")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="training CSV")
    parser.add_argument("--schema", required=True, help="schema JSON")
    parser.add_argument("--epsilon", type=float, required=True,
                        help="total privacy budget")
    parser.add_argument("--trees", type=int, default=100,
                        help="forest size (default 100)")
    parser.add_argument("--depth", type=int, default=None,
                        help="override the schema-derived tree depth")
    parser.add_argument("--sensitivity", choices=SENSITIVITY_MODES,
                        default=DEFAULT_SENSITIVITY_MODE, help="sensitivity regime")
    parser.add_argument("--budget", choices=BUDGET_MODES,
                        default=DEFAULT_BUDGET_MODE,
                        help="disjoint subsets at full budget, or shared "
                             "data at budget/trees")
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored; "
                             "training runs on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpforest",
                     description="differentially private random forests")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a synthetic benchmark")
    gen.add_argument("--preset", choices=sorted(PRESETS), default=None)
    gen.add_argument("--informative", type=int, default=None,
                     help="informative feature count (alternative to --preset)")
    gen.add_argument("--random", type=int, default=None,
                     help="noise feature count (with --informative)")
    gen.add_argument("--n", type=int, default=30000, help="records to draw")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--schema-out", required=True, help="output schema path")
    # inputs and outputs: the flags naming files the command reads and
    # writes; the first output names the manifest
    gen.set_defaults(func=_cmd_gen, inputs=(), outputs=("--out", "--schema-out"))

    depth = commands.add_parser("depth", help="print the derived tree depth")
    depth.add_argument("--schema", required=True)
    depth.set_defaults(func=_cmd_depth, inputs=("--schema",), outputs=())

    train = commands.add_parser("train", help="train a private forest")
    _add_train_flags(train)
    train.add_argument("--out", required=True, help="model JSON path")
    train.add_argument("--diagnostics", default=None,
                       help="also write a leaf diagnostics report here "
                            "(not privacy safe)")
    train.set_defaults(func=_cmd_train, inputs=("--data", "--schema"),
                       outputs=("--out", "--diagnostics"))

    predict = commands.add_parser("predict", help="label records with a model")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--out", required=True,
                         help="CSV with an appended prediction column")
    predict.set_defaults(func=_cmd_predict, inputs=("--model", "--data"),
                         outputs=("--out",))

    evaluate = commands.add_parser("eval", help="repeated cross-validation")
    _add_train_flags(evaluate)
    evaluate.add_argument("--folds", type=int, default=10)
    evaluate.add_argument("--repeats", type=int, default=10)
    evaluate.add_argument("--report", required=True, help="report JSON path")
    evaluate.set_defaults(func=_cmd_eval, inputs=("--data", "--schema"),
                          outputs=("--report",))

    audit = commands.add_parser(
        "audit", help="measure output ratios against one-record neighbours"
    )
    audit.add_argument("--counts", required=True,
                       help='label counts, e.g. "A:3,B:2"')
    audit.add_argument("--epsilon", type=float, required=True)
    audit.add_argument("--sensitivity", choices=SENSITIVITY_MODES,
                       default=DEFAULT_SENSITIVITY_MODE)
    audit.add_argument("--report", default=None, help="report JSON path")
    audit.set_defaults(func=_cmd_audit, inputs=(), outputs=("--report",))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        outputs = _outputs(args)
        started = time.monotonic()
        summary = args.func(args)
        if outputs:
            _write_manifest(args, outputs, started)
        # audit's stdout carries its report when no --report is named
        print(summary, file=sys.stderr if args.command == "audit" else sys.stdout)
        return 0
    except (_UsageError, ValueError, OSError) as exc:
        # a path that cannot be opened is a bad argument value
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
