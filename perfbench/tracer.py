"""Run one dpforest command in-process with its layers wrapped in spans.

    PYTHONPATH=src python3 perfbench/tracer.py SUMMARY.json -- train --data ...

The package is imported unchanged; this file replaces the public functions
of each layer, in every dpforest module that holds a reference to them,
with wrappers that time each call. A span's self time is its duration
minus the time of the spans it caused. Recursive calls (the tree
serialisers) are folded into their outermost span. Spans are aggregated in
memory per name and written to SUMMARY.json after the command returns,
together with the counts the benchmark checks: tree nodes and leaves
drawn, leaf-query diagnostics and every privacy ledger's composed cost.

The span stack assumes one thread, so multi-threaded runs are refused.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# layer -> public functions wrapped in that layer's module
LAYERS = {
    "data": ("load_dataset", "save_dataset", "partition_disjoint"),
    "synth": ("generate",),
    "tree": ("build_tree", "leaf_assignments", "node_to_dict", "node_from_dict"),
    "mechanism": ("majority_label_query",),
    "forest": ("build_forest", "fill_leaf_labels", "vote_matrix", "save_model",
               "load_model"),
    "evaluation": ("cross_validate", "auc", "f1"),
    "cli": ("main",),
}


class Tracer:
    """Per-name span totals: calls, inclusive seconds and self seconds."""

    def __init__(self):
        self.totals: dict[str, list] = {}
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._open: set[str] = set()
        self.results: dict[str, list] = {}  # return values kept for counting

    def wrap(self, name: str, fn, keep_results: bool = False):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        kept = self.results.setdefault(name, []) if keep_results else None
        stack, open_spans, clock = self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_spans:
                return fn(*args, **kwargs)
            open_spans.add(name)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_spans.discard(name)
                if stack:
                    stack[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children[0]
            if kept is not None:
                kept.append(result)
            return result

        return wrapper


def _patch(original, replacement) -> None:
    """Point every dpforest module's reference to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "dpforest" or module_name.startswith("dpforest."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> list:
    """Wrap every layer function; return the list that collects ledgers."""
    import importlib

    from dpforest.budget import BudgetLedger

    for layer, names in LAYERS.items():
        module = importlib.import_module(f"dpforest.{layer}")
        for fname in names:
            original = getattr(module, fname)
            keep = fname in ("build_tree", "fill_leaf_labels")
            _patch(original, tracer.wrap(f"{layer}.{fname}", original, keep))

    ledgers: list = []
    init, record = BudgetLedger.__init__, BudgetLedger.record
    entries = tracer.totals.setdefault("budget.record", [0, 0.0, 0.0])

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        ledgers.append(self)

    def traced_record(self, *args, **kwargs):
        entries[0] += 1
        return record(self, *args, **kwargs)

    BudgetLedger.__init__ = traced_init
    BudgetLedger.record = traced_record
    return ledgers


def _count_nodes(trees) -> tuple[int, int]:
    from dpforest.tree import ContinuousSplit, Leaf

    nodes = leaves = 0
    stack = list(trees)
    while stack:
        node = stack.pop()
        nodes += 1
        if isinstance(node, Leaf):
            leaves += 1
        elif isinstance(node, ContinuousSplit):
            stack.extend((node.below, node.at_or_above))
        else:
            stack.extend(node.children.values())
    return nodes, leaves


def summarize(tracer: Tracer, ledgers: list) -> dict:
    nodes, leaves = _count_nodes(tracer.results["tree.build_tree"])
    queries = empty = occupied = flips = 0
    for _, diagnostics in tracer.results["forest.fill_leaf_labels"]:
        for diag in diagnostics:
            queries += 1
            if diag.empty:
                empty += 1
            else:
                occupied += 1
                flips += int(diag.flipped)
    return {
        "spans": {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in tracer.totals.items()
        },
        "counts": {
            "tree.nodes_built": nodes,
            "tree.leaves_built": leaves,
            "mechanism.diagnostics": queries,
            "mechanism.empty_leaves": empty,
            "mechanism.occupied_leaves": occupied,
            "mechanism.flips": flips,
        },
        "ledgers": [
            {"entries": len(ledger.entries), "total": str(ledger.total),
             "composed": str(ledger.composed_cost())}
            for ledger in ledgers
        ],
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SUMMARY.json -- COMMAND [ARGS...]", file=sys.stderr)
        return 64
    summary_path, cli_argv = argv[0], argv[2:]
    if "--threads" in cli_argv and cli_argv[cli_argv.index("--threads") + 1] != "1":
        print("tracer.py: spans need --threads 1", file=sys.stderr)
        return 64
    start = time.perf_counter()
    import dpforest.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    ledgers = install(tracer)
    code = dpforest.cli.main(cli_argv)
    summary = summarize(tracer, ledgers)
    summary.update(exit_code=code, import_s=import_s,
                   package=str(Path(dpforest.cli.__file__).resolve().parent))
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
