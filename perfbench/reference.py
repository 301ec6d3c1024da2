"""A fixed task that measures how fast the host runs right now.

    python3 perfbench/reference.py

It uses no dpforest code, so no change to the package can change its
time. It does the kinds of work a dpforest command does, in about the same
mix: start an interpreter, import numpy, write and parse CSV text, dump and
parse a tree-shaped JSON document, route rows down a tree with numpy and
loop in pure Python. run.py times it next to every command and divides
by it (see "Noise" in perfbench/COVERAGE.md). It prints one checksum,
which never changes.
"""

import csv
import io
import json

import numpy as np

ROWS, COLUMNS, DEPTH = 10000, 8, 10


def tree(depth: int, key: int) -> dict:
    if depth == 0:
        return {"leaf": True, "label": key % 3}
    return {"feature": key % COLUMNS, "threshold": key * 0.5,
            "left": tree(depth - 1, 2 * key), "right": tree(depth - 1, 2 * key + 1)}


def main() -> int:
    values = np.random.default_rng(12345).random((ROWS, COLUMNS))
    text = io.StringIO()
    writer = csv.writer(text)
    for row in values.tolist():
        writer.writerow([f"{v:.6f}" for v in row])
    parsed = np.array([[float(v) for v in row]
                       for row in csv.reader(io.StringIO(text.getvalue()))])
    document = json.loads(json.dumps([tree(DEPTH, k) for k in range(3)]))
    leaf = np.zeros(ROWS, dtype=np.int64)
    for level in range(DEPTH + 2):
        leaf = leaf * 2 + (parsed[:, level % COLUMNS] > 0.5)
    counts = np.bincount(leaf)
    total = sum(i % 7 for i in range(200000))
    return int(counts.sum()) + len(document) + total % 3


if __name__ == "__main__":
    print(main())
