#!/usr/bin/env python3
"""Per-column drift between two directories of tclab artifacts.

For every artifact (CSV or JSON) in either directory this prints whether
every verdict matches and, for each numeric column, the largest relative
move |new - old| / max(|new|, |old|) and beside it the largest absolute
move |new - old|, which is what shows how far a column near zero moved.
A text column is named only when it differs.  JSON values are grouped
into columns by key path.  It is the drift record for a change that
moves reported numbers:

    python3 scripts/artifact_drift.py OLD_DIR NEW_DIR [--tol REL]

Exit status 1 when an artifact is missing on one side, changes its
columns or row count, or changes a verdict, and with --tol also when a
numeric column moves by more than REL relative (its line then ends in
"exceeds REL"); 0 otherwise.  A column change names the added and
removed columns, and the columns both sides share are still compared.
"""

import argparse
import csv
import json
import math
import os
import sys


def _columns(name: str, text: str) -> dict:
    """Column name -> list of cell texts, in row order."""
    if name.endswith(".json"):
        cols = {}

        def walk(key, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(f"{key}.{k}" if key else k, v)
            elif isinstance(value, list):
                for v in value:
                    walk(key, v)
            else:
                cols.setdefault(key, []).append(str(value))

        walk("", json.loads(text))
        return cols
    rows = list(csv.reader(line for line in text.splitlines()
                           if line and not line.startswith("#")))
    return {col: [row[j] for row in rows[1:]]
            for j, col in enumerate(rows[0])}


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _move(old: str, new: str) -> tuple:
    """Relative and absolute move of one cell; inf when a cell stops
    being a number."""
    if old == new:
        return 0.0, 0.0
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return math.inf, math.inf
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    return (diff / scale if scale > 0 else 0.0), diff


def compare(name: str, old_text: str, new_text: str, tol=None):
    """Report lines for one artifact and whether it is consistent.

    With ``tol`` set, a numeric column that moves by more than tol
    relative makes the artifact inconsistent too.
    """
    old, new = _columns(name, old_text), _columns(name, new_text)
    shared = [col for col in old if col in new]
    lines = []
    if list(old) != list(new):
        moved = [(label, [col for col in a if col not in b]) for label, a, b
                 in (("added", new, old), ("removed", old, new))]
        lines.append(f"{name}: columns differ: " + ("; ".join(
            f"{label} {', '.join(cols)}" for label, cols in moved if cols)
            or "same set, new order"))
    if any(len(old[col]) != len(new[col]) for col in shared):
        return lines + [f"{name}: row counts differ"], False
    same = old.get("verdict") == new.get("verdict")
    ok = same and not lines
    lines.append(f"{name}: verdicts " + ("match" if same else "DIFFER"))
    width = max(map(len, shared), default=0)
    for col in shared:
        if col == "verdict":
            continue
        cells = old[col] + new[col]
        if all(t == "" or _number(t) is not None for t in cells):
            moves = list(map(_move, old[col], new[col]))
            rel = max((m[0] for m in moves), default=0.0)
            diff = max((m[1] for m in moves), default=0.0)
            line = f"  {col:<{width}}  {rel:.2g}  abs {diff:.2g}"
            if tol is not None and rel > tol:
                line += f"  exceeds {tol:g}"
                ok = False
            lines.append(line)
        elif old[col] != new[col]:
            lines.append(f"  {col:<{width}}  text differs")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_dir")
    parser.add_argument("new_dir")
    parser.add_argument("--tol", type=float, metavar="REL",
                        help="fail when a numeric column moves by more "
                             "than REL relative")
    args = parser.parse_args(argv)
    ok = True
    names = sorted(set(os.listdir(args.old_dir)) | set(os.listdir(args.new_dir)))
    for name in names:
        paths = [os.path.join(d, name) for d in (args.old_dir, args.new_dir)]
        missing = [p for p in paths if not os.path.isfile(p)]
        if missing:
            print(f"{name}: missing from {missing[0]}")
            ok = False
            continue
        texts = []
        for path in paths:
            with open(path, newline="") as fh:
                texts.append(fh.read())
        lines, same = compare(name, *texts, tol=args.tol)
        print("\n".join(lines))
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
