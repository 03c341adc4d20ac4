#!/usr/bin/env python3
"""Compare two run_all_benches.sh output directories table by table.

    scripts/diff_bench_csvs.py A B

Both copies of every bench CSV go through strip_wall_fields.py (host
measurements blanked, `# peak RSS` notes dropped) and are then compared
per table and column. Each difference is printed as one line, for example

    bench_fig08_shuffle_throughput.csv: table fct, column p50_us: 2 of 30 cells differ (first: row 4 '12.5' -> '12.7')

Exit status: 0 when every CSV matches, 1 on any difference (a CSV present
in only one directory counts), 2 on usage errors. Simulation output is
deterministic, so a refactor that leaves behaviour alone matches
everywhere.
"""

import csv
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from strip_wall_fields import Headers, strip  # noqa: E402


def parse(lines):
    """Split stripped CSV lines into (notes, tables).

    notes: the comment lines, in order. tables: {table id: [(columns, row)]}
    where columns is the header row in force for that data row.
    """
    notes, tables = [], {}
    headers = Headers()
    for line in strip(lines):
        if line.startswith("#"):
            notes.append(line)
            continue
        row = next(csv.reader([line]), [])
        if not row:
            continue
        if row[0] == "table":
            headers.header(row)
            continue
        tables.setdefault(row[0], []).append((headers.columns(row), row))
    return notes, tables


def diff_tables(name, a, b):
    """Difference lines for one CSV, given parse() results for each side."""
    out = []
    notes_a, tables_a = a
    notes_b, tables_b = b
    if notes_a != notes_b:
        first = next((i for i, (x, y) in enumerate(zip(notes_a, notes_b)) if x != y),
                     min(len(notes_a), len(notes_b)))
        shown = [notes[first] if first < len(notes) else "<none>"
                 for notes in (notes_a, notes_b)]
        out.append(f"{name}: notes differ (first: {shown[0]!r} -> {shown[1]!r})")
    for table in sorted(set(tables_a) | set(tables_b)):
        rows_a, rows_b = tables_a.get(table, []), tables_b.get(table, [])
        if len(rows_a) != len(rows_b):
            out.append(f"{name}: table {table}: {len(rows_a)} rows -> {len(rows_b)}")
            continue
        # column name -> [cells compared, cells differing, first difference]
        cells = {}
        for i, ((cols_a, row_a), (cols_b, row_b)) in enumerate(zip(rows_a, rows_b)):
            if cols_a != cols_b:
                out.append(f"{name}: table {table}: header differs at row {i + 1}")
                break
            width = max(len(row_a), len(row_b))
            for c in range(1, width):
                col = cols_a[c] if c < len(cols_a) else f"#{c}"
                x = row_a[c] if c < len(row_a) else ""
                y = row_b[c] if c < len(row_b) else ""
                stat = cells.setdefault(col, [0, 0, None])
                stat[0] += 1
                if x != y:
                    stat[1] += 1
                    if stat[2] is None:
                        stat[2] = f"row {i + 1} {x!r} -> {y!r}"
        for col, (total, bad, first) in cells.items():
            if bad:
                out.append(f"{name}: table {table}, column {col}: "
                           f"{bad} of {total} cells differ (first: {first})")
    return out


def diff_dirs(dir_a, dir_b):
    """Difference lines across every *.csv in either directory."""
    names_a = {f for f in os.listdir(dir_a) if f.endswith(".csv")}
    names_b = {f for f in os.listdir(dir_b) if f.endswith(".csv")}
    out = []
    for name in sorted(names_a | names_b):
        if name not in names_b:
            out.append(f"{name}: only in {dir_a}")
            continue
        if name not in names_a:
            out.append(f"{name}: only in {dir_b}")
            continue
        with open(os.path.join(dir_a, name)) as fa, open(os.path.join(dir_b, name)) as fb:
            out.extend(diff_tables(name, parse(fa), parse(fb)))
    return out


def main(argv):
    if len(argv) != 3 or any(a.startswith("-") for a in argv[1:]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for d in argv[1:]:
        if not os.path.isdir(d):
            print(f"error: '{d}' is not a directory", file=sys.stderr)
            return 2
    diffs = diff_dirs(argv[1], argv[2])
    for line in diffs:
        print(line)
    if not diffs:
        print("all bench CSVs match")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
