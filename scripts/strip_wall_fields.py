#!/usr/bin/env python3
"""Blank the wall-clock fields of a bench CSV so two runs of the same
simulation can be diffed bit-for-bit.

Simulation output is deterministic; host measurements (the construct_s,
wall_s and sweep_wall_s wall clocks, the peak_rss_mb column and the
`# peak RSS` note) are not. The crash-resume check compares an
interrupted+resumed run against an uninterrupted reference, so those — and
only those — fields are neutralized:

    strip_wall_fields.py run.csv > run.stripped.csv
    strip_wall_fields.py < run.csv

Wall-clock columns are located by name from each table's header row (CSV
schema: header rows lead with the literal field "table", data rows with the
table id — docs/BENCH_OUTPUT.md), so this keeps working when columns move.
A header belongs to the table of the first data row after it, and stays
that table's header: a bench that streams rows of several tables (for
example bench_scale_sweep's per-pattern run rows) does not repeat them.
"""

import csv
import io
import sys

WALL_COLUMNS = {"construct_s", "wall_s", "sweep_wall_s", "peak_rss_mb"}
DROP_NOTE_PREFIXES = ("# peak RSS",)


class Headers:
    """Resolves the header row that names a data row's columns.

    Column names line up with data-row fields (index 0 is the
    "table"/table-id field in both).
    """

    def __init__(self):
        self.by_table = {}
        self.pending = None  # header row not yet claimed by a data row

    def header(self, row):
        self.pending = row

    def columns(self, row):
        if self.pending is not None:
            self.by_table[row[0]] = self.pending
            self.pending = None
        return self.by_table.get(row[0], [])


def strip(lines):
    """Yield output lines with wall-clock cells blanked."""
    headers = Headers()
    for line in lines:
        line = line.rstrip("\n")
        if line.startswith("#"):
            if not line.startswith(DROP_NOTE_PREFIXES):
                yield line
            continue
        row = next(csv.reader([line]))
        if not row:
            yield line
            continue
        if row[0] == "table":
            headers.header(row)
            yield line
            continue
        columns = headers.columns(row)
        if columns:
            for i, name in enumerate(columns):
                if name in WALL_COLUMNS and i < len(row):
                    row[i] = ""
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(row)
        yield out.getvalue()


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1].startswith("-")):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    source = open(argv[1]) if len(argv) == 2 else sys.stdin
    with source:
        for line in strip(source):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
