"""Unit tests for scripts/diff_bench_csvs.py, the quick-CSV identity check.

Run directly (python3 tests/test_diff_bench_csvs.py) or through ctest,
which registers it as `diff_bench_csvs_py` when a Python interpreter is
found at configure time.
"""
import pathlib
import sys
import tempfile
import unittest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))
from diff_bench_csvs import diff_dirs, main  # noqa: E402

BENCH = """# bench: demo
table,pattern,flows,wall_s
run,incast,144,0.05
table,fabric,bucket,p50_us
fct,opera,<10KB,12.5
fct,opera,>=10KB,80.0
# peak RSS 10 MB
"""


class DiffDirsTest(unittest.TestCase):
    def dirs(self, a_files, b_files):
        root = tempfile.TemporaryDirectory()
        self.addCleanup(root.cleanup)
        a, b = pathlib.Path(root.name, "a"), pathlib.Path(root.name, "b")
        for d, files in ((a, a_files), (b, b_files)):
            d.mkdir()
            for name, text in files.items():
                (d / name).write_text(text)
        return str(a), str(b)

    def test_wall_fields_and_rss_note_are_ignored(self):
        other = BENCH.replace("0.05", "9.99").replace("10 MB", "99 MB")
        a, b = self.dirs({"bench_x.csv": BENCH, "timings.txt": "1"},
                         {"bench_x.csv": other, "timings.txt": "2"})
        self.assertEqual(diff_dirs(a, b), [])
        self.assertEqual(main(["diff", a, b]), 0)

    def test_reports_table_and_column_of_a_moved_cell(self):
        a, b = self.dirs({"bench_x.csv": BENCH},
                         {"bench_x.csv": BENCH.replace("80.0", "81.0")})
        self.assertEqual(diff_dirs(a, b), [
            "bench_x.csv: table fct, column p50_us: 1 of 2 cells differ "
            "(first: row 2 '80.0' -> '81.0')"])
        self.assertEqual(main(["diff", a, b]), 1)

    def test_rows_streamed_after_another_tables_header_keep_their_columns(self):
        # bench_scale_sweep streams a second `run` row after the `fct`
        # header; its wall_s cell is still blanked and named by `run`'s header.
        streamed = BENCH.replace("# peak RSS", "run,storage,72,{}\n# peak RSS")
        a, b = self.dirs({"bench_x.csv": streamed.format("0.76")},
                         {"bench_x.csv": streamed.format("0.82").replace(
                             "storage,72", "storage,73")})
        self.assertEqual(diff_dirs(a, b), [
            "bench_x.csv: table run, column flows: 1 of 2 cells differ "
            "(first: row 2 '72' -> '73')"])

    def test_row_count_notes_and_missing_files_are_differences(self):
        fewer = BENCH.replace("fct,opera,>=10KB,80.0\n", "").replace("demo", "demo2")
        a, b = self.dirs({"bench_x.csv": BENCH, "bench_y.csv": BENCH},
                         {"bench_x.csv": fewer})
        self.assertEqual(diff_dirs(a, b), [
            "bench_x.csv: notes differ (first: '# bench: demo' -> '# bench: demo2')",
            "bench_x.csv: table fct: 2 rows -> 1",
            f"bench_y.csv: only in {a}"])

    def test_usage_errors_exit_2(self):
        self.assertEqual(main(["diff", "only-one"]), 2)
        self.assertEqual(main(["diff", "/nonexistent-a", "/nonexistent-b"]), 2)


if __name__ == "__main__":
    unittest.main()
