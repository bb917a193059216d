"""Edge-case tests for the FigureResult container and its rendering."""

import numpy as np
import pytest

from repro.experiments.results import FigureResult


class TestRendering:
    def test_float_index_formatting(self):
        result = FigureResult("f", "t", "pfail", [0.001, 0.002])
        result.add_series("capacity", [0.58, 0.34])
        text = result.to_text()
        assert "0.0010" in text
        assert "0.5800" in text

    def test_string_index_passthrough(self):
        result = FigureResult("f", "t", "bench", ["crafty", "swim"])
        result.add_series("perf", [0.7, 1.0])
        assert "crafty" in result.to_text()

    def test_custom_float_format(self):
        result = FigureResult("f", "t", "x", [1.0])
        result.add_series("s", [0.123456])
        assert "0.12" in result.to_text("{:.2f}")

    def test_empty_series_table(self):
        result = FigureResult("f", "t", "x", [])
        result.add_series("s", [])
        text = result.to_text()
        assert "f:" in text  # header renders even with no rows

    def test_column_alignment(self):
        """Every rendered row has the same display width."""
        result = FigureResult("f", "t", "benchmark", ["a", "longername"])
        result.add_series("series-with-long-name", [1.0, 2.0])
        lines = result.to_text().splitlines()
        rows = lines[1:]  # skip the title line
        widths = {len(row) for row in rows}
        assert len(widths) == 1

    def test_notes_and_reference_optional(self):
        result = FigureResult("f", "t", "x", [1])
        result.add_series("s", [1.0])
        text = result.to_text()
        assert "--" not in text  # no notes/reference lines

    def test_mean_of_missing_series_raises(self):
        result = FigureResult("f", "t", "x", [1])
        with pytest.raises(KeyError):
            result.mean("nope")


class TestCSVExport:
    def test_header_and_rows(self):
        result = FigureResult("f", "t", "bench", ["a", "b"])
        result.add_series("perf", [0.5, 1.0])
        csv = result.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "bench,perf"
        assert lines[1] == "a,0.5"
        assert lines[2] == "b,1.0"

    def test_round_trips_floats_exactly(self):
        result = FigureResult("f", "t", "x", [0.001])
        result.add_series("s", [0.123456789012345])
        value = result.to_csv().strip().splitlines()[1].split(",")[1]
        assert float(value) == 0.123456789012345

    def test_numpy_scalars_write_plain_numbers(self):
        """Analytical figures compute with NumPy: their cells must still
        parse as numbers, not read ``np.float64(...)``."""
        result = FigureResult("f", "t", "x", [0.1, 0.2, 0.3])
        values = np.array([0.23552591134830914, 1.0, 5.927443867568256e-174])
        result.add_series("array", values)
        result.add_series("scalars", [np.float64(0.5), np.float32(0.25), np.int64(7)])
        rows = [line.split(",") for line in result.to_csv().strip().splitlines()[1:]]
        cells = [cell for row in rows for cell in row[1:]]
        assert [float(cell) for cell in cells] == [
            0.23552591134830914, 0.5, 1.0, 0.25, 5.927443867568256e-174, 7.0
        ]
        assert cells[:2] == ["0.23552591134830914", "0.5"]
        assert rows[2][2] == "7"


class TestCLICSVExport:
    def test_cli_writes_csv(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig3", "--csv", str(tmp_path)]) == 0
        csv_file = tmp_path / "fig3.csv"
        assert csv_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("pfail,")
