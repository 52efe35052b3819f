"""BoundReport plumbing and deterministic output formatting."""

import numpy as np
import pytest

from dreidel_lab import reporting as rp


class TestBoundReport:
    def test_check_ge(self):
        rep = rp.BoundReport("t")
        assert rep.check_ge("a", 0.5, 0.25).verdict == "pass"
        assert rep.check_ge("b", 0.1, 0.25).verdict == "fail"
        assert rep.check_ge("c", 0.24, 0.25, slack=0.02).verdict == "pass"
        assert not rep.ok and len(rep.failures) == 1

    def test_check_le(self):
        rep = rp.BoundReport("t")
        assert rep.check_le("a", 0.2, 0.25).verdict == "pass"
        assert rep.check_le("b", 0.3, 0.25).verdict == "fail"

    def test_report_only_never_fails(self):
        rep = rp.BoundReport("t")
        rep.report_only("x", 123.0)
        assert rep.ok

    def test_csv_header(self):
        rep = rp.BoundReport("t")
        rep.check_ge("a", 1.0, 0.5)
        text = rp.format_csv({"cmd": "x"}, rp.BOUND_COLUMNS, rep.rows())
        lines = text.splitlines()
        assert lines[0].startswith("# runspec: ")
        assert lines[1].startswith("# artifact-version: ")
        assert lines[2] == "name,paper_bound,measured,margin,verdict"

    def test_numpy_scalars_are_plain_numbers(self):
        assert rp._fmt(np.float64(0.3)) == "0.3" == rp._fmt(0.3)
        assert rp._fmt(np.float32(0.5)) == "0.5"
        assert rp._fmt(np.int64(7)) == "7"
        rep = rp.BoundReport("t")
        rep.check_ge("a", np.float64(0.3), 0.25)
        text = rp.format_csv({"cmd": "x"}, rp.BOUND_COLUMNS, rep.rows())
        assert text.splitlines()[3] == f"a,0.25,0.3,{0.3 - 0.25!r},pass"


class TestEmission:
    def test_csv_is_deterministic(self):
        meta = {"b": 1, "a": 2}
        a = rp.format_csv(meta, ["x"], [[1.5]])
        b = rp.format_csv(dict(sorted(meta.items())), ["x"], [[1.5]])
        assert a == b

    def test_json_stable_keys(self):
        text = rp.format_json({"b": 1, "a": 2}, [{"z": 1, "y": 2}])
        assert text.index('"a"') < text.index('"b"')

    def test_plot_data(self, tmp_path):
        path = tmp_path / "series.dat"
        rp.emit_plot_data([(1, 2.0), (2, 4.0)], str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[-1] == "2 4.0"

    def test_plot_data_empty(self, tmp_path):
        with pytest.raises(ValueError):
            rp.emit_plot_data([], str(tmp_path / "x"))

    def test_write_text_lf(self, tmp_path):
        path = tmp_path / "f.csv"
        rp.write_text(str(path), "a\nb\n")
        assert path.read_bytes() == b"a\nb\n"
