import math
import os

import numpy as np
import pytest

from qanneal.io import (
    ConfigError,
    RunConfig,
    RunReport,
    load_binary_regression_csv,
    report_from_json,
    report_to_json,
    write_report_json,
    write_trace_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def small_report(**overrides):
    fields = {
        "log_Z": 1.25,
        "stderr_estimate": 0.5,
        "ess_trace": (12.0, 10.5),
        "beta_trace": (0.5, 1.0),
        "acceptance_trace": (0.9, 0.8),
        "wallclock_s": 0.125,
        "config_echo": RunConfig(command="ais", particles=8, K=2, seed=3),
        "extras": {"n_dropped": 0},
    }
    fields.update(overrides)
    return RunReport(**fields)


class TestLoader:
    def test_two_row_standardization(self, tmp_path):
        model = load_binary_regression_csv(write(tmp_path, "0,0\n1,2\n"))
        assert model.X.shape == (2, 2)
        assert np.allclose(model.X[:, 0], 1.0)
        assert np.allclose(model.X[:, 1], [-1.0, 1.0])
        assert np.array_equal(model.y, [0.0, 1.0])
        assert model.prior_sd == 5.0

    def test_header_is_skipped(self, tmp_path):
        model = load_binary_regression_csv(write(tmp_path, "label,x\n0,0\n1,2\n"))
        assert np.allclose(model.X[:, 1], [-1.0, 1.0])

    def test_numeric_first_row_is_data(self, tmp_path):
        model = load_binary_regression_csv(write(tmp_path, "0,0\n1,2\n1,4\n"))
        assert model.y.size == 3

    def test_minus_plus_labels_remapped_with_warning(self, tmp_path):
        with pytest.warns(UserWarning, match="remapping"):
            model = load_binary_regression_csv(write(tmp_path, "-1,0\n1,2\n"))
        assert np.array_equal(model.y, [0.0, 1.0])

    def test_mixed_codings_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mix"):
            load_binary_regression_csv(write(tmp_path, "-1,0\n0,2\n"))

    def test_non_binary_label_names_row(self, tmp_path):
        with pytest.raises(ValueError, match="row 2"):
            load_binary_regression_csv(write(tmp_path, "0,1\n2,0\n"))

    def test_ragged_row_names_row(self, tmp_path):
        with pytest.raises(ValueError, match="row 2"):
            load_binary_regression_csv(write(tmp_path, "0,1,2\n1,3\n"))

    def test_non_numeric_cell_names_row(self, tmp_path):
        with pytest.raises(ValueError, match="row 3"):
            load_binary_regression_csv(write(tmp_path, "label,x\n0,1\n1,oops\n"))

    def test_non_finite_cell_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="row 1"):
            load_binary_regression_csv(write(tmp_path, "0,inf\n1,2\n"))

    def test_empty_and_header_only_files(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_binary_regression_csv(write(tmp_path, ""))
        with pytest.raises(ValueError, match="no data"):
            load_binary_regression_csv(write(tmp_path, "label,x\n"))

    def test_label_only_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one feature"):
            load_binary_regression_csv(write(tmp_path, "0\n1\n"))

    def test_constant_column_maps_to_zeros(self, tmp_path):
        model = load_binary_regression_csv(write(tmp_path, "0,5,1\n1,5,3\n"))
        assert np.allclose(model.X[:, 1], 0.0)
        assert np.allclose(model.X[:, 2], [-1.0, 1.0])

    def test_row_order_preserved(self, tmp_path):
        model = load_binary_regression_csv(write(tmp_path, "1,9\n0,1\n1,5\n0,3\n"))
        assert np.array_equal(model.y, [1.0, 0.0, 1.0, 0.0])
        assert np.argmax(model.X[:, 1]) == 0


class TestReportJson:
    def test_round_trip_finite(self):
        report = small_report()
        assert report_from_json(report_to_json(report)) == report

    def test_round_trip_special_floats(self):
        report = small_report(
            log_Z=math.nan,
            stderr_estimate=-math.inf,
            extras={"bound": math.inf, "count": 3},
        )
        text = report_to_json(report)
        assert '"nan"' in text
        assert '"-inf"' in text
        assert report_from_json(text) == report

    def test_differing_reports_compare_unequal(self):
        assert small_report() != small_report(log_Z=2.0)
        assert small_report() != small_report(ess_trace=(12.0, 11.0))

    def test_equal_exactly_when_the_files_are(self):
        # nan equals nan; a signed zero and the order of extras are written
        assert small_report(log_Z=math.nan) == small_report(log_Z=math.nan)
        assert small_report(log_Z=-0.0) != small_report(log_Z=0.0)
        assert small_report(extras={"a": 1, "b": 2}) != small_report(extras={"b": 2, "a": 1})

    def test_config_echo_strings_stay_strings(self):
        config = RunConfig(command="ais", output="inf", extras={"trace_csv": "nan"})
        report = small_report(config_echo=config, extras={"bound": math.inf})
        parsed = report_from_json(report_to_json(report))
        assert type(parsed.config_echo.output) is str and parsed.config_echo.output == "inf"
        assert type(parsed.config_echo.extras["trace_csv"]) is str
        assert parsed.config_echo == config
        assert parsed.extras["bound"] == math.inf

    def test_numpy_values_are_encoded(self):
        report = small_report(
            log_Z=np.float64(2.0), extras={"ids": np.arange(3), "n": np.int64(4)}
        )
        parsed = report_from_json(report_to_json(report))
        assert parsed.log_Z == 2.0
        assert parsed.extras == {"ids": [0, 1, 2], "n": 4}

    def test_unencodable_extras_raise(self):
        with pytest.raises(TypeError):
            report_to_json(small_report(extras={"f": object()}))

    def test_config_dict_round_trip(self):
        config = RunConfig(
            command="smc",
            path_kind="qpath",
            q=0.98,
            particles=128,
            K=12,
            schedule="adaptive",
            moves=2,
            seed=7,
            dataset="d.csv",
            output="r.json",
            extras={"adapt_steps": 0},
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_from_dict_names_missing_and_unknown_fields(self):
        d = small_report().to_dict()
        del d["wallclock_s"]
        with pytest.raises(ValueError, match="RunReport: missing field 'wallclock_s'"):
            RunReport.from_dict(d)
        d = small_report().to_dict()
        d["config_echo"]["ground_truth"] = True
        with pytest.raises(ValueError, match="RunConfig: unknown field 'ground_truth'"):
            RunReport.from_dict(d)

    def test_config_error_carries_field_list(self):
        err = ConfigError(["q: required", "K: need at least one step"])
        assert err.errors == ["q: required", "K: need at least one step"]
        assert "q: required" in str(err)


class TestFileWrites:
    def test_report_file_written_atomically(self, tmp_path):
        target = tmp_path / "report.json"
        report = small_report()
        write_report_json(report, target)
        assert os.listdir(tmp_path) == ["report.json"]
        assert report_from_json(target.read_text()) == report

    def test_overwrite_replaces_content(self, tmp_path):
        target = tmp_path / "report.json"
        write_report_json(small_report(), target)
        write_report_json(small_report(log_Z=9.0), target)
        assert report_from_json(target.read_text()).log_Z == 9.0

    def test_trace_csv_rows_align_with_steps(self, tmp_path):
        target = tmp_path / "trace.csv"
        write_trace_csv(small_report(), target)
        lines = target.read_text().splitlines()
        assert lines[0] == "step,beta,ess,acceptance"
        assert lines[1] == "1,0.5,12.0,0.9"
        assert len(lines) == 3
