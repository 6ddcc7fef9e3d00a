import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import logistic_evidence_quadrature, make_logistic_csv
from qanneal import cli
from qanneal.cli import main, run
from qanneal.io import (
    ConfigError, RunConfig, load_binary_regression_csv, report_from_json, report_to_json,
)
from qanneal.samplers import ais_forward

IDENTICAL = {"mu0": 0.0, "var0": 1.0, "mu1": 0.0, "var1": 1.0}


def toy_config(**overrides):
    fields = {
        "command": "anneal-toy",
        "particles": 32,
        "K": 4,
        "moves": 1,
        "seed": 1,
        "extras": dict(IDENTICAL),
    }
    fields.update(overrides)
    return RunConfig(**fields)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    make_logistic_csv(path, n_rows=40, n_features=2, seed=0)
    model = load_binary_regression_csv(path)
    truth = logistic_evidence_quadrature(model)
    return str(path), truth


class TestValidation:
    def test_every_violation_listed(self):
        config = RunConfig(
            command="smc",
            path_kind="qpath",
            q=None,
            particles=0,
            K=0,
            moves=-1,
            dataset=None,
        )
        with pytest.raises(ConfigError) as err:
            run(config)
        fields = [message.split(":")[0] for message in err.value.errors]
        assert set(fields) == {"q", "particles", "K", "moves", "dataset"}

    def test_q_rejected_off_the_qpath(self):
        with pytest.raises(ConfigError, match="only meaningful"):
            run(toy_config(path_kind="geometric", q=0.5))

    def test_escort_requires_nu(self):
        with pytest.raises(ConfigError, match="nu"):
            run(toy_config(path_kind="escort"))

    def test_nu_rejected_outside_escort(self):
        with pytest.raises(ConfigError, match="nu"):
            run(toy_config(path_kind="moment", extras={**IDENTICAL, "nu": 3.0}))

    def test_adaptive_schedule_rejected_for_ais(self):
        with pytest.raises(ConfigError, match="schedule"):
            run(toy_config(command="ais", schedule="adaptive"))

    def test_dataset_rejected_for_toy_commands(self):
        with pytest.raises(ConfigError, match="dataset"):
            run(toy_config(dataset="anything.csv"))

    def test_missing_dataset_file_is_a_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            run(RunConfig(command="smc", dataset="no/such/file.csv"))

    def test_grid_q_rejects_explicit_q(self):
        with pytest.raises(ConfigError, match="grid-q"):
            run(toy_config(command="grid-q", path_kind="qpath", q=0.9))

    @pytest.mark.parametrize(
        "argv",
        [
            ["bdmc", "--mu0", "nan"],
            ["bdmc", "--var0", "inf"],
            ["bdmc", "--target-log-scale", "inf"],
            ["ais", "--mu1", "inf"],
            ["ais", "--var1", "nan"],
            ["anneal-toy", "--path-kind", "escort", "--nu", "inf"],
            ["anneal-toy", "--nu", "nan"],
            ["heuristic-q", "--log10-sd", "inf"],
            # -inf also fails a lower bound; "--flag=-inf", since argparse reads "-inf" as a flag
            ["bdmc", "--var0=-inf"],
            ["heuristic-q", "--log10-sd=-inf"],
            ["anneal-toy", "--path-kind", "escort", "--nu=-inf"],
        ],
    )
    def test_non_finite_toy_value_is_one_config_error(self, argv, capsys):
        flag = argv[-1].split("=")[0] if "=" in argv[-1] else argv[-2]
        key = flag.lstrip("-").replace("-", "_")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {key}: must be finite\n"

    @pytest.mark.parametrize(
        "overrides,message",
        [
            pytest.param({"command": "grid-q", "path_kind": "moment"},
                         "path_kind: grid-q does not read it; leave it at 'qpath'",
                         id="grid-q-unread-path_kind"),
            ({"path_kind": "qpath", "q": math.inf}, "q: must be finite"),
            ({"command": "smc", "path_kind": "moment", "extras": {}},
             "path_kind: moment and escort need closed-form endpoint moments; "
             "smc supports geometric and qpath"),
            ({"extras": {**IDENTICAL, "var0": 0.0}}, "var0: must be positive"),
            ({"extras": {**IDENTICAL, "var1": -1.0}}, "var1: must be positive"),
            # heuristic-q does not read K, so these keep it at RunConfig's default
            ({"command": "heuristic-q", "K": 16, "extras": {"restarts": 0}},
             "restarts: need at least one restart"),
            ({"command": "heuristic-q", "K": 16, "extras": {"ess_target_fraction": 1.5}},
             "ess_target_fraction: must lie in (0, 1]"),
            ({"command": "heuristic-q", "K": 16, "extras": {"log10_sd": 0.0}},
             "log10_sd: must be positive"),
            ({"command": "grid-q", "path_kind": "qpath", "extras": {"grid_count": 0}},
             "grid_count: need at least one grid point"),
            ({"extras": {**IDENTICAL, "adapt_steps": -1}}, "adapt_steps: must be nonnegative"),
        ],
    )
    def test_each_violation_is_one_message(self, overrides, message, dataset):
        if overrides.get("command") == "smc":
            overrides = {**overrides, "dataset": dataset[0]}
        with pytest.raises(ConfigError) as err:
            run(toy_config(**overrides))
        assert err.value.errors == [message]

    @pytest.mark.parametrize("command", ["anneal-toy", "smc"])
    def test_k_rejected_under_the_adaptive_schedule(self, command, dataset):
        # only the linear schedule reads K, so K=0 gets this message and not its bound's
        data = {"dataset": dataset[0], "extras": {}} if command == "smc" else {}
        for K in (3, 500, 0):
            with pytest.raises(ConfigError) as err:
                run(toy_config(command=command, schedule="adaptive", K=K, **data))
            assert err.value.errors == ["K: the adaptive schedule does not read it; leave it at 16"]

    def test_heuristic_q_rejects_a_trace_csv(self, tmp_path):
        trace = tmp_path / "h.csv"
        with pytest.raises(ConfigError) as err:
            run(RunConfig(command="heuristic-q", extras={"trace_csv": str(trace)}))
        assert err.value.errors == ["trace_csv: heuristic-q has no per-step trace"]
        assert not trace.exists()

    @pytest.mark.parametrize(
        "config, messages",
        [
            (RunConfig(command="heuristic-q", extras={"grid_count": 5}),
             ["grid_count: heuristic-q does not read it"]),
            (RunConfig(command="heuristic-q", extras={"mu7": 1.0}), ["mu7: unknown setting"]),
            (RunConfig(command="heuristic-q",
                       extras={"grid_count": 5, "mu7": 1.0, "adapt_steps": 3, "K": 3}),
             ["grid_count: heuristic-q does not read it", "mu7: unknown setting",
              "adapt_steps: heuristic-q does not read it", "K: unknown setting"]),
            (RunConfig(command="heuristic-q", K=0),
             ["K: heuristic-q does not read it; leave it at 16"]),
            (RunConfig(command="heuristic-q", path_kind="escort"),
             ["path_kind: heuristic-q does not read it; leave it at 'geometric'"]),
            (RunConfig(command="heuristic-q", K=7, moves=3),
             ["K: heuristic-q does not read it; leave it at 16",
              "moves: heuristic-q does not read it; leave it at 1"]),
            (RunConfig(command="heuristic-q", schedule="adaptive"),
             ["schedule: heuristic-q does not read it; leave it at 'linear'"]),
            (RunConfig(command="grid-q"),
             ["path_kind: grid-q does not read it; leave it at 'qpath'"]),
        ],
    )
    def test_unread_settings_are_rejected(self, config, messages):
        # a field the command's row does not list must keep the command's
        # default, and an extra it does not list must be left out; K is a
        # RunConfig field, so no command reads it from the extras
        with pytest.raises(ConfigError) as err:
            run(config)
        assert err.value.errors == messages

    @pytest.mark.parametrize(
        "config, messages",
        [
            (RunConfig(command="ais", K="3"), ["K: must be an integer"]),
            (RunConfig(command="ais", particles="8"), ["particles: must be an integer"]),
            (RunConfig(command="anneal-toy", particles="8"), ["particles: must be an integer"]),
            (RunConfig(command="ais", extras={"mu0": "1"}), ["mu0: must be a real number"]),
            (RunConfig(command="ais", path_kind="qpath", q="0.5"), ["q: must be a real number"]),
            (RunConfig(command="ais", path_kind="escort", extras={"nu": "3"}),
             ["nu: must be a real number"]),
            (RunConfig(command="ais", K=True), ["K: must be an integer"]),
            (RunConfig(command="ais", extras={"var0": False}), ["var0: must be a real number"]),
            (RunConfig(command="ais", seed=1.0), ["seed: must be an integer"]),
            (RunConfig(command="ais", output=5), ["output: must be a string"]),
            (RunConfig(command="smc", dataset=5.0), ["dataset: must be a string"]),
            (RunConfig(command="ais", extras={"trace_csv": 3}), ["trace_csv: must be a string"]),
            # a float equal to the integer default is no integer either
            (RunConfig(command="ais", particles=64.0), ["particles: must be an integer"]),
            (RunConfig(command="ais", K=16.0), ["K: must be an integer"]),
            (RunConfig(command="anneal-toy", moves=1.0), ["moves: must be an integer"]),
            (RunConfig(command="ais", seed=0.0), ["seed: must be an integer"]),
        ],
    )
    def test_wrongly_typed_setting_is_one_config_error(self, config, messages):
        # the type check runs ahead of every bound and rule that compares
        with pytest.raises(ConfigError) as err:
            run(config)
        assert err.value.errors == messages

    def test_numpy_scalars_are_settings(self):
        got = run(RunConfig(command="ais", K=np.int64(3), particles=np.int32(8),
                            extras={"mu0": np.float64(-3.5), "var0": 3}))
        want = run(RunConfig(command="ais", K=3, particles=8, extras={"mu0": -3.5, "var0": 3.0}))
        assert got.log_Z == want.log_Z and list(got.beta_trace) == list(want.beta_trace)

    def test_unknown_names_rejected(self):
        config = RunConfig(command="warp", path_kind="spline", schedule="cubic")
        with pytest.raises(ConfigError) as err:
            run(config)
        assert len(err.value.errors) == 3


class TestToyRuns:
    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("geometric", {}),
            ("qpath", {}),
            ("moment", {}),
            ("escort", {"nu": 3.0}),
        ],
    )
    def test_identical_endpoints_give_exact_zero(self, capsys, kind, extra):
        q = 0.3 if kind == "qpath" else None
        config = toy_config(path_kind=kind, q=q, extras={**IDENTICAL, **extra})
        report = run(config)
        assert report.log_Z == 0.0
        assert "log_Z=0 " in capsys.readouterr().out

    def test_scaled_target_recovered(self, capsys):
        config = toy_config(
            schedule="adaptive",
            particles=256,
            K=16,
            moves=2,
            seed=5,
            extras={"target_log_scale": 1.5},
        )
        report = run(config)
        assert abs(report.log_Z - 1.5) < 0.4
        assert report.extras["true_log_Z"] == 1.5

    def test_ais_traces_align(self, capsys):
        config = toy_config(command="ais", K=6, particles=20, seed=2, extras={})
        report = run(config)
        assert math.isfinite(report.log_Z)
        assert len(report.beta_trace) == 6
        assert len(report.ess_trace) == 6
        assert len(report.acceptance_trace) == 6
        assert report.beta_trace[-1] == 1.0
        assert report.config_echo == config

    def test_bdmc_reports_both_bounds(self, capsys):
        config = toy_config(command="bdmc", K=6, particles=24, seed=3, extras={})
        report = run(config)
        gap = report.extras["bdmc_gap"]
        assert gap == pytest.approx(report.extras["upper_bound"] - report.log_Z, abs=1e-12)

    @pytest.mark.parametrize("command", ["ais", "bdmc"])
    def test_stderr_is_the_delta_method_se_of_the_weights(self, capsys, monkeypatch, command):
        """n / ESS - 1 = var(w) / mean(w)^2 for the final weights w, so the
        reported SE is CV(w) / sqrt(n), with the population variance."""
        forward = []

        def capture(*args, **kwargs):
            forward.append(ais_forward(*args, **kwargs))
            return forward[-1]

        monkeypatch.setattr(cli, "ais_forward", capture)
        report = run(RunConfig(command=command, particles=64, K=8, seed=2))
        # bdmc's one sweep holds both directions; its first block is the forward's
        log_w = forward[0].blocks()[0].per_chain_log_w
        w = np.exp(log_w - log_w.max())
        assert w.size == 64
        se = w.std() / (w.mean() * math.sqrt(w.size))
        assert report.stderr_estimate == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_moment_path_run_is_finite(self, capsys):
        config = toy_config(path_kind="moment", particles=64, K=6, seed=4, extras={})
        report = run(config)
        assert math.isfinite(report.log_Z)

    @pytest.mark.parametrize("argv", [["--path-kind", "moment"], ["--path-kind", "escort", "--nu", "3"]])
    def test_bdmc_runs_on_the_moment_family(self, capsys, argv):
        assert main(["bdmc", *argv, "--k", "4", "--chains", "8"]) == 0
        assert "gap=" in capsys.readouterr().out

    def test_heuristic_outputs_selection(self, capsys, tmp_path):
        out = tmp_path / "h.json"
        config = RunConfig(
            command="heuristic-q",
            particles=200,
            seed=5,
            output=str(out),
            extras={"restarts": 10},
        )
        report = run(config)
        assert math.isnan(report.log_Z)
        assert set(report.extras) >= {"q", "beta1", "loss", "feasible", "loss_evals"}
        assert report.extras["q"] < 1.0
        # each restart's start, then 2 x (2 + 40) golden-section points per sweep
        assert (report.extras["loss_evals"] - 10) % 84 == 0
        assert report.extras["loss_evals"] >= 10 + 84 * 10
        text = out.read_text()
        assert '"log_Z": "nan"' in text
        assert report_from_json(text) == report


class TestDeterminismAndFiles:
    def test_same_seed_same_report(self, capsys):
        config = toy_config(
            particles=64, K=5, seed=9, extras={"target_log_scale": 0.7}
        )
        first = run(config)
        second = run(config)
        assert replace(first, wallclock_s=0.0) == replace(second, wallclock_s=0.0)

    def test_written_report_round_trips(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        config = toy_config(particles=48, K=4, seed=6, output=str(out))
        report = run(config)
        assert report_from_json(out.read_text()) == report

    def test_json_bytes_identical_except_wallclock(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        config = toy_config(
            particles=48, K=4, seed=6, output=str(out),
            extras={"target_log_scale": 0.2},
        )
        texts = []
        for _ in range(2):
            run(config)
            parsed = json.loads(out.read_text())
            parsed["wallclock_s"] = 0.0
            texts.append(json.dumps(parsed))
        assert texts[0] == texts[1]

    def test_trace_csv_written(self, capsys, tmp_path):
        csv_path = tmp_path / "trace.csv"
        config = toy_config(
            particles=32, K=3, seed=2, extras={**IDENTICAL, "trace_csv": str(csv_path)}
        )
        run(config)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,beta,ess,acceptance"
        assert len(lines) == 4


class TestGridQ:
    def test_sweep_reports_best_q(self, capsys, tmp_path):
        out = tmp_path / "grid.json"
        config = RunConfig(
            command="grid-q",
            path_kind="qpath",
            particles=16,
            K=4,
            seed=2,
            output=str(out),
            extras={"grid_count": 5},
        )
        report = run(config)
        qs = report.extras["qs"]
        assert len(qs) == 5
        assert np.all(np.diff(qs) < 0.0)
        delta = 1.0 - report.extras["best_q"]
        assert 1e-5 <= delta <= 1e-1
        assert report.extras["best_gap"] == min(report.extras["bdmc_gaps"])
        assert report.extras["negative_gaps"] == sum(g < 0.0 for g in report.extras["bdmc_gaps"])

        per_q = sorted(p for p in tmp_path.iterdir() if p.name != "grid.json")
        assert len(per_q) == 5
        sub = report_from_json(per_q[0].read_text())
        assert sub.config_echo.command == "bdmc"
        assert sub.config_echo.q == qs[0]

    @pytest.mark.parametrize("grid_count", [1, 5])
    @pytest.mark.parametrize("adapt", [None, 0])
    @pytest.mark.parametrize("sweep_chains", [None, 48])
    def test_every_order_is_its_standalone_bdmc(
        self, capsys, tmp_path, monkeypatch, grid_count, adapt, sweep_chains
    ):
        """The batched sweep gives each order exactly the report a bdmc run
        of that order gives on its own at the same seed, wallclock aside,
        also when the orders split across sweeps (48 chains, both directions
        counted: two per sweep)."""
        if sweep_chains is not None:
            monkeypatch.setattr(cli, "_GRID_SWEEP_CHAINS", sweep_chains)
        extras = {"grid_count": grid_count, "target_log_scale": 3.0}
        if adapt is not None:
            extras["adapt_steps"] = adapt
        out = tmp_path / "grid.json"
        config = RunConfig(command="grid-q", path_kind="qpath", particles=12, K=4,
                           moves=2, seed=9, output=str(out), extras=extras)
        report = run(config)
        per_q = sorted(p for p in tmp_path.iterdir() if p.name != "grid.json")
        assert len(per_q) == grid_count
        for q, sub_path in zip(report.extras["qs"], per_q):
            sub = report_from_json(sub_path.read_text())
            # the echo is a bdmc config of this order, free of grid-q's own settings
            echo = sub.config_echo
            assert (echo.command, echo.q) == ("bdmc", q)
            assert "grid_count" not in echo.extras
            alone = run(echo).to_dict()
            sub = sub.to_dict()
            # every per-q report carries the whole sweep's wallclock
            assert sub.pop("wallclock_s") <= report.wallclock_s
            alone.pop("wallclock_s")
            assert json.dumps(sub) == json.dumps(alone)

    def test_summary_line_names_best_q(self, capsys):
        config = RunConfig(
            command="grid-q", path_kind="qpath", particles=12, K=3, seed=4,
            extras={"grid_count": 3},
        )
        run(config)
        assert "best_q=" in capsys.readouterr().out


class TestSmcCommand:
    def test_matches_quadrature_within_half_nat(self, capsys, dataset):
        path, truth = dataset
        config = RunConfig(
            command="smc", dataset=path, particles=256,
            schedule="adaptive", moves=2, seed=11,
        )
        report = run(config)
        assert abs(report.log_Z - truth) < 0.5

    def test_deterministic_given_seed(self, capsys, dataset):
        path, _ = dataset
        config = RunConfig(
            command="smc", dataset=path, particles=64, K=6, moves=1, seed=3
        )
        assert run(config).log_Z == run(config).log_Z


class TestEndpoints:
    def test_every_built_density_evaluates_a_batch_as_float_arrays(self, dataset):
        # a path's batch takes value_and_grad's pair as returned
        scaled = {**IDENTICAL, "mu1": 2.0, "target_log_scale": 1.5}
        densities = [*cli._endpoints(toy_config(extras=scaled))]
        densities += cli._endpoints(toy_config(command="smc", dataset=dataset[0], extras={}))
        for kind, extra in (("moment", {}), ("escort", {"nu": 3.0})):
            path = cli._path(toy_config(path_kind=kind, extras={**scaled, **extra}))
            densities += [path.base, path.target, path._build_waypoint(0.3)]
        for density in densities:
            z = np.linspace(-1.0, 1.0, 5 * density.dim).reshape(5, density.dim)
            lp, g = density.value_and_grad(z)
            assert isinstance(lp, np.ndarray) and lp.dtype == np.float64 and lp.shape == (5,)
            assert isinstance(g, np.ndarray) and g.dtype == np.float64 and g.shape == z.shape

    def test_config_strings_read_back_as_strings(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["heuristic-q", "--restarts", "2", "--output", "inf"]) == 0
        text = (tmp_path / "inf").read_text()
        echo = report_from_json(text).config_echo
        assert type(echo.output) is str and echo.output == "inf"
        assert report_to_json(report_from_json(text)) == text


class TestMainExitCodes:
    def test_success_returns_zero(self, capsys):
        code = main(
            ["anneal-toy", "--mu0", "0", "--var0", "1", "--mu1", "0", "--var1", "1",
             "--particles", "16", "--k", "3", "--seed", "1"]
        )
        assert code == 0
        assert "anneal-toy: log_Z=0" in capsys.readouterr().out

    def test_config_error_returns_two(self, capsys):
        code = main(["smc", "--particles", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: dataset" in err
        assert "config error: particles" in err

    @pytest.mark.parametrize(
        "command, flag, key",
        [
            ("heuristic-q", "--output", "output"),
            ("anneal-toy", "--trace-csv", "trace_csv"),
            ("grid-q", "--output", "output"),
        ],
    )
    def test_missing_output_directory_is_a_config_error(
        self, capsys, tmp_path, command, flag, key
    ):
        requested = tmp_path / "missing" / "dir" / "h.json"
        code = main([command, "--particles", "8", flag, str(requested)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: directory does not exist: {requested}" in err
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_runtime_failure_returns_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\n1,oops\n")
        code = main(["smc", "--dataset", str(bad)])
        assert code == 3
        assert "runtime failure" in capsys.readouterr().err

    def test_module_entry_point(self):
        # the child imports the package under test, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "qanneal.cli", "anneal-toy", "--mu0", "0",
             "--var0", "1", "--mu1", "0", "--var1", "1", "--particles", "16",
             "--k", "3"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "log_Z=0" in proc.stdout


class TestCommandLine:
    @pytest.mark.parametrize(
        "command, flag",
        [("heuristic-q", flag) for flag in (
            "--k", "--moves", "--schedule", "--adapt-steps", "--path-kind", "--q", "--nu",
            "--trace-csv",
        )]
        + [("grid-q", flag) for flag in ("--schedule", "--path-kind", "--q", "--nu")]
        + [("ais", "--schedule"), ("bdmc", "--schedule")]
        + [(command, "--ground-truth") for command in cli.COMMANDS],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, capsys, command, flag):
        values = {"--k": ["2"], "--moves": ["1"], "--schedule": ["linear"], "--adapt-steps": ["0"],
                  "--path-kind": ["qpath"], "--q": ["0.5"], "--nu": ["3"], "--trace-csv": ["t.csv"]}
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, *values.get(flag, [])])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["anneal-toy", "smc", "ais", "bdmc", "heuristic-q", "grid-q"])
    def test_unset_flags_keep_the_run_config_defaults(self, command):
        own = {"smc": {"particles": 256}, "heuristic-q": {"particles": 256},
               "grid-q": {"path_kind": "qpath"}}
        config = cli._config_from_args(cli._build_parser().parse_args([command]))
        assert config == RunConfig(command=command, **own.get(command, {}))

    def test_readme_command_lines_parse(self, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = readme.replace("\\\n", " ").splitlines()
        argvs = [shlex.split(line)[1:] for line in lines if line.startswith("qanneal ")]
        assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
        # validation checks that a dataset exists, so the examples' data.csv does
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("x,y\n0.5,1\n")
        parser = cli._build_parser()
        for argv in argvs:
            assert cli._validate(cli._config_from_args(parser.parse_args(argv))) == [], argv
