import contextlib
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hotspotsim import analysis, cli, solver
from hotspotsim import grid as grid_module
from hotspotsim.grid import GridSpec, ScalarField, read_field, write_field
from hotspotsim.model import ModelParams


def write_config(path, **overrides):
    doc = {
        "model": {
            "kind": "main",
            "eta": 0.1,
            "psi": 0.0046667,
            "omega": 84.0,
            "atilde": 0.7,
            "chi": 2.0,
        },
        "grid": {"L": 1.0, "n": 32},
        "time": {"t_end": 0.03, "dt_init": 1e-3, "dt_min": 1e-9, "output_every": 0.01},
        "ic": {"recipe": "perturbed_steady", "amplitude": 0.01},
        "outputs": {"dir": str(Path(path).parent / "out")},
    }
    for key, val in overrides.items():
        sec, _, name = key.partition(".")
        if name:
            doc.setdefault(sec, {})[name] = val
        else:
            doc[sec] = val
    Path(path).write_text(json.dumps(doc))
    return doc


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert cli.main(["steady", "--psi", "0.01"]) == 1

    def test_bad_float_exits_1(self, capsys):
        assert cli.main(["steady", "--psi", "abc", "--atilde", "0.7"]) == 1


class TestSteady:
    def test_prints_fixed_point(self, capsys):
        rc = cli.main(["steady", "--psi", "0.0046667", "--atilde", "0.7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "A* = 0.700978" in out
        assert "N* = 1" in out

    def test_rejects_nonpositive(self, capsys):
        assert cli.main(["steady", "--psi", "-1", "--atilde", "0.7"]) == 1

    @pytest.mark.parametrize("psi, error, lines", [
        ("1e308", "error: steady-state residual nan", 1),
        # usage plus the flag's error; it was "error: steady-state residual
        # nan exceeds 1.000e-12" from steady_state
        ("inf", "hotspot steady: error: argument --psi: must be a finite number", 2),
    ], ids=["1e308", "inf"])
    def test_no_finite_fixed_point_is_one_error_line(self, capsys, psi, error, lines):
        assert cli.main(["steady", "--psi", psi, "--atilde", "0.7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1, captured.err
        assert errors[0].startswith(error)
        assert captured.err.count("\n") == lines

    def test_no_finite_fixed_point_under_optimize(self):
        # an assert would vanish under -O and print A* = nan with exit 0
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "hotspotsim.cli", "steady",
             "--psi", "1e308", "--atilde", "0.7"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: steady-state residual nan")


class TestCheck:
    BASE = [
        "check",
        "--eta", "0.1", "--psi", "0.0046667", "--chi", "2",
        "--atilde", "0.7", "--n1max", "1", "--L", "1",
    ]

    def test_holding_case(self, capsys):
        rc = cli.main(self.BASE + ["--amin", "0.7", "--amax", "1.0"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["holds"] is True
        assert doc["epsilon0"] == pytest.approx(0.1924500897, rel=1e-9)

    def test_failing_case_exits_2(self, capsys):
        rc = cli.main(self.BASE + ["--amin", "0.5", "--amax", "1.0"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert doc["any_route_holds"] is False

    def test_degenerate_bounds_hold(self, capsys):
        rc = cli.main(self.BASE + ["--amin", "1.0", "--amax", "1.0"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["lhs"] == 0.0

    def test_alternate_route(self, capsys):
        rc = cli.main([
            "check",
            "--eta", "0.1", "--psi", "0.0046667", "--chi", "0.8",
            "--atilde", "0.9", "--amin", "0.5", "--amax", "1.0",
            "--n1max", "1e9", "--L", "1",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["route"] == "theorem_1_3"

    def test_amin_above_amax_rejected(self, capsys):
        rc = cli.main(self.BASE + ["--amin", "1.5", "--amax", "1.0"])
        assert rc == 1

    def test_mu_without_K_rejected(self, capsys):
        rc = cli.main(self.BASE + ["--amin", "0.7", "--amax", "1.0", "--mu", "1.2"])
        assert rc == 1


def _flags(command: str, values: dict) -> list:
    return [command] + [tok for flag, v in values.items() for tok in (f"--{flag}", v)]


CHECK_FLAGS = {"eta": "0.1", "psi": "0.0046667", "chi": "2", "atilde": "0.7",
               "amin": "0.7", "amax": "1.0", "n1max": "1", "L": "1"}
TABLE_FLAGS = {"psi": "0.0046667", "area": "1", "eta-list": "0.1"}
STEADY_FLAGS = {"psi": "0.0046667", "atilde": "0.7"}
_PRIVATE_NAME = re.compile(r"\b_[A-Za-z]")  # a name such as _finite_flag


class TestNumericFlags:
    """Every float flag of check, table and steady takes a finite float, and
    what the commands compute from accepted flags never ends in a traceback
    or in a number that is not JSON."""

    @staticmethod
    def assert_one_error_line(capsys, argv):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1, captured.err
        return errors[0]

    @pytest.mark.parametrize("argv", [
        # a ZeroDivisionError traceback
        _flags("check", {**CHECK_FLAGS, "mu": "0", "K": "1"}),
        # an OverflowError traceback
        _flags("check", {**CHECK_FLAGS, "psi": "1e308", "chi": "1e308"}),
        # a traceback: a max_mode the grid cannot resolve
        ["verify", "--max-mode", "20", "--n", "32", "--samples", "1"],
        # exit 0, printing Infinity, which is not JSON
        _flags("check", {**CHECK_FLAGS, "eta": "inf"}),
        # exit 0, printing 0.1,nan
        _flags("table", {**TABLE_FLAGS, "psi": "nan"}),
        # exit 0, printing gamma = inf
        _flags("table", {**TABLE_FLAGS, "psi": "1e-320"}),
        # exit 0, printing a row of nan or of inf
        _flags("table", {**TABLE_FLAGS, "eta-list": "0.1,nan"}),
        _flags("table", {**TABLE_FLAGS, "eta-list": "1e400"}),
        # exit 0 with "no counterexample found", having sampled nothing
        ["verify", "--n", "32", "--samples", "0"],
        ["verify", "--n", "32", "--samples", "-1"],
    ], ids=["check-mu-0", "check-overflow", "verify-max-mode", "check-eta-inf",
            "table-psi-nan", "table-gamma-overflow", "table-eta-nan", "table-eta-inf",
            "verify-samples-0", "verify-samples-negative"])
    def test_edge_ends_as_one_error_line(self, capsys, argv):
        self.assert_one_error_line(capsys, argv)

    @pytest.mark.parametrize("command, flag", [
        *[("check", f) for f in [*CHECK_FLAGS, "mu", "K"]],
        ("table", "psi"), ("table", "area"),
        ("verify", "samples"), ("verify", "amplitude"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_flag_is_rejected(self, capsys, command, flag, value):
        # "abc" was "invalid _finite_flag value: 'abc'" and "--samples nan"
        # "invalid _positive_int value: 'nan'", naming private functions
        flags = {"check": {**CHECK_FLAGS, "mu": "1.2", "K": "12"},
                 "table": TABLE_FLAGS, "verify": {"n": "32"}}[command]
        line = self.assert_one_error_line(capsys, _flags(command, {**flags, flag: value}))
        assert f"--{flag}" in line
        assert not _PRIVATE_NAME.search(line), line

    @pytest.mark.parametrize("flag", sorted(STEADY_FLAGS))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_steady_flag_is_one_error_line(self, capsys, flag, value):
        # the flag is named; --psi inf was "error: steady-state residual nan
        # exceeds 1.000e-12" from steady_state
        line = self.assert_one_error_line(capsys, _flags("steady", {**STEADY_FLAGS, flag: value}))
        assert f"--{flag}" in line


class TestTable:
    def test_reference_table(self, capsys):
        rc = cli.main([
            "table", "--psi", "0.0046667", "--area", "1",
            "--eta-list", "0.01,0.05,0.1,0.2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# gamma = 10.309")
        assert lines[1] == "eta,atilde_minus"
        vals = [float(line.split(",")[1]) for line in lines[2:]]
        for got, want in zip(vals, (0.91, 0.73, 0.61, 0.49)):
            assert got == pytest.approx(want, abs=5e-3)

    def test_rejects_negative_eta(self, capsys):
        assert cli.main(["table", "--psi", "0.01", "--area", "1", "--eta-list", "-1"]) == 1

    def test_gamma_denominator_that_underflows_is_the_overflow_error(self, capsys):
        # a ZeroDivisionError traceback: 12 sqrt(3) area psi underflowed to 0
        rc = cli.main(["table", "--psi", "1e-320", "--area", "1e-9", "--eta-list", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: gamma overflows a double at psi=")
        assert captured.err.count("\n") == 1


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        rc = cli.main(["verify", "--n", "64", "--samples", "5", "--seed", "3",
                       "--max-mode", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no counterexample found" in out
        assert "verified" not in out

    def test_rejects_coarse_grid(self, capsys):
        assert cli.main(["verify", "--n", "16", "--samples", "1"]) == 1

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "x"])
    def test_amplitude_must_be_finite_and_positive(self, capsys, value):
        # -1 and nan were a ValueError and an OverflowError traceback
        rc = cli.main(["verify", "--n", "32", "--samples", "1", "--amplitude", value])
        assert rc == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "--amplitude" in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("amplitude, error", [
        # exit 0 and "no counterexample found" with worst ratio_K 0, the NaN
        # ratio inf/inf dropped by max(), after a numpy RuntimeWarning
        ("1e100", "error: sample 0: a probe is not finite at --amplitude 1e+100"),
        # OverflowError tracebacks from a float power in interpolation_probe
        ("1e154", "error: sample 0: a probe is not finite at --amplitude 1e+154"),
        ("1e200", "error: sample 0: a probe is not finite at --amplitude 1e+200"),
        # an OverflowError traceback from rng.uniform in sample_cosine_field
        ("9e307", "error: sample 0: a probe is not finite at --amplitude 9e+307"),
        # exit 0 and "no counterexample found" with every sample skipped
        ("1e-300", "error: every sampled field was constant, so no probe ran"),
    ], ids=["1e100", "1e154", "1e200", "9e307", "1e-300"])
    def test_probe_that_is_not_finite_is_one_error_line(self, capsys, amplitude, error):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["verify", "--n", "32", "--samples", "2", "--max-mode", "2",
                           "--amplitude", amplitude])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines() == [error]
        assert "worst" not in captured.out
        assert [str(w.message) for w in caught] == []

    def test_stdout_of_a_finite_sweep_is_unchanged(self, capsys):
        assert cli.main(["verify", "--n", "32", "--samples", "2", "--max-mode", "2",
                         "--amplitude", "1"]) == 0
        # the same bytes as before a probe was checked for finiteness
        assert capsys.readouterr().out.splitlines() == [
            "sample 1: shift raised to keep the field positive",
            "samples: 2 (skipped 0)",
            "worst ratio_l1: 0.243779771306 (bound 1.22474487139)",
            "worst ratio_K: 0.078265434914 (bound 12)",
            "worst fourier_gap (relative): 1.695e-16",
            "worst sobolev_slack: 4.863e+01 (must be >= -1e-10)",
            "no counterexample found at sampled fields",
        ]


class TestSimulate:
    def test_complete_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        rc = cli.main(["simulate", str(cfg)])
        assert rc == 0
        out_dir = tmp_path / "out"
        csv_lines = (out_dir / "diagnostics.csv").read_text().splitlines()
        assert csv_lines[0] == "t,mass_N,minA,maxA,minN,grad_A_l2sq,phi,y_entropy,mass_residual,r1,r2,r3,r4,flags"
        assert len(csv_lines) == 1 + 4  # t = 0, 0.01, 0.02, 0.03
        outcome = json.loads((out_dir / "outcome.json").read_text())
        assert outcome["outcome"] == "completed"
        field = read_field(out_dir / "A_0.010000.field")
        assert field.grid == GridSpec(1.0, 32)
        pgm = (out_dir / "A_0.010000.pgm").read_bytes()
        assert pgm.startswith(b"P5\n32 32\n255\n")
        assert len(pgm) == len(b"P5\n32 32\n255\n") + 32 * 32
        sidecar = json.loads((out_dir / "A_0.010000.pgm.json").read_text())
        assert sidecar["min"] <= sidecar["max"]

    def test_env_var_overrides_output_dir(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("HOTSPOT_OUT", str(override))
        assert cli.main(["simulate", str(cfg)]) == 0
        assert (override / "diagnostics.csv").exists()
        assert not (tmp_path / "out").exists()

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        assert cli.main(["simulate", str(cfg)]) == 0
        first = (tmp_path / "out" / "diagnostics.csv").read_bytes()
        assert cli.main(["simulate", str(cfg)]) == 0
        second = (tmp_path / "out" / "diagnostics.csv").read_bytes()
        assert first == second

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        doc["model"]["extra"] = 1.0
        cfg.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        doc["misc"] = {}
        cfg.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(cfg)]) == 1

    def test_negative_atilde_rejected_with_positivity_message(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"model.atilde": -1.0})
        assert cli.main(["simulate", str(cfg)]) == 1
        assert "strictly positive" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert cli.main(["simulate", str(tmp_path / "nope.json")]) == 1

    def test_snapshots_can_be_disabled(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"outputs.snapshots": False})
        assert cli.main(["simulate", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "diagnostics.csv").exists()
        assert not list(out_dir.glob("*.field"))

    def test_short_model_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(
            cfg,
            model={"kind": "short", "eta": 0.05, "a0": 0.2, "abar": 0.8, "chi": 1.0},
        )
        assert cli.main(["simulate", str(cfg)]) == 0


class TestSimulateInputErrors:
    @pytest.mark.parametrize("key", ["snapshots", "diagnostics"])
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_bool_output_switch_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{f"outputs.{key}": value})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"outputs.{key}" in err
        assert not (tmp_path / "out").exists()

    def test_missing_ic_file_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, ic={
            "recipe": "file",
            "path_A": str(tmp_path / "missing_A.field"),
            "path_N": str(tmp_path / "missing_N.field"),
        })
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "missing_A.field" in err

    def test_perturbed_steady_without_a_finite_fixed_point_is_an_error(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"model.psi": 1e308})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: cannot build the initial condition: steady-state residual nan"
        )
        assert err.count("\n") == 1

    def test_amplitude_that_makes_A_nonpositive_is_an_error(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        real = solver.build_initial

        def spy(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(solver, "build_initial", spy)
        cfg = tmp_path / "run.json"
        write_config(cfg, ic={"recipe": "perturbed_steady", "amplitude": 2.0})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "positive" in err
        assert len(calls) == 1  # run() builds the initial condition


class TestConfigValueTypes:
    @pytest.mark.parametrize("value", ["x", "1", {}, [], True],
                             ids=["string", "numeric-string", "object", "list", "bool"])
    @pytest.mark.parametrize("key, ic", [
        ("amplitude", {"recipe": "perturbed_steady"}),
        ("a0", {"recipe": "constants", "a0": 0.8, "n0": 1.5}),
        ("n0", {"recipe": "constants", "a0": 0.8, "n0": 1.5}),
    ])
    def test_non_number_ic_value_rejected(self, tmp_path, capsys, key, ic, value):
        cfg = tmp_path / "run.json"
        write_config(cfg, ic={**ic, key: value})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:")
        assert f"ic.{key}" in err
        assert not (tmp_path / "out").exists()

    # no small integer or boolean for the IC paths: open(n) would read, and
    # then close, this process's file descriptor n
    @pytest.mark.parametrize("key, value", [
        *[(key, value)
          for key in ("outputs.dir", "ic.path_A", "ic.path_N")
          for value in (10 ** 6, 1.5, [], {})],
        ("outputs.dir", 5), ("outputs.dir", True), ("outputs.dir", None),
    ])
    def test_non_string_path_rejected(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.delenv("HOTSPOT_OUT", raising=False)
        cfg = tmp_path / "run.json"
        field = tmp_path / "u.field"
        write_field(field, ScalarField(GridSpec(1.0, 32), np.ones((32, 32))))
        ic = {"recipe": "file", "path_A": str(field), "path_N": str(field)}
        write_config(cfg, ic=ic, **{key: value})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:")
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_number_and_string_values_accepted(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HOTSPOT_OUT", raising=False)
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"ic.amplitude": 0, "outputs.dir": "elsewhere"})
        config, out_opts = cli.load_config(cfg)
        assert config.ic.amplitude == 0.0
        assert out_opts["dir"] == "elsewhere"


class TestInitialConditionModes:
    @pytest.mark.parametrize("key", ["mode_j", "mode_k"])
    @pytest.mark.parametrize("value", [16, 17, -3, 1.7, 2.0, "2", True, None],
                             ids=["n", "past-n", "negative", "fraction",
                                  "float", "string", "bool", "null"])
    def test_unresolvable_or_non_integer_mode_rejected(
        self, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, "ic.amplitude": 0.05, f"ic.{key}": value})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"ic.{key}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("j, k", [(0, 15), (15, 0), (3, 2)])
    def test_resolvable_modes_accepted(self, tmp_path, capsys, j, k):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, "ic.amplitude": 0.05,
                             "ic.mode_j": j, "ic.mode_k": k})
        config, _ = cli.load_config(cfg)
        assert (config.ic.mode_j, config.ic.mode_k) == (j, k)


class TestGridSize:
    @pytest.mark.parametrize("value", [16.7, 16.0, "16", True, None],
                             ids=["fraction", "float", "string", "bool", "null"])
    def test_non_integer_n_rejected(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": value})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "grid.n" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_grid_too_large_to_allocate_exits_1(self, tmp_path, capsys, monkeypatch):
        # stands in for numpy's allocation failure at a huge n, without
        # attempting one
        def no_memory(grid, j, k, amplitude):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(solver, "cosine_mode", no_memory)
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: cannot build the initial condition: "
            "Unable to allocate 74.5 GiB for an array"
        ]
        assert not (tmp_path / "out").exists()

    def test_allocation_failure_after_the_initial_condition_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        # numpy's allocation failure once the initial fields exist: the
        # workspace of a grid too large for the memory left
        def no_memory(self, grid):
            raise MemoryError("Unable to allocate 2.00 GiB for an array")

        monkeypatch.setattr(grid_module._Workspace, "__init__", no_memory)
        grid_module._workspace.cache_clear()
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: Unable to allocate 2.00 GiB for an array"
        ]
        assert not (tmp_path / "out").exists()


def _snapshot_files(out_dir):
    return sorted(p.name for p in out_dir.iterdir() if p.name.startswith(("A_", "N_")))


class TestSnapshotEmission:
    def test_files_match_a_serial_reference(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        assert cli.main(["simulate", str(cfg)]) == 0
        config, _ = cli.load_config(cfg)
        result = solver.run(config)
        ref = tmp_path / "ref"
        ref.mkdir()
        for t, A, N in result.snapshots:
            for name, field in (("A", A), ("N", N)):
                stem = f"{name}_{t:.6f}"
                write_field(ref / f"{stem}.field", field)
                cli._write_pgm(ref / f"{stem}.pgm", field)
        out_dir = tmp_path / "out"
        names = _snapshot_files(out_dir)
        assert names == _snapshot_files(ref)
        assert len(names) == 4 * 2 * 3  # 4 outputs, A and N, three files each
        for name in names:
            assert (out_dir / name).read_bytes() == (ref / name).read_bytes(), name

    def test_snapshots_are_written_in_this_process(self, tmp_path, capsys, monkeypatch):
        pids = []
        real = cli.write_field

        def recording(path, field):
            pids.append(os.getpid())
            real(path, field)

        monkeypatch.setattr(cli, "write_field", recording)
        cfg = tmp_path / "run.json"
        write_config(cfg)
        assert cli.main(["simulate", str(cfg)]) == 0
        assert pids == [os.getpid()] * (4 * 2)  # 4 outputs, A and N

    def test_sub_microsecond_outputs_keep_every_snapshot(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, time={
            "t_end": 1e-6, "dt_init": 1e-7, "dt_min": 1e-9, "output_every": 1e-7,
        })
        assert cli.main(["simulate", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        rows = (out_dir / "diagnostics.csv").read_text().splitlines()[1:]
        a_files = sorted(out_dir.glob("A_*.field"))
        assert len(rows) == 11
        assert len(a_files) == 11
        assert a_files[1].name == "A_0.0000001.field"
        assert len(list(out_dir.glob("*.pgm.json"))) == 22

    def test_rerun_removes_snapshots_of_the_earlier_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        out_dir = tmp_path / "out"
        write_config(cfg)  # outputs every 0.01 up to 0.03
        assert cli.main(["simulate", str(cfg)]) == 0
        assert (out_dir / "A_0.010000.field").exists()
        kept = ["notes.txt", "A_0.01.field", "A_final.field", "B_0.010000.field",
                "A_0.010000.field.bak", "N_0.010000.pgm.txt"]
        for name in kept:
            (out_dir / name).write_text("not a snapshot of this program\n")
        write_config(cfg, **{"time.output_every": 0.015})
        assert cli.main(["simulate", str(cfg)]) == 0
        rows = (out_dir / "diagnostics.csv").read_text().splitlines()[1:]
        tags = [f"{float(row.split(',')[0]):.6f}" for row in rows]
        assert tags == ["0.000000", "0.015000", "0.030000"]
        expected = sorted(f"{name}_{tag}{ext}" for tag in tags for name in "AN"
                          for ext in (".field", ".pgm", ".pgm.json"))
        assert _snapshot_files(out_dir) == sorted(expected + kept[1:3] + kept[4:])
        for name in kept:
            assert (out_dir / name).read_text() == "not a snapshot of this program\n"

    @pytest.mark.parametrize("times, tags", [
        ([0.0, 0.01, 0.02], ["0.000000", "0.010000", "0.020000"]),
        ([0.0, 1e-7, 2e-7], ["0.0000000", "0.0000001", "0.0000002"]),
        ([1.0, 1.0 + 3e-9], ["1.000000000", "1.000000003"]),
    ])
    def test_snapshot_tags(self, times, tags):
        assert cli._snapshot_tags(times) == tags


def _pgm_levels(path, n) -> np.ndarray:
    """The n x n grey levels of a PGM, indexed [x, y] like the field."""
    data = Path(path).read_bytes()
    header = f"P5\n{n} {n}\n255\n".encode()
    assert data.startswith(header)
    return np.frombuffer(data[len(header):], dtype=np.uint8).reshape(n, n).T


def _reference_levels(v: np.ndarray) -> np.ndarray:
    """The quantisation of the first PGM writer, for ranges where 255 times
    the range is finite."""
    lo, hi = float(np.min(v)), float(np.max(v))
    if hi > lo:
        return np.rint(255.0 * (v - lo) / (hi - lo)).astype(np.uint8)
    return np.zeros_like(v, dtype=np.uint8)


class TestPgmScaling:
    @pytest.mark.parametrize("lo, hi, levels", [
        (1.0, 1e308, [0, 255]),
        (-1e308, 1e308, [0, 255]),
        (-np.finfo(float).max, np.finfo(float).max, [0, 255]),
        (0.0, 1e306, [0, 255]),
    ])
    def test_a_range_past_the_double_range_maps_to_the_full_scale(
        self, tmp_path, lo, hi, levels
    ):
        grid = GridSpec(1.0, 16)
        v = np.full((16, 16), lo)
        v[3, 5] = hi
        path = tmp_path / "A.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli._write_pgm(path, ScalarField(grid, v))
        got = _pgm_levels(path, 16)
        assert got[3, 5] == levels[1]
        assert np.count_nonzero(got == levels[0]) == 16 * 16 - 1
        assert json.loads(Path(f"{path}.json").read_text()) == {
            "levels": 255, "max": hi, "min": lo}

    def test_a_huge_range_keeps_its_middle_level(self, tmp_path):
        grid = GridSpec(1.0, 16)
        v = np.zeros((16, 16))
        v[0, 0], v[1, 1] = -1e308, 1e308
        cli._write_pgm(tmp_path / "A.pgm", ScalarField(grid, v))
        got = _pgm_levels(tmp_path / "A.pgm", 16)
        assert (got[0, 0], got[1, 1], got[2, 2]) == (0, 255, 128)

    @given(
        n=st.integers(8, 16),
        seed=st.integers(0, 2 ** 32 - 1),
        center=st.floats(-1e300, 1e300),
        log_span=st.floats(-300, float(np.log10(np.finfo(float).max / 255))),
    )
    @example(n=8, seed=0, center=0.0, log_span=float(np.log10(np.finfo(float).max / 255)))
    @example(n=8, seed=1, center=1.0, log_span=-400.0)
    @settings(max_examples=60, deadline=None)
    def test_levels_are_those_of_the_first_writer_where_255_times_the_range_is_finite(
        self, n, seed, center, log_span
    ):
        v = center + 10.0 ** log_span * np.random.default_rng(seed).uniform(-0.5, 0.5, (n, n))
        assume(np.all(np.isfinite(v)) and math.isfinite(255.0 * (v.max() - v.min())))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "A.pgm"
            cli._write_pgm(path, ScalarField(GridSpec(1.0, n), v))
            assert np.array_equal(_pgm_levels(path, n), _reference_levels(v))


def _count_step_calls(monkeypatch) -> dict:
    """Count the calls of solver.step through the module that return and
    that raise, as the benchmark counts the returning ones
    (perfbench/child.py) for its cell-steps per second."""
    counts = {"accepted": 0, "rejected": 0}
    real = solver.step

    def counting(*args, **kwargs):
        try:
            new = real(*args, **kwargs)
        except Exception:
            counts["rejected"] += 1
            raise
        counts["accepted"] += 1
        return new

    monkeypatch.setattr(solver, "step", counting)
    return counts


class TestStepCounts:
    def test_outcome_reports_accepted_and_rejected_steps(
        self, tmp_path, capsys, monkeypatch
    ):
        counts = _count_step_calls(monkeypatch)
        cfg = tmp_path / "run.json"
        write_config(
            cfg,
            model={"kind": "short", "eta": 0.05, "a0": 0.2, "abar": 0.8, "chi": 4.0},
            grid={"L": 1.0, "n": 16},
            time={"t_end": 2.0, "dt_init": 5e-4, "dt_min": 1e-9, "output_every": 0.16},
            ic={"recipe": "perturbed_steady", "amplitude": 0.5,
                "mode_j": 2, "mode_k": 1},
            **{"outputs.snapshots": False},
        )
        assert cli.main(["simulate", str(cfg)]) == 3
        first = (tmp_path / "out" / "outcome.json").read_bytes()
        doc = json.loads(first)
        assert doc["outcome"] == "blowup_suspected"
        assert counts["rejected"] > 0
        assert doc["steps_accepted"] == counts["accepted"]
        assert doc["steps_rejected"] == counts["rejected"]
        assert cli.main(["simulate", str(cfg)]) == 3
        assert (tmp_path / "out" / "outcome.json").read_bytes() == first

    def test_main_model_run_steps_once_per_accepted_step(
        self, tmp_path, capsys, monkeypatch
    ):
        counts = _count_step_calls(monkeypatch)
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, "outputs.snapshots": False})
        assert cli.main(["simulate", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "outcome.json").read_text())
        assert doc["steps_accepted"] == counts["accepted"] > 0
        assert doc["steps_rejected"] == counts["rejected"]


class TestEmissionErrors:
    def test_output_dir_that_is_a_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        blocker = tmp_path / "out"
        blocker.write_text("not a directory\n")
        write_config(cfg)
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {blocker}: ")
        assert "Traceback" not in err

    def test_write_failure_of_a_snapshot_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        target = tmp_path / "out" / "A_0.010000.field"
        target.mkdir(parents=True)  # a directory where a snapshot file goes
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: ")
        assert "Traceback" not in err

    def test_disk_full_while_writing_a_heatmap(self, tmp_path, capsys, monkeypatch):
        def full(path, field):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(cli, "_write_pgm", full)
        cfg = tmp_path / "run.json"
        write_config(cfg)
        assert cli.main(["simulate", str(cfg)]) == 1
        target = tmp_path / "out" / "A_0.000000.pgm"
        assert capsys.readouterr().err == (
            f"error: {target}: {os.strerror(errno.ENOSPC)}\n"
        )


class TestNumericsValidation:
    @pytest.mark.parametrize("key, value", [
        ("time.dt_max", 0),
        ("time.dt_max", -1e-3),
        ("numerics.guard_tol", -1),
        ("numerics.guard_tol", 0),
    ])
    def test_nonpositive_setting_is_a_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{key: value})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert key.split(".")[1] in err
        assert not (tmp_path / "out").exists()

    def test_dt_max_below_dt_min_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"time.dt_min": 1e-4, "time.dt_max": 1e-5})
        assert cli.main(["simulate", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: invalid config: dt_max must be at least dt_min, got 1e-05 < 0.0001"
        ]
        assert not (tmp_path / "out").exists()


_MAIN_NUMBERS = [
    "model.eta", "model.psi", "model.omega", "model.atilde", "model.chi", "grid.L",
    "time.t_end", "time.dt_init", "time.dt_min", "time.dt_max", "time.output_every",
    "numerics.cfl", "numerics.guard_tol",
]
_SHORT_MODEL = {"kind": "short", "eta": 0.05, "a0": 0.2, "abar": 0.8, "chi": 1.0}


class TestNumericKeysAreJsonNumbers:
    """Every numeric key of model, grid, time and numerics must be a JSON
    number: a string such as "inf" or "1" is rejected by name."""

    @staticmethod
    def assert_one_error_line(capsys, tmp_path, *parts):
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:")
        for part in parts:
            assert part in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1", "inf", True, []],
                             ids=["numeric-string", "inf-string", "bool", "list"])
    @pytest.mark.parametrize("key", _MAIN_NUMBERS + ["model.a0", "model.abar"])
    def test_non_number_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        overrides = {"grid.n": 16, key: value}
        if key in ("model.a0", "model.abar"):
            overrides = {"model": {**_SHORT_MODEL, key[6:]: value}, "grid.n": 16}
        write_config(cfg, **overrides)
        assert cli.main(["simulate", str(cfg)]) == 1
        self.assert_one_error_line(capsys, tmp_path, key, "JSON number")

    @pytest.mark.parametrize("key, value", [
        ("model.eta", 1e308),  # an OverflowError in analysis.choose_c
        ("grid.L", 1e-320),  # an area that underflows to 0
        ("grid.L", 1e200),  # an area that overflows to inf
    ])
    def test_number_the_model_cannot_use_is_a_config_error(
        self, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, key: value})
        assert cli.main(["simulate", str(cfg)]) == 1
        self.assert_one_error_line(capsys, tmp_path, key.partition(".")[2])

    def test_static_attractiveness_whose_entropy_weight_overflows(self, tmp_path, capsys):
        # a_max ** 4 in the weight of the first output's entropy raised
        # OverflowError, a traceback
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, "model.atilde": 1e300})
        assert cli.main(["simulate", str(cfg)]) == 1
        self.assert_one_error_line(capsys, tmp_path, "sigma overflows at a_max=1e+300")

    def test_largest_chi_still_ends_in_an_outcome(self, tmp_path, capsys):
        # a velocity built with 2 chi overflowed here, and the step size
        # went to 0 (a ValueError traceback)
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, "model.chi": 1e308, "outputs.snapshots": False})
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["simulate", str(cfg)]) == 3
        assert json.loads((tmp_path / "out" / "outcome.json").read_text())["outcome"] == (
            "blowup_suspected"
        )

    def test_missing_required_number_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        del doc["model"]["psi"]
        cfg.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(cfg)]) == 1
        self.assert_one_error_line(capsys, tmp_path, "model.psi")

    def test_null_dt_max_means_no_cap(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"time.dt_max": None})
        config, _ = cli.load_config(cfg)
        assert config.dt_max is None


class TestEveryKeyIsChecked:
    """Each key of a section is checked against its kind, whether or not the
    config's model kind, recipe or scheme reads it."""

    @pytest.mark.parametrize("model, key", [
        ({}, "model.a0"),
        ({}, "model.abar"),
        (_SHORT_MODEL, "model.psi"),
        (_SHORT_MODEL, "model.omega"),
    ])
    def test_other_model_kinds_key_is_type_checked(self, tmp_path, capsys, model, key):
        cfg = tmp_path / "run.json"
        overrides = {"grid.n": 16, key: "x"}
        if model:
            overrides["model"] = {**model, key[6:]: "x"}
        write_config(cfg, **overrides)
        assert cli.main(["simulate", str(cfg)]) == 1
        TestNumericKeysAreJsonNumbers.assert_one_error_line(
            capsys, tmp_path, key, "JSON number"
        )

    def test_missing_grid_size_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        del doc["grid"]["n"]
        cfg.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(cfg)]) == 1
        TestNumericKeysAreJsonNumbers.assert_one_error_line(
            capsys, tmp_path, "missing required key grid.n"
        )

    @pytest.mark.parametrize("value", [5, None, ["main"], True])
    @pytest.mark.parametrize("key", ["model.kind", "ic.recipe", "numerics.flux_scheme"])
    def test_non_string_choice_is_named(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, key: value})
        assert cli.main(["simulate", str(cfg)]) == 1
        TestNumericKeysAreJsonNumbers.assert_one_error_line(
            capsys, tmp_path, key, "JSON string"
        )

    def test_absent_keys_take_their_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HOTSPOT_OUT", raising=False)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model": {"eta": 0.1, "psi": 0.0046667, "omega": 84, "atilde": 0.7},
            "grid": {"L": 1, "n": 16},
            "time": {"t_end": 0.5},
        }))
        config, out_opts = cli.load_config(cfg)
        assert config.params == ModelParams(
            eta=0.1, psi=0.0046667, omega=84.0, atilde=0.7, chi=2.0
        )
        assert config.grid == GridSpec(L=1.0, n=16)
        assert (config.dt_init, config.dt_min, config.dt_max) == (1e-3, 1e-9, None)
        assert config.output_every == 0.05
        assert config.ic == solver.InitialCondition(
            recipe="perturbed_steady", amplitude=0.0
        )
        assert (config.cfl_advection, config.flux_scheme, config.guard_tol) == (
            0.5, "centered", 1e-6
        )
        assert out_opts == {"dir": "out", "snapshots": True, "diagnostics": True}
        assert all(type(v) is float for v in (config.grid.L, config.params.omega))


class TestNonFiniteConfigValues:
    @pytest.mark.parametrize("key, value, literal", [
        # min(NaN, output_every) is NaN, and halving a NaN step never took
        # it below dt_min: the run did not end
        ("time.dt_init", float("nan"), "NaN"),
        # a run to t = Infinity writes outputs until memory runs out
        ("time.t_end", float("inf"), "Infinity"),
    ])
    def test_exits_1_without_hanging(self, tmp_path, key, value, literal):
        # a subprocess with a timeout keeps a regression from hanging the suite
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, key: value})
        src = str(Path(cli.__file__).resolve().parent.parent)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hotspotsim.cli", "simulate", str(cfg)],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"simulate with {key} {literal} did not end within 60 s")
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert literal in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal", ["1e400", "9" * 401, "9" * 5000],
                             ids=["1e400", "401-digit", "5000-digit"])
    def test_number_no_double_holds_exits_1_without_hanging(self, tmp_path, literal):
        # json read 1e400 as inf, and a run to t = inf did not end; a
        # 401-digit integer overflowed float(), a 5000-digit one int()
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, "time.t_end": "T_END"})
        cfg.write_text(cfg.read_text().replace('"T_END"', literal))
        src = str(Path(cli.__file__).resolve().parent.parent)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hotspotsim.cli", "simulate", str(cfg)],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"simulate with t_end {literal[:10]} did not end within 60 s")
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "not a finite number" in lines[0]
        assert len(lines[0]) < 200
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal", ["-1e400", "1.5e309", "-" + "9" * 401])
    @pytest.mark.parametrize("key", ["model.psi", "grid.L", "ic.amplitude"])
    def test_number_no_double_holds_is_a_config_error(
        self, tmp_path, capsys, key, literal
    ):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{key: "VALUE"})
        cfg.write_text(cfg.read_text().replace('"VALUE"', literal))
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:")
        assert "not a finite number" in err
        assert not (tmp_path / "out").exists()

    def test_integers_a_double_holds_are_accepted(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"model.omega": 84, "ic.amplitude": "VALUE"})
        cfg.write_text(cfg.read_text().replace('"VALUE"', str(10 ** 300)))
        config, _ = cli.load_config(cfg)
        assert config.params.omega == 84.0
        assert config.ic.amplitude == float(10 ** 300)

    # in this process, so none of the keys whose non-finite values could
    # hang a run if the check regressed (t_end, dt_init, dt_min); the test
    # above runs two of them in a subprocess
    @pytest.mark.parametrize("value, literal", [
        (float("nan"), "NaN"), (float("inf"), "Infinity"), (-float("inf"), "-Infinity"),
    ])
    @pytest.mark.parametrize("key", [
        "model.eta", "grid.L", "time.output_every", "ic.amplitude", "numerics.cfl",
    ])
    def test_non_finite_literal_is_a_config_error(
        self, tmp_path, capsys, key, value, literal
    ):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{key: value})
        assert literal in cfg.read_text()
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error:")
        assert literal in err
        assert not (tmp_path / "out").exists()


class TestMalformedFieldFile:
    GOOD_ROW = " ".join(["1.0"] * 32) + "\n"

    @pytest.mark.parametrize("text, part", [
        ("hotspotfield v1 L=1.0\n" + GOOD_ROW * 32, "n="),
        ("hotspotfield v1 n=32\n" + GOOD_ROW * 32, "L="),
        ("hotspotfield v1 L=1.0 n=thirty-two\n" + GOOD_ROW * 32, "n="),
        ("hotspotfield v1 L=1.0 n=32\n" + GOOD_ROW, "1 of 32 rows"),
        ("hotspotfield v1 L=1.0 n=32\n" + GOOD_ROW * 5 + "1.0 2.0\n", "row 6"),
        ("hotspotfield v1 L=1.0 n=32\n" + GOOD_ROW + "x" + GOOD_ROW * 31, "row 2"),
    ], ids=["no-n", "no-L", "bad-n", "cut-off", "short-row", "bad-value"])
    def test_exits_1_naming_the_file(self, tmp_path, capsys, text, part):
        bad = tmp_path / "bad_A.field"
        bad.write_text(text)
        good = tmp_path / "good_N.field"
        write_field(good, ScalarField(GridSpec(1.0, 32), np.ones((32, 32))))
        cfg = tmp_path / "run.json"
        write_config(cfg, ic={"recipe": "file", "path_A": str(bad), "path_N": str(good)})
        assert cli.main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(bad) in err
        assert part in err


    def test_byte_that_is_not_utf8_names_the_file_and_row(self, tmp_path, capsys):
        bad = tmp_path / "bad_A.field"
        write_field(bad, ScalarField(GridSpec(1.0, 32), np.ones((32, 32))))
        lines = bad.read_bytes().split(b"\n")
        lines[6] = lines[6][:4] + b"\xff" + lines[6][4:]  # row 6, after the header
        bad.write_bytes(b"\n".join(lines))
        good = tmp_path / "good_N.field"
        write_field(good, ScalarField(GridSpec(1.0, 32), np.ones((32, 32))))
        cfg = tmp_path / "run.json"
        write_config(cfg, ic={"recipe": "file", "path_A": str(bad), "path_N": str(good)})
        assert cli.main(["simulate", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot build the initial condition: {bad}: row 6: "
            "byte 0xff is not UTF-8"
        ]


class TestNegativeDensityAtAnOutput:
    def test_entropy_of_a_negative_density_ends_the_run_failed(self, tmp_path, capsys):
        # N may dip to -guard_tol between guards, but the Boltzmann entropy of
        # the output row needs N >= 0: the run ends failed, not in a traceback
        grid = GridSpec(1.0, 32)
        x, _ = grid.cell_coords()
        write_field(tmp_path / "A0.field",
                    ScalarField(grid, 1.0 + 2.0 * np.exp(-(x - 0.4) ** 2 / 0.002)))
        write_field(tmp_path / "N0.field",
                    ScalarField(grid, np.where(x < 0.45, 1.0, 0.0)))
        cfg = tmp_path / "run.json"
        write_config(
            cfg,
            model={"kind": "main", "eta": 0.05, "psi": 0.01, "omega": 0.001,
                   "atilde": 1.0, "chi": 4.0},
            time={"t_end": 3e-5, "dt_init": 1e-5, "dt_max": 1e-5,
                  "output_every": 1e-5},
            ic={"recipe": "file", "path_A": str(tmp_path / "A0.field"),
                "path_N": str(tmp_path / "N0.field")},
            numerics={"guard_tol": 0.01},
        )
        assert cli.main(["simulate", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "outcome: failed" in captured.out
        assert "entropy integrand undefined: density reached" in captured.err
        out = tmp_path / "out"
        doc = json.loads((out / "outcome.json").read_text())
        assert doc["outcome"] == "failed"
        assert doc["reason"].startswith("entropy integrand undefined")
        assert (out / "diagnostics.csv").read_text().count("\n") >= 2


@pytest.mark.parametrize("n, L, chi, mode, reason", [
    # the velocity overflows to inf
    (64, 1.0, 1e308, (3, 2), "chemotactic velocity is not finite"),
    # the velocity is finite, but h / velocity underflows to 0
    (16, 1e-14, 9e293, (1, 1), "CFL step underflows to 0 at chemotactic velocity 1.32584e+308"),
])
def test_a_velocity_that_leaves_no_step_ends_the_run_failed_at_t0(
    tmp_path, capsys, n, L, chi, mode, reason
):
    """A chemotactic velocity so large that the CFL step is 0 ends the run
    failed at its first output, with outcome.json and that output's
    diagnostics row written and no numpy warning."""
    doc = _short_compliant_run()
    doc["grid"].update(n=n, L=L)
    doc["model"]["chi"] = chi
    doc["ic"].update(amplitude=0.3, mode_j=mode[0], mode_k=mode[1])
    doc["outputs"]["dir"] = str(tmp_path / "out")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["simulate", str(cfg)])
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert captured.out == "outcome: failed at t=0\n"
    assert captured.err == f"reason: {reason}\n"
    out = tmp_path / "out"
    doc = json.loads((out / "outcome.json").read_text())
    assert (doc["outcome"], doc["t_final"], doc["reason"]) == ("failed", 0.0, reason)
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0")


@pytest.mark.parametrize("snapshots", [True, False])
def test_simulate_calls_each_phase_once_through_its_module(
    tmp_path, capsys, monkeypatch, snapshots
):
    """The benchmark times a simulate's phases by wrapping these four module
    attributes (perfbench/child.py), so each must be called once, through
    the module: a change to the run loop that bypasses one fails here."""
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((cli, "load_config"), (solver, "build_initial"),
                        (solver, "run"), (cli, "_emit_outputs")):
        counted(owner, name)
    cfg = tmp_path / "run.json"
    write_config(cfg, **{"grid.n": 16, "outputs.snapshots": snapshots})
    assert cli.main(["simulate", str(cfg)]) == 0
    assert calls == ["load_config", "run", "build_initial", "_emit_outputs"]


def test_simulate_calls_adapt_dt_and_the_guard_through_the_module(
    tmp_path, capsys, monkeypatch
):
    """The benchmark's traced mode times the step size choice and the
    guards by wrapping solver.adapt_dt and solver._guard (perfbench/child.py),
    so on a run without halving each must be called through the module once
    per accepted step: a change that bypasses one fails here."""
    calls = {"adapt_dt": 0, "_guard": 0}

    def counted(name):
        real = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)

    for name in calls:
        counted(name)
    cfg = tmp_path / "run.json"
    write_config(cfg, **{"grid.n": 16, "outputs.snapshots": False})
    assert cli.main(["simulate", str(cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "outcome.json").read_text())
    assert doc["steps_rejected"] == 0
    assert doc["steps_accepted"] > 0
    assert calls == {"adapt_dt": doc["steps_accepted"], "_guard": doc["steps_accepted"]}


def test_simulate_reaches_the_traced_layers_through_their_modules(
    tmp_path, capsys, monkeypatch
):
    """The benchmark's traced mode also wraps the IC reader, the DCT pair
    (through a stand-in for grid._fft), the snapshot writers and the output
    record where their callers look them up (perfbench/child.py); a rename
    or a bypass there reads as a zero per-layer metric, and fails here."""
    grid = GridSpec(1.0, 16)
    x, y = grid.cell_coords()
    write_field(tmp_path / "A0.field", ScalarField(grid, 0.8 + 0.01 * np.cos(np.pi * x)))
    write_field(tmp_path / "N0.field", ScalarField(grid, 1.0 + 0.01 * np.cos(np.pi * y)))
    calls = dict.fromkeys(["read_field", "_helmholtz", "dctn", "idctn", "write_field",
                           "_write_pgm", "diagnostics_record"], 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    fft = grid_module._fft
    monkeypatch.setattr(grid_module, "_fft", SimpleNamespace(dctn=fft.dctn, idctn=fft.idctn))
    for owner, name in ((solver, "read_field"), (solver, "_helmholtz"),
                        (grid_module._fft, "dctn"), (grid_module._fft, "idctn"),
                        (cli, "write_field"), (cli, "_write_pgm"),
                        (analysis, "diagnostics_record")):
        counted(owner, name)
    cfg = tmp_path / "run.json"
    write_config(cfg, **{"grid.n": 16, "time.t_end": 0.02, "ic": {
        "recipe": "file", "path_A": str(tmp_path / "A0.field"),
        "path_N": str(tmp_path / "N0.field")}})
    assert cli.main(["simulate", str(cfg)]) == 0
    out = tmp_path / "out"
    doc = json.loads((out / "outcome.json").read_text())
    outputs = (out / "diagnostics.csv").read_text().count("\n") - 1
    assert doc["steps_rejected"] == 0
    assert doc["steps_accepted"] > 0
    assert outputs == 3
    steps = doc["steps_accepted"]
    assert calls == {"read_field": 2, "_helmholtz": steps, "dctn": steps, "idctn": steps,
                     "write_field": 2 * outputs, "_write_pgm": 2 * outputs,
                     "diagnostics_record": outputs}


def _short_compliant_run() -> dict:
    """configs/compliant.json cut to a run of about 7 ms: n=16, two outputs
    and no snapshots."""
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "compliant.json")
                     .read_text())
    doc["grid"]["n"] = 16
    doc["time"].update(t_end=0.02, output_every=0.01)
    doc["outputs"]["snapshots"] = False
    return doc


_DELETE = object()
# every value kind json writes, the edges of each and a few strings that
# name a choice; no grid larger than n=64, so no example allocates much
_LEAF_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.integers(-3, 64),
    st.just(10 ** 400), st.floats(), st.text(max_size=6),
    st.sampled_from(["1", "inf", "short", "constants", "file", "upwind"]),
    st.sampled_from([[], {}, [1.0], {"n": 1}]),
)


def _valid_long_run(section: str, key: str, value) -> bool:
    """A value that makes a valid config run long, which is not a defect:
    t_end past 1, or dt_max, output_every or cfl below 1e-4."""
    if type(value) not in (int, float):
        return False
    if (section, key) == ("time", "t_end"):
        return value > 1
    return (section, key) in (("time", "dt_max"), ("time", "output_every"),
                              ("numerics", "cfl")) and 0 < value < 1e-4


def _set_leaf(body: dict, key: str, value) -> None:
    if value is _DELETE:
        body.pop(key, None)
    else:
        body[key] = value


def _simulate_mutated(doc: dict, numpy_errors: dict) -> tuple[list, list]:
    """Run simulate on `doc` under np.errstate(**numpy_errors) and check that
    it never raises: it returns 0-3, a return of 1 says why in one error:
    line or as a failed outcome, and a run that began stepping or ended
    failed writes outcome.json.  Returns stderr's lines and the warnings
    issued."""
    began = []
    real = solver.step

    def spy(*args):
        began.append(True)
        return real(*args)

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps(doc))
        outputs = Path(tmp) / "out"
        with (mock.patch.dict(os.environ, {"HOTSPOT_OUT": str(outputs)}),
              mock.patch.object(solver, "step", spy),
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              np.errstate(**numpy_errors)):
            code = cli.main(["simulate", str(cfg)])
        assert code in (0, 1, 2, 3)
        if began:
            assert (outputs / "outcome.json").is_file()
        lines = err.getvalue().splitlines()
        if code == 1 and "outcome: failed" in out.getvalue():
            # a run may fail before its first step (a velocity not finite)
            assert (outputs / "outcome.json").is_file()
            assert len(lines) == 1 and lines[0].startswith("reason:"), lines
        elif code == 1:
            assert not began
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert not outputs.exists()
    return lines, caught


@given(leaf=st.sampled_from([(sec, key) for sec, body in _short_compliant_run().items()
                             for key in body]),
       value=_LEAF_VALUES)
@settings(max_examples=300, deadline=None)
def test_one_leaf_mutation_ends_in_a_documented_outcome(leaf, value):
    section, key = leaf
    assume(not _valid_long_run(section, key, value))
    doc = _short_compliant_run()
    _set_leaf(doc[section], key, value)
    _simulate_mutated(doc, {"all": "ignore"})


@given(model_key=st.sampled_from(sorted(_short_compliant_run()["model"])),
       model_value=_LEAF_VALUES,
       ic_key=st.sampled_from(sorted(_short_compliant_run()["ic"])),
       ic_value=_LEAF_VALUES)
# a velocity that overflows, which the random draws alone rarely reach
@example(model_key="chi", model_value=1e308, ic_key="amplitude", ic_value=0.3)
@settings(max_examples=300, deadline=None)
def test_a_model_and_an_ic_leaf_mutated_together_end_in_a_documented_outcome(
    model_key, model_value, ic_key, ic_value
):
    """As the one-leaf test, under numpy's default error handling: stderr
    holds only error: and reason: lines, and no warning is issued."""
    doc = _short_compliant_run()
    _set_leaf(doc["model"], model_key, model_value)
    _set_leaf(doc["ic"], ic_key, ic_value)
    lines, caught = _simulate_mutated(doc, {})
    assert all(line.startswith(("error:", "reason:")) for line in lines), lines
    assert [str(w.message) for w in caught] == []


# flag tokens of every class: finite, not finite, tiny, huge, negative and
# not a number
_NUMBER_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "-0", "0.5", "1", "2", "12", "-1", "-1e308", "1e-9", "1e-300",
                     "1e-320", "5e-324", "1e100", "1e154", "1e200", "9e307", "1e308",
                     "1e400", "nan", "inf", "-inf"]),
    st.sampled_from(["", "x", "0x10", "1,2"]),
)


def _int_tokens(high: int):
    return st.one_of(st.integers(-3, high).map(str), st.sampled_from(["", "x", "1.5", "1e3"]))


# command -> flag -> (tokens, whether a draw may leave the flag out); verify
# stays at n <= 64 and at most 2 samples, so every draw is quick
_COMMAND_FLAGS = {
    "check": {**{flag: (_NUMBER_TOKENS, False) for flag in CHECK_FLAGS},
              "L": (_NUMBER_TOKENS, True), "mu": (_NUMBER_TOKENS, True),
              "K": (_NUMBER_TOKENS, True)},
    "table": {"psi": (_NUMBER_TOKENS, False), "area": (_NUMBER_TOKENS, False),
              "eta-list": (st.lists(_NUMBER_TOKENS, min_size=1, max_size=3).map(",".join),
                           False)},
    "verify": {"n": (_int_tokens(64), True), "samples": (_int_tokens(2), False),
               "seed": (st.one_of(_int_tokens(10 ** 6), st.just(str(2 ** 70))), True),
               "max-mode": (_int_tokens(40), True), "amplitude": (_NUMBER_TOKENS, True)},
    "steady": {"psi": (_NUMBER_TOKENS, False), "atilde": (_NUMBER_TOKENS, False)},
}


@st.composite
def _command_argv(draw) -> list:
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    for flag, (tokens, optional) in _COMMAND_FLAGS[command].items():
        if not (optional and draw(st.booleans())):
            argv += [f"--{flag}", draw(tokens)]
    return argv


def _not_json(literal: str):
    raise AssertionError(f"check printed {literal}, which is not JSON")


@given(argv=_command_argv())
@example(argv=["table", "--psi", "1e-320", "--area", "1e-9", "--eta-list", "1"])
@example(argv=["steady", "--psi", "inf", "--atilde", "0.5"])
@example(argv=["verify", "--n", "32", "--samples", "2", "--max-mode", "2",
               "--amplitude", "1e100"])
@example(argv=["verify", "--n", "32", "--samples", "2", "--max-mode", "2",
               "--amplitude", "1e154"])
@example(argv=["verify", "--n", "32", "--samples", "2", "--max-mode", "2",
               "--amplitude", "1e200"])
@example(argv=["verify", "--n", "32", "--samples", "2", "--max-mode", "2",
               "--amplitude", "9e307"])
@example(argv=["verify", "--n", "32", "--samples", "2", "--max-mode", "2",
               "--amplitude", "1e-300"])
@settings(max_examples=300, deadline=None)
def test_every_flag_of_every_command_ends_in_a_documented_outcome(argv):
    """Under numpy's default error handling, a command given any flag values
    exits 0, 1 or 2 and issues no warning; stderr holds nothing or, with
    exit 1, argparse's usage lines and one error: line; a check that exits
    0 or 2 prints JSON, and a verify that exits 0 prints only finite worst
    values."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          np.errstate(divide="warn", over="warn", invalid="warn", under="ignore")):
        warnings.simplefilter("always")
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    if code != 1:
        assert lines == []
    else:
        *usage, error = lines
        assert "error:" in error and not any("error:" in line for line in usage), lines
        assert all(line.startswith(" ") for line in usage[1:]), lines
        assert usage == [] or usage[0].startswith("usage:"), lines
    if code != 1 and argv[0] == "check":
        json.loads(out.getvalue(), parse_constant=_not_json)
    if code == 0 and argv[0] == "verify":
        worst = [line.split(": ")[1].split()[0] for line in out.getvalue().splitlines()
                 if line.startswith("worst ")]
        assert len(worst) == 4
        assert all(math.isfinite(float(value)) for value in worst), out.getvalue()


def test_one_exception_root():
    """The package defines two exception classes: HotspotError, the root of
    every failure it names, and StepRejected, the one a smaller step may
    cure; neither is a ValueError."""
    import importlib
    import pkgutil

    import hotspotsim

    defined = set()
    for info in pkgutil.iter_modules(hotspotsim.__path__, "hotspotsim."):
        module = importlib.import_module(info.name)
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert defined == {hotspotsim.HotspotError, solver.StepRejected}
    for exc in defined:
        assert issubclass(exc, hotspotsim.HotspotError)
        assert not issubclass(exc, ValueError)


_FRESH_CLI = """
import json
import sys
from hotspotsim import cli
watched = ("scipy", "orjson", "multiprocessing", "concurrent.futures")
seen = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    seen.append([argv[0], code, [name for name in watched if name in sys.modules]])
print(json.dumps(seen))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    """Importing scipy.fft costs about 0.3 s of every process start; the
    DCT comes from its extension, loaded without importing scipy.  orjson
    (about 10 ms) is imported only to read an initial-condition file of
    n >= 128 or to write a snapshot, and no command starts a process pool."""
    cfg = tmp_path / "run.json"
    write_config(cfg, **{"grid.n": 16, "time.t_end": 0.01})
    (tmp_path / "off").mkdir()
    cfg_off = tmp_path / "off" / "run.json"
    write_config(cfg_off, **{"grid.n": 16, "time.t_end": 0.01,
                             "outputs.snapshots": False})
    commands = [
        TestCheck.BASE + ["--amin", "0.7", "--amax", "1.0"],
        ["table", "--psi", "0.0046667", "--area", "1", "--eta-list", "0.1"],
        ["verify", "--n", "32", "--samples", "1", "--max-mode", "3"],
        ["steady", "--psi", "0.0046667", "--atilde", "0.7"],
        ["simulate", str(cfg_off)],
        ["simulate", str(cfg)],
    ]
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, json.dumps(commands)],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == [[argv[0], 0, []] for argv in commands[:-1]] + [
        ["simulate", 0, ["orjson"]]
    ]
    assert (tmp_path / "off" / "out" / "outcome.json").is_file()
    assert not list((tmp_path / "off" / "out").glob("A_*"))
    assert (tmp_path / "out" / "A_0.010000.field").is_file()


def _fresh_env() -> dict:
    """The environment of a new process that imports this checkout."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def _fresh_python(args: list, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=_fresh_env(), **kwargs)


class TestExitFreeze:
    """`main` freezes the heap for a command and unfreezes it on return, and
    registers `gc.freeze` to run at exit, before the interpreter's shutdown
    collections, which then skip every object alive at that point."""

    def test_main_leaves_the_freeze_count_as_it_found_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, **{"grid.n": 16, "time.t_end": 0.01})
        before = gc.get_freeze_count()
        assert cli.main(["simulate", str(cfg)]) == 0
        assert gc.get_freeze_count() == before
        assert cli.main(["steady"]) == 1  # a usage error returns through the same path
        assert gc.get_freeze_count() == before
        # a caller's own freeze outlives the call (a command that frees a
        # frozen object lowers the count, so these two free none)
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            assert cli.main(["steady", "--psi", "0.1", "--atilde", "0.7"]) == 0
            assert gc.get_freeze_count() == frozen
            assert cli.main(["steady"]) == 1
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
        capsys.readouterr()

    _PROBE = """
import atexit
import gc
import json
import sys

freezes = []
freeze = gc.freeze


def counting_freeze():
    freezes.append(1)
    freeze()


gc.freeze = counting_freeze


def probe():
    # registered before main, so it runs after every handler main registers
    print(json.dumps({"codes": codes, "in_main": in_main,
                      "at_exit": len(freezes) - in_main,
                      "frozen_at_exit": gc.get_freeze_count()}))


atexit.register(probe)
from hotspotsim import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
in_main = len(freezes)
print(json.dumps({"frozen_after_main": gc.get_freeze_count()}))
"""

    @pytest.fixture(scope="class")
    def probed(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("exit_freeze")
        cfg = tmp / "run.json"
        write_config(cfg, **{"grid.n": 16, "time.t_end": 0.02})
        commands = [["simulate", str(cfg)], ["steady", "--psi", "0.1", "--atilde", "0.7"]]
        proc = _fresh_python(["-c", self._PROBE, json.dumps(commands)], check=True)
        lines = proc.stdout.splitlines()
        return tmp / "out", json.loads(lines[-2]), json.loads(lines[-1])

    def test_exit_handlers_registered_before_main_see_a_frozen_heap(self, probed):
        out_dir, after_main, at_exit = probed
        assert after_main == {"frozen_after_main": 0}
        assert at_exit["codes"] == [0, 0]
        assert at_exit["frozen_at_exit"] > 0
        # the run's outputs are complete: 3 outputs, A and N, three files each
        assert json.loads((out_dir / "outcome.json").read_text())["outcome"] == "completed"
        assert len((out_dir / "diagnostics.csv").read_text().splitlines()) == 1 + 3
        assert len(_snapshot_files(out_dir)) == 3 * 2 * 3

    def test_two_calls_of_main_register_the_exit_hook_once(self, probed):
        _, _, at_exit = probed
        assert (at_exit["in_main"], at_exit["at_exit"]) == (2, 1)

    def test_importing_the_package_registers_no_exit_hook(self):
        proc = _fresh_python(["-c", "import atexit, gc; import hotspotsim.cli; "
                              "atexit.register(lambda: print(gc.get_freeze_count()))"],
                             check=True)
        assert proc.stdout == "0\n"


def _huge_range_run(tmp_path) -> Path:
    """A 16² Short run whose A0 holds one cell of 1e308 among 1.0: it ends
    failed at t=0, after its t=0 snapshot is written."""
    grid = GridSpec(1.0, 16)
    a0 = np.ones((16, 16))
    a0[3, 5] = 1e308
    write_field(tmp_path / "A0.field", ScalarField(grid, a0))
    write_field(tmp_path / "N0.field", ScalarField(grid, np.full((16, 16), 0.75)))
    cfg = tmp_path / "huge.json"
    write_config(
        cfg,
        model={"kind": "short", "eta": 0.05, "a0": 0.2, "abar": 0.8, "chi": 1.0},
        grid={"L": 1.0, "n": 16},
        ic={"recipe": "file", "path_A": str(tmp_path / "A0.field"),
            "path_N": str(tmp_path / "N0.field")},
        **{"outputs.dir": str(tmp_path / "out_huge")},
    )
    return cfg


def test_simulate_writes_only_documented_lines_to_stderr(tmp_path):
    """Fresh `python -m hotspotsim.cli simulate` processes on tiny configs,
    one for each outcome kind: the exit code and outcome.json agree, and
    every stderr line is an `error:` or `reason:` line, so no warning or
    traceback escapes."""
    runs = {}
    runs["completed"] = tmp_path / "completed.json"
    write_config(runs["completed"], **{"grid.n": 16, "time.t_end": 0.01,
                                      "outputs.dir": str(tmp_path / "out_completed")})
    runs["blowup"] = tmp_path / "blowup.json"
    write_config(
        runs["blowup"],
        model={"kind": "short", "eta": 0.05, "a0": 0.2, "abar": 0.8, "chi": 4.0},
        grid={"L": 1.0, "n": 16},
        time={"t_end": 2.0, "dt_init": 5e-4, "dt_min": 1e-9, "output_every": 0.16},
        ic={"recipe": "perturbed_steady", "amplitude": 0.5, "mode_j": 2, "mode_k": 1},
        outputs={"dir": str(tmp_path / "out_blowup"), "snapshots": False},
    )
    runs["failed"] = tmp_path / "failed.json"
    write_config(runs["failed"], **{"grid.n": 16, "model.chi": 1e308,
                                   "ic.amplitude": 0.3, "ic.mode_j": 3, "ic.mode_k": 2,
                                   "outputs.dir": str(tmp_path / "out_failed")})
    runs["huge"] = _huge_range_run(tmp_path)
    procs = {name: subprocess.Popen(
        [sys.executable, "-m", "hotspotsim.cli", "simulate", str(cfg)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_fresh_env(),
    ) for name, cfg in runs.items()}
    seen = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        doc = json.loads((tmp_path / f"out_{name}" / "outcome.json").read_text())
        seen[name] = (proc.returncode, doc["outcome"], out.splitlines()[-1].split(" at ")[0])
        assert all(line.startswith(("error:", "reason:")) for line in err.splitlines()), err
    assert seen == {
        "completed": (0, "completed", "outcome: completed"),
        "blowup": (3, "blowup_suspected", "outcome: blowup_suspected"),
        "failed": (1, "failed", "outcome: failed"),
        "huge": (1, "failed", "outcome: failed"),
    }
    levels = _pgm_levels(tmp_path / "out_huge" / "A_0.000000.pgm", 16)
    assert levels[3, 5] == 255 and np.count_nonzero(levels) == 1
