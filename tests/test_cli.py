"""Command line interface: exit codes, output formats, option plumbing."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slidestats
from slidestats import (
    ConfigError,
    ExperimentConfig,
    PointSet,
    ProcessSpec,
    StatisticRequest,
    cli,
    point_statistics,
    slide_stats,
)
from slidestats.cli import main


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.csv"
    lines = [f"{0.1 * i},{0.1 * j}" for i in range(6) for j in range(6)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def dup_file(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("0,0\n0,0\n1,1\n")
    return str(path)


class TestStats:
    def test_text_output(self, square_file, capsys):
        assert main(["stats", square_file]) == 0
        out = capsys.readouterr().out
        assert "rho_1" in out and "rho_2" in out
        assert "dimension" in out

    def test_json_output(self, square_file, capsys):
        code = main(
            ["stats", square_file, "--stat", "slide,level", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 36
        assert payload["dimension"] == 2
        assert set(payload["statistics"]) == {"slide", "level"}
        slide = payload["statistics"]["slide"]
        assert set(slide) == {"values", "oracle_error"}
        assert slide["values"]["1"] > 0.0
        assert payload["tangibility"]["tangible"] in (True, False)

    def test_text_names_why_rho1_zero_is_not_tangible(self, tmp_path, capsys):
        # Every nearest-neighbour distance is 1, so rho_1 = 0.
        path = tmp_path / "corner.csv"
        path.write_text("0,0\n1,0\n0,1\n")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "  not tangible: rho_1 = 0 gives no dimension estimate\n" in out
        assert "nan" not in out
        assert main(["stats", str(path), "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)["tangibility"]
        assert verdict["residuals"] == {} and verdict["tangible"] is False

    def test_out_writes_file(self, square_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["stats", square_file, "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["points"] == 36
        assert capsys.readouterr().out == ""

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.csv")]) == 3

    def test_bad_orders_is_config_error(self, square_file, capsys):
        assert main(["stats", square_file, "--orders", "0"]) == 2

    def test_bad_stat_kind(self, square_file, capsys):
        assert main(["stats", square_file, "--stat", "magic"]) == 2

    @pytest.mark.parametrize(
        "request_args, message",
        [
            (["--stat", "bogus"], "unknown statistic kind 'bogus'"),
            (["--orders", "5"], "orders above 4 have no closed form"),
            (["--stat", "level,slide", "--orders", "1,5"], "orders above 4"),
            (["--orders", "0"], "orders must be positive"),
            (["--tol", "0"], "tangibility_tol must be a positive number"),
            (["--tol", "inf"], "tangibility_tol must be a positive number"),
            (["--pairwise-cap", "-3"], "pairwise_cap must be at least 2"),
            (["--pairwise-cap", "0"], "pairwise_cap must be at least 2"),
        ],
    )
    def test_bad_request_fails_before_reading_the_file(
        self, square_file, monkeypatch, capsys, request_args, message
    ):
        def unexpected_load(*args, **kwargs):
            raise AssertionError("load_points called for a bad request")

        monkeypatch.setattr(cli, "load_points", unexpected_load)
        assert main(["stats", square_file, *request_args]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("kinds", ["slide", "level,slide", "slide,level"])
    def test_duplicate_points_are_bad_input(self, dup_file, capsys, kinds):
        assert main(["stats", dup_file, "--stat", kinds]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: point set contains coinciding points; "
            "nearest-neighbour distances require distinct points\n"
        )
        assert captured.out == ""

    def test_duplicate_points_allowed_for_level(self, dup_file, capsys):
        assert main(["stats", dup_file, "--stat", "level"]) == 0
        assert "lambda_1" in capsys.readouterr().out

    def test_level_prints_only_requested_orders(self, dup_file, capsys):
        assert main(["stats", dup_file, "--stat", "level", "--orders", "2"]) == 0
        out = capsys.readouterr().out
        assert "lambda_2" in out and "lambda_1" not in out
        args = ["stats", dup_file, "--stat", "level", "--orders", "2", "--format", "json"]
        assert main(args) == 0
        level = json.loads(capsys.readouterr().out)["statistics"]["level"]
        assert list(level["values"]) == ["2"]

    def test_points_without_coordinates_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty_rows.json"
        path.write_text("[[], [], []]")
        assert main(["stats", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}: coords must be a nonempty (k, m) array with m >= 1\n"
        )
        assert captured.out == ""

    def test_slide_and_level_share_one_extraction(
        self, square_file, monkeypatch, capsys
    ):
        calls = []
        original = slide_stats.nn_distances

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(slide_stats, "nn_distances", counting)
        assert main(["stats", square_file, "--stat", "slide,level"]) == 0
        assert calls == [{"allow_duplicates": True}]
        out = capsys.readouterr().out
        assert "rho_1" in out and "lambda_1" in out


def test_closed_pipe_exits_quietly_with_141():
    # The reader closes its end before the command writes anything.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(slidestats.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "slidestats.cli", "entropy", "uniform"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


SIMULATE = ["simulate", "--process", "uniform_cube", "--param", "dim=2"]


class TestSimulate:
    def test_table_run(self, capsys):
        code = main(
            [
                "simulate",
                "--process", "uniform_cube",
                "--param", "dim=2",
                "--size", "50",
                "--replicates", "3",
                "--seed", "9",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "uniform_cube(dim=2)" in captured.out
        assert "rho" in captured.out
        assert captured.err == ""  # no replicate failed

    def test_json_round_trip_and_determinism(self, capsys):
        argv = [
            "simulate",
            "--process", "exponential",
            "--size", "40",
            "--replicates", "2",
            "--seed", "5",
            "--format", "json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["config"]["master_seed"] == 5
        assert len(first["per_replicate"]["slide:1"]) == 2

    def test_config_file_with_override(self, tmp_path, capsys):
        config = {
            "process": {"kind": "uniform_cube", "params": {"dim": 1}},
            "sample_size": 30,
            "replicates": 2,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(
            ["--", "simulate", "--config", str(path),
             "--replicates", "4", "--format", "json"][1:]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["replicates"] == 4
        assert payload["config"]["sample_size"] == 30

    def test_dims_sweep(self, capsys):
        code = main(
            [
                "simulate",
                "--dims", "1,2,3",
                "--size", "40",
                "--replicates", "2",
                "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # header plus two orders per dimension
        assert len(lines) == 7
        assert lines[1].startswith("uniform_cube(dim=1),slide,1")
        assert lines[3].startswith("uniform_cube(dim=2),slide,1")

    def test_orders_alone_request_slide(self, capsys):
        argv = [*SIMULATE, "--size", "200", "--replicates", "3"]
        assert main([*argv, "--orders", "1,2,3"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[1:3] for row in rows] == [["rho", str(o)] for o in (1, 2, 3)]
        assert main([*argv, "--orders", "9"]) == 2
        assert capsys.readouterr().err == "error: orders above 4 have no closed form\n"

    def test_failed_replicates_are_named_on_stderr(self, dup_file, capsys):
        argv = [
            "simulate",
            "--process", "from_file",
            "--param", f"path={dup_file}",
            "--size", "3",
            "--replicates", "2",
            "--format", "csv",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: from_file(path={dup_file}): 2 of 2 replicates failed "
            "(0, 1); first error: point set contains coinciding points; "
            "nearest-neighbour distances require distinct points\n"
        )
        label = f"from_file(path={dup_file})"
        assert captured.out.splitlines() == [
            "process,statistic,order,replicates,mean,sd",
            f"{label},slide,1,0,,",
            f"{label},slide,2,0,,",
        ]

    def test_numeric_file_name_stays_a_path(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        rows = np.random.default_rng(5).random((20, 2))
        np.savetxt(tmp_path / "2024", rows, delimiter=",")
        argv = [
            "simulate",
            "--process", "from_file",
            "--param", "path=2024",
            "--param", "format=csv",
            "--size", "20",
            "--replicates", "1",
            "--format", "csv",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[1].startswith('"from_file(format=csv,path=2024)",slide,1,1,')

    def test_dims_requires_uniform_cube(self, capsys):
        assert main(["simulate", "--dims", "1,2", "--process", "normal"]) == 2

    def test_unknown_process(self, capsys):
        assert main(["simulate", "--process", "levy"]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tol", "inf"], "tangibility_tol must be a positive number"),
            (["--tol", "nan"], "tangibility_tol must be a positive number"),
            (["--pairwise-cap", "-3"], "pairwise_cap must be at least 2"),
        ],
    )
    def test_out_of_range_flag_is_config_error(self, capsys, flags, message):
        argv = [*SIMULATE, "--size", "20", "--replicates", "2", "--format", "json"]
        assert main([*argv, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    def test_bad_config_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{oops")
        assert main(["simulate", "--config", str(path)]) == 3

    @pytest.mark.parametrize(
        "override, flags, named",
        [
            ({"statistics": [{"kind": "slide", "orders": 5}]}, [], "orders"),
            ({"process": {"kind": ["normal"]}}, [], "process"),
            ({"process": ["normal"]}, ["--param", "dim=2"], "process"),
            ({"process": ["normal"]}, ["--dims", "1,2"], "process"),
            (
                {"process": {"kind": "uniform_cube", "params": [2]}},
                ["--dims", "1,2"],
                "process",
            ),
            ({"process": {"kind": "uniform_cube", "params": {"dim": True}}}, [], "dim"),
            (
                {"process": {"kind": "normal", "seed": 0}},
                [],
                "unknown process keys: ['seed']",
            ),
        ],
        ids=[
            "override0",
            "override1",
            "process-array-with-param",
            "process-array-with-dims",
            "params-array-with-dims",
            "bool-dim",
            "process-seed",
        ],
    )
    def test_malformed_config_file_is_a_config_error(
        self, tmp_path, capsys, override, flags, named
    ):
        config = {"process": {"kind": "normal"}, "sample_size": 30, "replicates": 2}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, **override}))
        assert main(["simulate", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


# One table of bad orders, run through every entry point that takes orders.
BAD_ORDERS = [
    *((kind, orders) for kind in ("slide", "assembly")
      for orders in ((), (1, 1), (0,), (5,))),
    ("slide", (1.5,)),
    ("slide", (True,)),
    ("slide", ("2",)),
]
BAD_ORDER_IDS = [f"{kind}-{','.join(map(repr, orders))}" for kind, orders in BAD_ORDERS]


class TestOrderRule:
    @pytest.mark.parametrize("kind, orders", BAD_ORDERS, ids=BAD_ORDER_IDS)
    def test_library_and_harness_agree(self, kind, orders):
        points = PointSet.from_coords([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError) as library:
            point_statistics(points, {kind: orders})
        with pytest.raises(ConfigError) as harness:
            StatisticRequest(kind, orders)
        assert str(harness.value) == str(library.value)

    @pytest.mark.parametrize("kind, orders", BAD_ORDERS, ids=BAD_ORDER_IDS)
    def test_stats_and_simulate_agree(self, square_file, tmp_path, capsys, kind, orders):
        # A command line carries each order as its Python literal, so the
        # string "2" arrives quoted rather than as the valid order 2.
        flags = ["--stat", kind, "--orders", ",".join(map(repr, orders))]
        assert main(["stats", square_file, *flags]) == 2
        message = capsys.readouterr().err
        assert message.startswith("error: ")
        assert main([*SIMULATE, "--size", "20", "--replicates", "1", *flags]) == 2
        assert capsys.readouterr().err == message
        # A config file carries the orders as JSON values, unchanged.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "process": {"kind": "uniform_cube"}, "sample_size": 20, "replicates": 1,
            "statistics": [{"kind": kind, "orders": list(orders)}],
        }))
        assert main(["simulate", "--config", str(config)]) == 2
        with pytest.raises(ConfigError) as harness:
            StatisticRequest(kind, orders)
        assert capsys.readouterr().err == f"error: {harness.value}\n"

    def test_repeated_kinds_fail_alike_before_any_file_is_read(self, tmp_path, capsys):
        # Reading the absent file would exit 3.
        absent = str(tmp_path / "absent.json")
        simulate = [*SIMULATE, "--size", "20", "--replicates", "1"]
        for argv in (
            ["stats", absent],
            simulate,
            [*simulate, "--config", absent],
        ):
            assert main([*argv, "--stat", "slide,slide"]) == 2
            assert capsys.readouterr().err == "error: statistic kinds must not repeat\n"

    def test_numpy_integer_orders_are_accepted(self, square_file, capsys):
        order = np.int64(2)
        request = StatisticRequest("slide", (order,))
        assert request.orders == (2,) and type(request.orders[0]) is int
        config = ExperimentConfig(ProcessSpec("uniform_cube", {"dim": 2}), 20, 1, (request,))
        assert json.loads(json.dumps(config.to_dict()))["statistics"] == [
            {"kind": "slide", "orders": [2]}
        ]
        points = PointSet.from_coords([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        report = point_statistics(points, {"slide": (order,)})["slide"]
        assert report.orders == [2] and type(report.orders[0]) is int
        assert main(["stats", square_file, "--orders", str(order)]) == 0
        assert main([*SIMULATE, "--size", "20", "--replicates", "1",
                     "--orders", str(order)]) == 0


class TestValidate:
    def test_quick_suite_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert [line.split("  ")[1] for line in lines] == [
            row.name for row in cli.ORACLE_CHECKS
        ]
        assert all(line.startswith("PASS") for line in lines)
        assert out.endswith("all checks passed\n")

    def test_failed_row_exits_1(self, monkeypatch, capsys):
        rows = list(cli.ORACLE_CHECKS)
        rows[-1] = rows[-1]._replace(worst_gap=lambda seed, full: math.inf)
        monkeypatch.setattr(cli, "ORACLE_CHECKS", tuple(rows))
        assert main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert f"FAIL  {rows[-1].name}  (worst gap inf, tolerance 1e-06)" in lines
        assert sum(line.startswith("PASS") for line in lines) == len(rows) - 1
        assert lines[-1] == "1 check(s) failed"


class TestEntropy:
    def test_known_value(self, capsys):
        assert main(["entropy", "neg_log", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["genial_entropy"] == pytest.approx(
            0.5772156649015329, abs=1e-9
        )
        assert payload["gap"] < 1e-8

    def test_curve(self, capsys):
        assert main(["entropy", "neg_log", "--curve", "0.5,1.0"]) == 0
        out = capsys.readouterr().out
        assert "0.5" in out and "1.0" in out

    @pytest.mark.parametrize("t", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_t_exits_2(self, capsys, t):
        assert main(["entropy", "uniform", "--curve", t]) == 2
        assert "finite number >= 0" in capsys.readouterr().err

    def test_divergence_exit_code(self, capsys):
        code = main(["entropy", "power", "--param", "a=0.5", "--curve", "2"])
        assert code == 4

    def test_unknown_density(self, capsys):
        assert main(["entropy", "unobtainium"]) == 2

    def test_missing_required_param(self, capsys):
        assert main(["entropy", "power"]) == 2

    @pytest.mark.parametrize(
        "name, param, code",
        [
            ("uniform", "b=inf", 2),
            ("neg_log_power", "r=inf", 2),
            ("neg_log_power", "r=200", 2),
            ("power", "a=1e-300", 4),
            ("neg_log_power", "r=50", 4),
            ("power", "a=0.03", 4),
        ],
    )
    def test_unusable_density_fails_with_one_error_line(self, capsys, name, param, code):
        assert main(["entropy", name, "--param", param]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if code == 2:
            key, value = param.split("=")
            assert f"parameter {key} must lie in" in lines[0]
            assert lines[0].endswith(f"got {value}")

    @pytest.mark.parametrize(
        "name, param",
        [("power", "a=abc"), ("uniform", "b=abc"), ("neg_log_power", "r=abc")],
    )
    def test_non_numeric_param_is_a_config_error(self, capsys, name, param):
        assert main(["entropy", name, "--param", param]) == 2
        key = param.split("=")[0]
        assert capsys.readouterr().err == (
            f"error: catalog density {name!r} parameter {key} must be a number, "
            "got 'abc'\n"
        )
