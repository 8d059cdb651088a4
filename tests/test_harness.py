"""Experiment harness: configs, determinism, reports, point-file parsing."""

import json
import math
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidestats import (
    Aggregate,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    ParseError,
    PointSet,
    ProcessSpec,
    StatisticRequest,
    emit_report,
    generate,
    load_points,
    load_report,
    nn_distances,
    render_report,
    render_reports,
    run_experiment,
)
from slidestats import geometry, harness


def small_config(**overrides):
    base = dict(
        process=ProcessSpec("uniform_cube", {"dim": 2}),
        sample_size=40,
        replicates=5,
        statistics=(
            StatisticRequest("slide", (1, 2)),
            StatisticRequest("level", (1, 2)),
        ),
        master_seed=314,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


ALL_KINDS = (
    StatisticRequest("slide", (1, 2)),
    StatisticRequest("assembly", (1,)),
    StatisticRequest("level", (1, 2)),
)


def record_builds(monkeypatch):
    """Log ``(thread, size)`` of every rank-weight build, from any thread."""
    built = []
    original = geometry._build_rank_weights

    def logging_build(n):
        built.append((threading.get_ident(), n))  # list.append is atomic
        return original(n)

    monkeypatch.setattr(geometry, "_build_rank_weights", logging_build)
    return built


def record_queries(monkeypatch):
    """Log ``(thread, workers)`` of every k-d tree query, from any thread."""
    queries = []
    spatial = geometry.load_spatial()

    class SpyTree:
        def __init__(self, *args, **kwargs):
            self.tree = spatial.cKDTree(*args, **kwargs)
            self.indices = self.tree.indices

        def query(self, *args, workers, **kwargs):
            queries.append((threading.get_ident(), workers))
            return self.tree.query(*args, workers=workers, **kwargs)

    monkeypatch.setattr(
        geometry,
        "load_spatial",
        lambda: SimpleNamespace(cKDTree=SpyTree, distance=spatial.distance),
    )
    return queries


def generate_failing_at_stream_3(spec, k, stream=None):
    """``generate`` with a bug that hits only the draw of substream 3."""
    if stream.stream_index == 3:
        raise RuntimeError("generator bug")
    return generate(spec, k, stream=stream)


class TestStatisticRequest:
    def test_orders_are_sorted(self):
        assert StatisticRequest("slide", (2, 1)).orders == (1, 2)

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ConfigError):
            StatisticRequest("slide", (1, 1))

    def test_slide_orders_capped(self):
        with pytest.raises(ConfigError):
            StatisticRequest("slide", (1, 5))
        assert StatisticRequest("level", (1, 7)).orders == (1, 7)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            StatisticRequest("entropy", (1,))

    def test_key(self):
        assert StatisticRequest("assembly", (1,)).key(1) == "assembly:1"


class TestConfigValidation:
    def test_sample_size_too_small(self):
        with pytest.raises(ConfigError):
            small_config(sample_size=1)

    def test_replicates_positive(self):
        with pytest.raises(ConfigError):
            small_config(replicates=0)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            small_config(replicates=True)

    @pytest.mark.parametrize(
        "name", ["sample_size", "replicates", "master_seed", "workers", "pairwise_cap"]
    )
    def test_numpy_integers_are_stored_as_int(self, name):
        plain = small_config(**{name: 7})
        config = small_config(**{name: np.int64(7)})
        assert type(getattr(config, name)) is int
        assert config == plain
        text = json.dumps(config.to_dict())
        assert text == json.dumps(plain.to_dict())
        assert ExperimentConfig.from_dict(json.loads(text)) == plain
        for flag in (True, np.True_):
            with pytest.raises(ConfigError, match=f"{name} must be an integer"):
                small_config(**{name: flag})

    def test_numpy_integers_in_the_process_spec(self):
        plain = small_config(process=ProcessSpec("uniform_cube", {"dim": 2}, seed=3))
        spec = ProcessSpec("uniform_cube", {"dim": np.int64(2)}, seed=np.int64(3))
        assert type(spec.params["dim"]) is int and type(spec.seed) is int
        report = run_experiment(small_config(process=spec))
        assert emit_report(report) == emit_report(run_experiment(plain))
        for bad in ({"dim": np.True_}, {"dim": np.float64(2.0)}):
            with pytest.raises(ConfigError, match="uniform_cube needs an integer dim"):
                ProcessSpec("uniform_cube", bad)
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            ProcessSpec("normal", seed=np.int64(-1))

    def test_repeated_statistic_kind(self):
        with pytest.raises(ConfigError):
            small_config(
                statistics=(
                    StatisticRequest("slide", (1,)),
                    StatisticRequest("slide", (2,)),
                )
            )

    def test_assembly_respects_pairwise_cap(self):
        with pytest.raises(ConfigError):
            small_config(
                statistics=(StatisticRequest("assembly", (1,)),),
                sample_size=10_001,
            )

    def test_dict_round_trip(self):
        config = small_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        data = small_config().to_dict()
        data["verbosity"] = 3
        with pytest.raises(ConfigError, match=r"unknown config keys: \['verbosity'\]"):
            ExperimentConfig.from_dict(data)

    def test_missing_required_key(self):
        data = small_config().to_dict()
        del data["replicates"]
        with pytest.raises(ConfigError, match=r"missing config keys: \['replicates'\]"):
            ExperimentConfig.from_dict(data)

    def test_nested_keys_are_checked(self):
        data = small_config().to_dict()
        data["process"]["rate"] = 1.0
        with pytest.raises(ConfigError, match=r"unknown process keys: \['rate'\]"):
            ExperimentConfig.from_dict(data)
        data = small_config().to_dict()
        del data["process"]["kind"]
        with pytest.raises(ConfigError, match=r"missing process keys: \['kind'\]"):
            ExperimentConfig.from_dict(data)
        data = small_config().to_dict()
        data["statistics"][0]["tol"] = 0.1
        with pytest.raises(ConfigError, match=r"unknown statistic keys: \['tol'\]"):
            ExperimentConfig.from_dict(data)

    def test_defaults_fill_optional_keys(self):
        data = {"process": {"kind": "normal"}, "sample_size": 10, "replicates": 2}
        assert ExperimentConfig.from_dict(data) == ExperimentConfig(
            ProcessSpec("normal"), 10, 2
        )

    @pytest.mark.parametrize(
        "part, name, value",
        [
            ("config", "cross_check", "no"),
            ("config", "pairwise_cap", True),
            ("config", "tangibility_tol", True),
            ("config", "tangibility_tol", "x"),
            ("process", "seed", True),
            ("process", "params", []),
            ("process", "params", {"dim": 0}),
            ("process", "params", {"dim": True}),
            ("process", "params", {"dim": 2.0}),
        ],
        ids=lambda value: repr(value) if not isinstance(value, str) else None,
    )
    def test_constructor_and_loader_agree(self, part, name, value):
        data = small_config().to_dict()
        if part == "process":
            with pytest.raises(ConfigError):
                ProcessSpec(**{**data["process"], name: value})
            data["process"][name] = value
        else:
            with pytest.raises(ConfigError):
                small_config(**{name: value})
            data[name] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)


class TestRunExperiment:
    def test_end_to_end(self):
        report = run_experiment(small_config())
        assert set(report.per_replicate) >= {
            "slide:1",
            "slide:2",
            "slide:2:oracle_gap",
            "level:1",
            "level:2",
        }
        assert len(report.per_replicate["slide:1"]) == 5
        agg = report.aggregates["slide:1"]
        assert agg.count == 5 and agg.sd is not None and agg.mean > 0.0
        assert report.dimension_estimates is not None
        assert report.tangibility is not None
        assert report.failed_replicates == ()
        assert report.provenance["generator"] == "Philox"
        assert report.provenance["master_seed"] == 314

    def test_deterministic(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a.to_dict() == b.to_dict()

    def test_process_seed_has_no_effect(self):
        # Replicates draw from substreams of master_seed; ProcessSpec.seed
        # only serves generate() called without a stream.
        base = run_experiment(small_config())
        reseeded = run_experiment(
            small_config(process=ProcessSpec("uniform_cube", {"dim": 2}, seed=99))
        )
        assert reseeded.per_replicate == base.per_replicate
        assert reseeded.to_dict()["config"]["process"]["seed"] == 99

    def test_worker_count_is_invisible(self):
        for replicates, workers in ((6, 2), (7, 3)):
            serial = run_experiment(small_config(replicates=replicates))
            pooled = run_experiment(
                small_config(replicates=replicates, workers=workers)
            )
            assert serial.per_replicate == pooled.per_replicate
            pooled.config = serial.config
            assert emit_report(pooled) == emit_report(serial)

    def test_rank_weights_released_after_run(self, monkeypatch):
        built = []
        original = geometry._build_rank_weights

        def recording(n):
            weights = original(n)
            built.append(weakref.ref(weights))
            return weights

        monkeypatch.setattr(geometry, "_build_rank_weights", recording)
        run_experiment(small_config(statistics=(StatisticRequest("assembly", (1,)),)))
        assert len(built) == 1 and built[0]() is None
        monkeypatch.setattr(harness, "generate", generate_failing_at_stream_3)
        with pytest.raises(RuntimeError, match="generator bug"):
            run_experiment(small_config(replicates=6))
        assert len(built) == 2 and built[1]() is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rank_weights_built_once_per_size(self, monkeypatch, workers):
        built = record_builds(monkeypatch)
        config = small_config(replicates=6, workers=workers, statistics=ALL_KINDS)
        run_experiment(config)
        builds = Counter(built)
        assert set(builds.values()) == {1}
        sizes = Counter(n for _, n in builds)
        assert set(sizes) == {40, 40 * 39 // 2}
        assert max(sizes.values()) <= workers
        threads = {thread for thread, _ in builds}
        if workers == 1:
            assert threads == {threading.get_ident()}
        else:
            assert threading.get_ident() not in threads

    def test_pool_threads_under_contention(self, monkeypatch):
        # More threads than cores, switching as often as the interpreter can.
        built = record_builds(monkeypatch)
        config = small_config(replicates=16, workers=4, statistics=ALL_KINDS)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: result.append(run_experiment(config))
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(result) == 1
        assert set(Counter(built).values()) == {1}
        serial = run_experiment(small_config(replicates=16, statistics=ALL_KINDS))
        assert result[0].per_replicate == serial.per_replicate

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_replicate_is_named(self, monkeypatch, workers):
        monkeypatch.setattr(harness, "generate", generate_failing_at_stream_3)
        with pytest.raises(RuntimeError, match="generator bug") as info:
            run_experiment(small_config(replicates=6, workers=workers))
        assert info.value.__notes__ == ["replicate 3, attempt 0, substream 3"]

    def test_single_replicate_has_no_sd(self):
        report = run_experiment(small_config(replicates=1))
        assert report.aggregates["slide:1"].sd is None

    def test_cross_check_off_drops_oracle_gap(self):
        report = run_experiment(small_config(cross_check=False))
        assert "slide:2:oracle_gap" not in report.per_replicate

    def test_tangibility_needs_two_orders(self):
        config = small_config(statistics=(StatisticRequest("slide", (1,)),))
        report = run_experiment(config)
        assert report.tangibility is None
        assert report.dimension_estimates is not None

    def test_all_replicates_fail_on_coincident_file(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("1.0,0.0\n1.0,0.0\n2.0,0.0\n")
        config = small_config(
            process=ProcessSpec("from_file", {"path": str(path)}),
            sample_size=3,
            replicates=2,
            statistics=(StatisticRequest("slide", (1,)),),
        )
        report = run_experiment(config)
        assert report.per_replicate == {}
        assert report.aggregates == {}
        assert report.dimension_estimates is None
        assert len(report.failed_replicates) == 2
        assert all(f.attempts == 4 for f in report.failed_replicates)
        assert "coincid" in report.failed_replicates[0].error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_file_is_read_once_per_experiment(self, monkeypatch, tmp_path, workers):
        path = tmp_path / "pts.csv"
        np.savetxt(path, np.random.default_rng(5).random((60, 2)), delimiter=",")
        calls = []

        def counting_load(*args):
            calls.append(args)
            return load_points(*args)

        monkeypatch.setattr(harness, "load_points", counting_load)
        config = small_config(
            process=ProcessSpec("from_file", {"path": str(path)}), workers=workers
        )
        report = run_experiment(config)
        assert len(calls) == 1
        assert len(report.per_replicate["slide:1"]) == 5

    @pytest.mark.parametrize(
        "kind, params", [("cos_iteration", {}), ("primes", {}), ("from_file", None)]
    )
    def test_deterministic_kinds_drawn_once_keep_the_report(
        self, monkeypatch, tmp_path, kind, params
    ):
        if params is None:
            path = tmp_path / "dup.csv"  # coincident points: every attempt fails
            path.write_text("1.0,0.0\n1.0,0.0\n2.0,0.0\n0.5,3.0\n")
            params = {"path": str(path)}
        config = small_config(
            process=ProcessSpec(kind, params), sample_size=4, replicates=3
        )
        once = emit_report(run_experiment(config))
        monkeypatch.setattr(harness, "_ignores_stream", lambda kind: False)
        assert once == emit_report(run_experiment(config))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deterministic_draw_failure_is_named(self, tmp_path, workers):
        path = tmp_path / "short.csv"
        path.write_text("0,0\n1,1\n")
        config = small_config(
            process=ProcessSpec("from_file", {"path": str(path)}), workers=workers
        )
        with pytest.raises(ConfigError, match="provides 2 points") as info:
            run_experiment(config)
        assert info.value.__notes__ == ["replicate 0, attempt 0, substream 0"]

    def test_uniform_square_values_are_sane(self):
        # rho_1 over the unit square sits near 1/2 already at n = 300.
        config = small_config(sample_size=300, replicates=3)
        report = run_experiment(config)
        assert abs(report.aggregates["slide:1"].mean - 0.5) < 0.1
        assert abs(report.dimension_estimates[1] - 2.0) < 0.5


class TestQueryThreads:
    """Pool tasks query the k-d tree on one thread; every other call on all CPUs."""

    points = PointSet.from_coords(np.random.default_rng(0).random((40, 2)))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_tasks_query_on_one_thread(self, monkeypatch, workers):
        queries = record_queries(monkeypatch)
        run_experiment(small_config(replicates=6, workers=workers))
        assert [count for _, count in queries] == [1] * 6
        assert threading.get_ident() not in {thread for thread, _ in queries}

    def test_serial_run_queries_on_every_cpu(self, monkeypatch):
        queries = record_queries(monkeypatch)
        run_experiment(small_config(replicates=3))
        assert queries == [(threading.get_ident(), -1)] * 3

    def test_top_level_queries_on_every_cpu(self, monkeypatch):
        queries = record_queries(monkeypatch)
        nn_distances(self.points)
        with geometry.shared_rank_weights():
            nn_distances(self.points)
        assert [count for _, count in queries] == [-1, -1]

    def test_callers_thread_queries_on_every_cpu(self, monkeypatch):
        queries = record_queries(monkeypatch)
        thread = threading.Thread(target=nn_distances, args=(self.points,))
        thread.start()
        thread.join()
        assert [count for _, count in queries] == [-1]

    def test_pooled_run_leaves_the_caller_on_every_cpu(self, monkeypatch):
        queries = record_queries(monkeypatch)
        with geometry.shared_rank_weights():
            run_experiment(small_config(replicates=4, workers=2))
            nn_distances(self.points)
        nn_distances(self.points)
        assert [count for _, count in queries] == [1] * 4 + [-1, -1]


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        dup = tmp_path / "dup.csv"
        dup.write_text("1.0,0.0\n1.0,0.0\n2.0,0.0\n")
        slide_1 = (StatisticRequest("slide", (1,)),)
        full = run_experiment(small_config())
        no_verdict = run_experiment(small_config(statistics=slide_1))
        all_failed = run_experiment(
            small_config(
                process=ProcessSpec("from_file", {"path": str(dup)}),
                sample_size=3,
                replicates=2,
                statistics=slide_1,
            )
        )
        assert full.tangibility is not None and no_verdict.tangibility is None
        assert all_failed.aggregates == {} and all_failed.dimension_estimates is None
        for index, report in enumerate((full, no_verdict, all_failed)):
            path = tmp_path / f"report{index}.json"
            emit_report(report, "json", path)
            loaded = load_report(path)
            assert loaded == report
            assert loaded.to_dict() == report.to_dict()
            assert render_report(loaded, "json") == path.read_text()

    def test_schema_v1_file_re_renders_byte_for_byte(self):
        path = Path(__file__).parent / "data" / "report_v1.json"
        report = load_report(path)
        assert list(report.dimension_estimates) == [1, 2]
        assert list(report.tangibility.residuals) == [2]
        assert report.failed_replicates[0].replicate == 2
        assert render_report(report, "json") == path.read_text()

    def test_per_replicate_must_be_an_object(self, tmp_path):
        data = run_experiment(small_config(replicates=1)).to_dict()
        data["per_replicate"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="malformed report"):
            load_report(path)

    def test_schema_version_checked(self, tmp_path):
        report = run_experiment(small_config(replicates=1))
        data = json.loads(render_report(report, "json"))
        data["schema_version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            load_report(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_report(path)

    def test_truncated_report(self, tmp_path):
        path = tmp_path / "bad.json"
        config = small_config(replicates=1).to_dict()
        path.write_text(json.dumps({"schema_version": 1, "config": config}))
        with pytest.raises(ParseError, match="malformed report"):
            load_report(path)

    def test_csv_rendering(self):
        report = run_experiment(small_config(replicates=2))
        lines = render_reports([report], "csv").splitlines()
        assert lines[0] == "process,statistic,order,replicates,mean,sd"
        assert len(lines) == 5  # header + slide 1,2 + level 1,2
        first = lines[1].split(",")
        assert first[0] == "uniform_cube(dim=2)"
        assert first[1] == "slide" and first[2] == "1"
        assert first[3] == "2"
        # repr round-trips the float exactly
        assert float(first[4]) == report.aggregates["slide:1"].mean

    def test_table_rendering(self):
        report = run_experiment(small_config(replicates=2))
        text = render_reports([report], "table")
        lines = text.splitlines()
        assert lines[0].split() == [
            "process", "statistic", "n", "reps", "mean", "sd", "1/mean",
        ]
        assert set(lines[1]) <= {"-", " "}
        assert "rho" in text and "lambda" in text
        mean = report.aggregates["slide:1"].mean
        assert f"{1.0 / mean:.6f}" in lines[2]

    def test_unknown_format(self):
        report = run_experiment(small_config(replicates=1))
        with pytest.raises(ConfigError):
            render_reports([report], "yaml")

    def test_aggregate_equality(self):
        assert Aggregate(1.0, None, 1) == Aggregate(1.0, None, 1)


class TestLoadPoints:
    def test_csv_with_header_and_comments(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n# comment\n0.0,1.0\n\n2.0,3.0\n")
        points = load_points(path)
        assert points.coords.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_csv_reports_offending_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.0,1.0\n2.0,oops\n")
        with pytest.raises(ParseError, match=r"line 2: non-numeric value 'oops'"):
            load_points(path)

    def test_csv_column_mismatch(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.0,1.0\n2.0\n")
        with pytest.raises(ParseError, match=r"line 2: expected 2 columns"):
            load_points(path)

    def test_csv_no_data(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_points(path)

    def test_json_flat_array(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("[1.0, 2.5, 4.0]")
        points = load_points(path)
        assert points.dimension == 1
        assert points.coords[:, 0].tolist() == [1.0, 2.5, 4.0]

    def test_json_coordinate_rows(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("[[0, 0], [1, 0], [0, 2]]")
        points = load_points(path)
        assert points.coords.shape == (3, 2)

    def test_json_rejects_booleans(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("[1.0, true, 2.0]")
        with pytest.raises(ParseError):
            load_points(path)

    def test_json_ragged_rows(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("[[1.0, 2.0], [3.0]]")
        with pytest.raises(ParseError):
            load_points(path)

    def test_unknown_suffix_needs_format(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ParseError, match="cannot infer format"):
            load_points(path)
        assert len(load_points(path, format="csv")) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_points(tmp_path / "absent.csv")

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0\nnan\n")
        with pytest.raises(ParseError):
            load_points(path)


def write_csv(tmp_path, text):
    path = tmp_path / "pts.csv"
    path.write_text(text)
    return path


class TestCsvEdgeCases:
    """The streaming CSV reader keeps the line-by-line parser's rules."""

    def test_whitespace_lines_and_indented_comments(self, tmp_path):
        path = write_csv(
            tmp_path, "   \n\t\n  # indented comment\n0.0,1.0\n \n  2.0 , 3.0  \r\n"
        )
        assert load_points(path).coords.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_header_after_leading_comments(self, tmp_path):
        path = write_csv(tmp_path, "# made by hand\n\n# units: m\nx,y\n0.5,1.5\n2,3\n")
        assert load_points(path).coords.tolist() == [[0.5, 1.5], [2.0, 3.0]]

    def test_second_non_numeric_line_names_its_line(self, tmp_path):
        path = write_csv(tmp_path, "# comment\nx,y\n\nunits,metres\n0,1\n")
        with pytest.raises(ParseError, match=r"line 4: non-numeric value 'units'"):
            load_points(path)

    def test_bad_value_far_down_names_its_file_line(self, tmp_path):
        rows = [f"{i},{i + 0.5}" for i in range(3000)]
        rows[2500] = "2500,oops"
        text = "x,y\n# every data row is followed by a comment\n"
        text += "".join(f"{row}\n# row\n" for row in rows)
        path = write_csv(tmp_path, text)
        with pytest.raises(ParseError, match=r"line 5003: non-numeric value 'oops'"):
            load_points(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,1\n2,3\n4\n", r"line 3: expected 2 columns, found 1"),
            ("0,1\n2,3,4\n", r"line 2: expected 2 columns, found 3"),
            ("0\n1\n\n2,3\n", r"line 4: expected 1 columns, found 2"),
            # a cell that is not a number is named before the column count
            ("0,1\nx\n", r"line 2: non-numeric value 'x'"),
        ],
    )
    def test_ragged_rows(self, tmp_path, text, message):
        with pytest.raises(ParseError, match=message):
            load_points(write_csv(tmp_path, text))

    @pytest.mark.parametrize(
        "text, message",
        [
            # the first line's empty cell makes it the header
            ("0,1,\n2,3,\n", r"line 2: non-numeric value ''"),
            ("0,1\n2,3,\n", r"line 2: non-numeric value ''"),
        ],
    )
    def test_trailing_comma(self, tmp_path, text, message):
        with pytest.raises(ParseError, match=message):
            load_points(write_csv(tmp_path, text))

    def test_single_row(self, tmp_path):
        points = load_points(write_csv(tmp_path, "x,y,z\n0.25,0.5,1e3\n"))
        assert points.coords.tolist() == [[0.25, 0.5, 1000.0]]

    def test_single_column(self, tmp_path):
        points = load_points(write_csv(tmp_path, "x\n1\n-2.5\n4\n"))
        assert points.coords.shape == (3, 1)
        assert points.coords[:, 0].tolist() == [1.0, -2.5, 4.0]

    def test_nan_in_a_row(self, tmp_path):
        with pytest.raises(ParseError, match="finite"):
            load_points(write_csv(tmp_path, "0,1\nnan,2\n"))

    def test_underscore_digits_are_not_numbers(self, tmp_path):
        # float() reads '1_0' as 10; np.loadtxt does not, and neither does the reader
        with pytest.raises(ParseError, match=r"line 2: non-numeric value '1_0'"):
            load_points(write_csv(tmp_path, "0,1\n1_0,2\n"))

    @pytest.mark.parametrize(
        "text", ["", "\n\n", "# only a comment\n", "x,y\n# no rows\n"]
    )
    def test_no_data_rows_without_warning(self, tmp_path, text):
        # pytest turns warnings into errors, so loadtxt's empty-input warning
        # would fail this test
        with pytest.raises(ParseError, match="no data rows"):
            load_points(write_csv(tmp_path, text))

    def test_lines_are_streamed(self, tmp_path):
        rows = np.random.default_rng(0).random((50_000, 2))
        path = tmp_path / "pts.csv"
        np.savetxt(path, rows, fmt="%.17g", delimiter=",")
        tracemalloc.start()
        try:
            parsed = harness._parse_csv_points(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A list of the 50,000 lines alone would take about 5 MB.
        assert peak < 2 * parsed.nbytes

    @settings(deadline=None, max_examples=100)
    @given(
        rows=st.integers(1, 40).flatmap(
            lambda width: st.lists(
                st.lists(st.floats(allow_nan=False), min_size=width, max_size=width),
                min_size=1,
                max_size=30,
            )
        ),
        style=st.sampled_from(["repr", "%.17g"]),
        padding=st.sampled_from(["", " ", "\t"]),
    )
    def test_values_match_float_bit_for_bit(
        self, tmp_path_factory, rows, style, padding
    ):
        def cell(value):
            text = repr(value) if style == "repr" else "%.17g" % value
            return padding + text + padding

        path = tmp_path_factory.mktemp("csv") / "pts.csv"
        lines = [",".join(cell(value) for value in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        expected = np.array(
            [[float(text) for text in line.split(",")] for line in lines]
        )
        parsed = harness._parse_csv_points(path)
        assert parsed.shape == expected.shape
        assert parsed.tobytes() == expected.tobytes()


class TestReportFromDict:
    def test_rejects_non_object(self):
        with pytest.raises(ParseError):
            ExperimentReport.from_dict([1, 2, 3])
