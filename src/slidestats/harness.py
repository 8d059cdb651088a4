"""Seeded replication harness, report serialization, and point-set I/O.

An experiment pairs a point process with a sample size, a replicate count,
and a set of statistic requests.  Replicate ``r`` always draws from the
substream ``(master_seed, r)``, so a report is bit-for-bit reproducible no
matter how the replicates are scheduled across workers.  Each replicate is
one draw: a degenerate sample (coincident points) fails its replicate and is
recorded as a failure, never redrawn or dropped silently.

Configs and reports go through one JSON codec that walks the dataclass
fields both ways, encoding by field name and decoding by field type, so the
fields are the schema.  Every config check lives in ``__post_init__``: a
config built in code and one loaded from JSON obey one set of rules.  Csv
and table render the same rows, one per report, statistic and order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from itertools import chain
from pathlib import Path
from types import UnionType
from typing import Any, Iterable, Iterator, Sequence
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .errors import ConfigError, DuplicatePointError, ParseError
from .geometry import (
    PAIRWISE_CAP,
    PointSet,
    _pool_task_context,
    shared_rank_weights,
)
from .numerics import _checked_positive
from .processes import (
    GENERATOR_NAME,
    ProcessSpec,
    _POINT_FORMATS,
    _as_int,
    _ignores_stream,
    generate,
    substream,
)
# slide_numbers, assembly_numbers and level_numbers are no longer called here,
# but perfbench/run.py hooks these module attributes.
from .slide_stats import (  # noqa: F401
    SlideReport,
    TangibilityVerdict,
    _checked_requests,
    _dimension_summary,
    assembly_numbers,
    level_numbers,
    point_statistics,
    slide_numbers,
    statistic_kind,
)

__all__ = [
    "SCHEMA_VERSION",
    "Aggregate",
    "ExperimentConfig",
    "ExperimentReport",
    "FailedReplicate",
    "StatisticRequest",
    "emit_report",
    "format_table",
    "load_points",
    "load_report",
    "render_report",
    "render_reports",
    "run_experiment",
]

SCHEMA_VERSION = 2


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked_tol(tol: Any) -> float:
    """``tol`` under the rule of ``numerics._checked_positive``, as a ConfigError."""
    try:
        return _checked_positive(tol, "tangibility_tol")
    except ValueError:
        raise ConfigError(
            f"tangibility_tol must be a positive number, not inf or nan, got {tol!r}"
        ) from None


def _checked_cap(cap: int) -> None:
    """Check ``cap``, the most points a pairwise extraction takes.

    A cap below 2 allows no pair, so it is a ConfigError.
    """
    if cap < 2:
        raise ConfigError(f"pairwise_cap must be at least 2, got {cap!r}")


@dataclass(frozen=True)
class StatisticRequest:
    """One family of statistics to compute on every replicate."""

    kind: str
    orders: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        if not isinstance(self.orders, (list, tuple)):
            raise ConfigError(
                f"orders must be an array of integers, got {self.orders!r}"
            )
        try:
            _, wanted = _checked_requests({self.kind: self.orders})[self.kind]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "orders", tuple(wanted))

    def key(self, order: int) -> str:
        return f"{self.kind}:{order}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    Replicate ``r`` draws once, from the substream ``(master_seed, r)``.
    """

    process: ProcessSpec
    sample_size: int
    replicates: int
    statistics: tuple[StatisticRequest, ...] = (StatisticRequest("slide", (1, 2)),)
    master_seed: int = 0
    tangibility_tol: float = 0.1
    workers: int = 1
    pairwise_cap: int = PAIRWISE_CAP
    cross_check: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.process, ProcessSpec):
            raise ConfigError("process must be a ProcessSpec")
        if not isinstance(self.statistics, (list, tuple)) or not all(
            isinstance(request, StatisticRequest) for request in self.statistics
        ):
            raise ConfigError("statistics must be an array of statistic requests")
        object.__setattr__(self, "statistics", tuple(self.statistics))
        for name in (
            "sample_size", "replicates", "master_seed", "workers", "pairwise_cap"
        ):
            value = getattr(self, name)
            error = f"{name} must be an integer, got {value!r}"
            object.__setattr__(self, name, _as_int(value, error))
        if self.sample_size < 2:
            raise ConfigError("sample_size must be at least 2")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if not self.statistics:
            raise ConfigError("at least one statistic request is required")
        kinds = [request.kind for request in self.statistics]
        if len(set(kinds)) != len(kinds):
            raise ConfigError("statistic kinds must not repeat")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be nonnegative")
        object.__setattr__(self, "tangibility_tol", _checked_tol(self.tangibility_tol))
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        _checked_cap(self.pairwise_cap)
        if not isinstance(self.cross_check, bool):
            raise ConfigError(
                f"cross_check must be a boolean, got {self.cross_check!r}"
            )
        pairwise = [k for k in kinds if statistic_kind(k).extraction == "pairwise"]
        if pairwise and self.sample_size > self.pairwise_cap:
            raise ConfigError(
                f"{pairwise[0]} statistics need sample_size <= pairwise_cap "
                f"({self.sample_size} > {self.pairwise_cap})"
            )

    def to_dict(self) -> dict[str, Any]:
        """The config as a JSON object keyed by field name."""
        return _to_json(self)

    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentConfig":
        """Rebuild a config from ``to_dict`` output; absent optional keys default."""
        return _from_json(cls, data, "config")


@dataclass(frozen=True)
class Aggregate:
    """Mean and spread of one statistic across successful replicates."""

    mean: float
    sd: float | None
    count: int


@dataclass(frozen=True)
class FailedReplicate:
    """A replicate whose one draw failed, with the error it raised.

    ``replicate`` is also the index of the substream it drew from.
    """

    replicate: int
    error: str


@dataclass
class ExperimentReport:
    """Full result of one experiment, round-trippable through JSON."""

    config: ExperimentConfig
    per_replicate: dict[str, tuple[float, ...]]
    aggregates: dict[str, Aggregate]
    dimension_estimates: dict[int, float | None] | None
    tangibility: TangibilityVerdict | None
    failed_replicates: tuple[FailedReplicate, ...]
    provenance: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """The report as a JSON object keyed by field name, plus its schema."""
        return {"schema_version": SCHEMA_VERSION, **_to_json(self)}

    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentReport":
        """Rebuild a report (schema v1 or v2); malformed input is a ParseError."""
        try:
            version = data.get("schema_version")
            if version not in (1, SCHEMA_VERSION):
                raise ParseError(
                    f"unsupported report schema {version!r}; "
                    f"expected {SCHEMA_VERSION} or 1"
                )
            body = {k: v for k, v in data.items() if k != "schema_version"}
            if version == 1:  # v2 dropped process.seed and FailedReplicate.attempts
                body = json.loads(json.dumps(body))  # deep copy, to edit
                body["config"]["process"].pop("seed", None)
                for raw in body["failed_replicates"]:
                    raw.pop("attempts", None)
            return _from_json(cls, body, "report")
        except (AttributeError, ConfigError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed report: {exc}") from exc


def _to_json(value: Any) -> Any:
    """Encode dataclasses by field name, dicts with string keys, tuples as lists."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): _to_json(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def _json_kwargs(cls: type, data: Any, label: str) -> dict[str, Any]:
    """Keyword arguments for ``cls`` from a JSON object naming exactly its fields.

    Optional fields may be absent; the values are returned as given.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{label} must be a JSON object, got {data!r}")
    extra = set(data) - {f.name for f in fields(cls)}
    if extra:
        raise ConfigError(f"unknown {label} keys: {sorted(extra)}")
    required = {
        f.name for f in fields(cls) if f.default is MISSING is f.default_factory
    }
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing {label} keys: {sorted(missing)}")
    return dict(data)


# The field types of a dataclass, resolved once per class.
_field_types = cache(get_type_hints)


def _from_json(hint: Any, data: Any, label: str) -> Any:
    """Decode ``data`` as the type ``hint``: the inverse of ``_to_json``.

    A dataclass takes the object ``_json_kwargs`` accepts, its fields labelled
    by name; ``tuple[X, ...]`` takes only an array, its items labelled by the
    singular; ``dict[K, V]`` takes only an object, its keys cast to ``K``; and
    ``X | None`` passes None.  Leaf values are left to ``__post_init__``.
    """
    if is_dataclass(hint):
        types = _field_types(hint)
        kwargs = _json_kwargs(hint, data, label)
        return hint(**{k: _from_json(types[k], v, k) for k, v in kwargs.items()})
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        inner = next(arg for arg in args if arg is not type(None))
        return None if data is None else _from_json(inner, data, label)
    if origin is tuple:
        if not isinstance(data, list):
            raise ConfigError(f"{label} must be a JSON array, got {data!r}")
        return tuple(_from_json(args[0], v, label.removesuffix("s")) for v in data)
    if origin is dict:
        if not isinstance(data, dict):
            raise ConfigError(f"{label} must be a JSON object, got {data!r}")
        return {args[0](k): _from_json(args[1], v, label) for k, v in data.items()}
    return data


def _point_statistics(config: ExperimentConfig, points: PointSet) -> dict[str, float]:
    reports = point_statistics(
        points,
        {request.kind: request.orders for request in config.statistics},
        cross_check=config.cross_check,
        pairwise_cap=config.pairwise_cap,
    )
    values: dict[str, float] = {}
    for request in config.statistics:
        report = reports[request.kind]
        for order in request.orders:
            values[request.key(order)] = report.values[order]
            if order in report.oracle_error:
                values[f"{request.key(order)}:oracle_gap"] = report.oracle_error[order]
    return values


def _replicate_outcome(
    config: ExperimentConfig, replicate: int, fixed: PointSet | None
) -> dict[str, float] | FailedReplicate:
    """Statistics of one replicate's one draw; coincident points fail it.

    ``fixed`` is the point set of a deterministic kind, drawn once per
    experiment; otherwise the replicate draws from its own substream.
    """
    try:
        points = fixed
        if points is None:
            stream = substream(config.master_seed, replicate)
            points = generate(config.process, config.sample_size, stream=stream)
        return _point_statistics(config, points)
    except DuplicatePointError as exc:
        return FailedReplicate(replicate, str(exc))
    except Exception as exc:
        _name_draw(exc, replicate)
        raise


def _name_draw(exc: Exception, replicate: int) -> None:
    # Appending to __notes__ is what BaseException.add_note does on Python
    # 3.11+, and it also works on 3.10.
    note = f"replicate {replicate}, substream {replicate}"
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


def _fixed_points(config: ExperimentConfig) -> PointSet | None:
    """The one point set of a kind that ignores its stream, or None.

    Every replicate of such a kind would draw the same points, so they are
    drawn once; a failure is named as replicate 0's draw.
    """
    if not _ignores_stream(config.process.kind):
        return None
    try:
        return generate(
            config.process, config.sample_size, stream=substream(config.master_seed, 0)
        )
    except Exception as exc:
        _name_draw(exc, 0)
        raise


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every replicate, aggregate, and attach provenance.

    Deterministic for a given config, independent of the worker count;
    tangibility is judged on the aggregate slide means when order 1 and at
    least one higher order were requested.  With ``workers > 1`` the
    replicates run on that many threads of this process: their kernels
    release the GIL.  ``workers`` is then the run's whole thread budget,
    and each replicate's k-d tree queries run on its own pool thread.
    """
    fixed = _fixed_points(config)
    # The replicates share one array of rank weights per size, and none
    # outlives the run: at the default pairwise cap one size holds about
    # 100 MB.  A pool thread starts with an empty context, so each task runs
    # in its own copy of this one, which holds the same shared arrays and
    # queries on one thread.
    with shared_rank_weights():
        if config.workers == 1:
            outcomes = [
                _replicate_outcome(config, r, fixed) for r in range(config.replicates)
            ]
        else:
            from concurrent.futures import ThreadPoolExecutor

            contexts = [_pool_task_context() for _ in range(config.replicates)]
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                outcomes = list(
                    pool.map(
                        lambda context, r: context.run(
                            _replicate_outcome, config, r, fixed
                        ),
                        contexts,
                        range(config.replicates),
                    )
                )
    failures = tuple(o for o in outcomes if isinstance(o, FailedReplicate))
    successes = [o for o in outcomes if not isinstance(o, FailedReplicate)]
    per_replicate: dict[str, tuple[float, ...]] = {}
    if successes:
        for key in successes[0]:
            per_replicate[key] = tuple(values[key] for values in successes)
    aggregates = {key: _aggregate(values) for key, values in per_replicate.items()}

    estimates = None
    verdict = None
    slide_request = next(
        (request for request in config.statistics if request.kind == "slide"), None
    )
    if slide_request is not None and successes:
        mean_report = SlideReport(
            {
                order: aggregates[slide_request.key(order)].mean
                for order in slide_request.orders
            }
        )
        estimates, verdict = _dimension_summary(mean_report, config.tangibility_tol)

    provenance = {
        "package": "slidestats",
        "version": __version__,
        "generator": GENERATOR_NAME,
        "master_seed": config.master_seed,
        "schema_version": SCHEMA_VERSION,
    }
    return ExperimentReport(
        config=config,
        per_replicate=per_replicate,
        aggregates=aggregates,
        dimension_estimates=estimates,
        tangibility=verdict,
        failed_replicates=failures,
        provenance=provenance,
    )


def _aggregate(values: Sequence[float]) -> Aggregate:
    arr = np.asarray(values, dtype=float)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else None
    return Aggregate(float(arr.mean()), sd, int(arr.size))


def _process_label(spec: ProcessSpec) -> str:
    if not spec.params:
        return spec.kind
    inner = ",".join(f"{k}={spec.params[k]}" for k in sorted(spec.params))
    return f"{spec.kind}({inner})"


def render_report(report: ExperimentReport, format: str = "json") -> str:
    """Render one report as json, csv, or a text table."""
    return render_reports([report], format)


def render_reports(
    reports: Sequence[ExperimentReport], format: str = "table"
) -> str:
    """Render several reports together; csv and table concatenate rows.

    A json rendering of a single report is the bare report object (the form
    ``load_report`` reads back); several reports nest under ``reports``.
    """
    if not reports:
        raise ValueError("at least one report is required")
    if format == "json":
        if len(reports) == 1:
            payload = reports[0].to_dict()
        else:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "reports": [report.to_dict() for report in reports],
            }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if format == "csv":
        return _render_csv(reports)
    if format == "table":
        return format_table(reports)
    raise ConfigError(
        f"unknown report format {format!r}; choose from ['csv', 'json', 'table']"
    )


def _rows(
    reports: Sequence[ExperimentReport],
) -> Iterator[tuple[str, str, int, Aggregate | None]]:
    """(process label, kind, order, aggregate or None if all failed) per order."""
    for report in reports:
        label = _process_label(report.config.process)
        for request in report.config.statistics:
            for order in request.orders:
                agg = report.aggregates.get(request.key(order))
                yield label, request.kind, order, agg


def _render_csv(reports: Sequence[ExperimentReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["process", "statistic", "order", "replicates", "mean", "sd"])
    for label, kind, order, agg in _rows(reports):
        if agg is None:
            writer.writerow([label, kind, order, 0, "", ""])
        else:
            sd = "" if agg.sd is None else repr(agg.sd)
            writer.writerow([label, kind, order, agg.count, repr(agg.mean), sd])
    return buffer.getvalue()


def format_table(reports: Sequence[ExperimentReport]) -> str:
    """Aligned text table, one row per statistic order."""
    header = ("process", "statistic", "n", "reps", "mean", "sd", "1/mean")
    rows: list[tuple[str, ...]] = [header]
    for label, kind, order, agg in _rows(reports):
        start = (label, statistic_kind(kind).symbol, str(order))
        if agg is None:
            rows.append((*start, "0", "all replicates failed", "", ""))
            continue
        inverse = f"{1.0 / agg.mean:.6f}" if order == 1 and agg.mean > 0.0 else ""
        sd = "" if agg.sd is None else f"{agg.sd:.6f}"
        rows.append((*start, str(agg.count), f"{agg.mean:.6f}", sd, inverse))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def emit_report(
    report: ExperimentReport,
    format: str = "json",
    path: str | Path | None = None,
) -> str:
    """Render a report and optionally write it to ``path``; returns the text."""
    text = render_report(report, format)
    if path is not None:
        Path(path).write_text(text)
    return text


def load_report(path: str | Path) -> ExperimentReport:
    """Read back a json report written by ``emit_report``."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return ExperimentReport.from_dict(data)


def load_points(path: str | Path, format: str | None = None) -> PointSet:
    """Read a point set from a CSV or JSON file.

    CSV holds one point per line, coordinates comma separated; one header
    line is tolerated and ``#`` or blank lines are skipped; the lines are
    streamed into ``np.loadtxt``, never held as a list.  JSON holds an array
    of numbers (one dimension) or of equal-length coordinate arrays.
    Malformed input raises :class:`ParseError` naming the offending line.
    """
    p = Path(path)
    fmt = format
    if fmt is None:
        suffix = p.suffix.lower()
        if suffix == ".json":
            fmt = "json"
        elif suffix in (".csv", ".txt", ".dat"):
            fmt = "csv"
        else:
            raise ParseError(
                f"{p}: cannot infer format from suffix {suffix!r}; "
                "pass format='csv' or format='json'"
            )
    if fmt not in _POINT_FORMATS:
        raise ConfigError(f"unknown point format {fmt!r}")
    coords = _parse_json_points(p) if fmt == "json" else _parse_csv_points(p)
    try:
        return PointSet.from_coords(coords)
    except ValueError as exc:
        raise ParseError(f"{p}: {exc}") from exc


def _parse_csv_points(path: Path) -> np.ndarray:
    try:
        handle = open(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with handle:
        rows = _csv_rows(handle, path)
        first = next(rows, None)
        if first is None:
            raise ParseError(f"{path}: no data rows")
        try:
            return np.loadtxt(
                chain((first,), rows), delimiter=",", comments=None, ndmin=2
            )
        except ValueError as exc:
            error = exc
    # loadtxt names the row among the data rows only; find the file line.
    with open(path) as handle:
        for _ in _csv_rows(handle, path, check_cells=True):
            pass
    raise ParseError(f"{path}: {error}") from error


def _csv_rows(
    handle: Iterable[str], path: Path, check_cells: bool = False
) -> Iterator[str]:
    """The data lines of a points CSV, stripped, one at a time.

    Blank and ``#`` lines are skipped, and so is one non-numeric line before
    the first data row, as a header.  A row whose column count differs from
    the first row's raises :class:`ParseError` naming its line.  Cells are
    checked only on header candidates, ragged rows, and with ``check_cells``;
    otherwise they are left to ``np.loadtxt``.
    """
    width = None
    header_seen = False
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        columns = line.count(",") + 1
        if columns != width or check_cells:  # width is None before the first row
            bad = _non_numeric_cell(line)
            if bad is not None:
                if width is None and not header_seen:
                    header_seen = True
                    continue
                raise ParseError(f"{path}: line {lineno}: non-numeric value {bad!r}")
            if width is None:
                width = columns
            elif columns != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} columns, found {columns}"
                )
        yield line


def _non_numeric_cell(line: str) -> str | None:
    """The first cell of a CSV line that ``np.loadtxt`` cannot read as a float."""
    for cell in line.split(","):
        cell = cell.strip()
        try:
            float(cell)
        except ValueError:
            return cell
        if not cell.isascii() or "_" in cell:  # float() reads these, loadtxt not
            return cell
    return None


def _parse_json_points(path: Path) -> np.ndarray:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ParseError(f"{path}: expected a nonempty JSON array of points")
    if all(_is_number(value) for value in data):
        return np.asarray(data, dtype=float)
    if all(isinstance(value, list) for value in data):
        width = len(data[0])
        for index, point in enumerate(data):
            if len(point) != width:
                raise ParseError(
                    f"{path}: point {index} has {len(point)} coordinates, "
                    f"expected {width}"
                )
            if not all(_is_number(coord) for coord in point):
                raise ParseError(f"{path}: point {index} has a non-numeric coordinate")
        return np.asarray(data, dtype=float)
    raise ParseError(f"{path}: points must be all numbers or all coordinate arrays")
