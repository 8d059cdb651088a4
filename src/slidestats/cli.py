"""Command line front end.

Four subcommands: ``stats`` computes statistics of a point set stored in a
file, ``simulate`` runs a seeded replication experiment, ``validate`` runs
the oracle checks of :data:`ORACLE_CHECKS`, and ``entropy`` evaluates a
catalog density.  ``validate`` runs the same rows as acceptance criteria 1-4
and 13, and ``validate --full --seed 915`` draws the corpus of criteria 1
and 2.  Exit codes: 0 success, 1 failed validation (any failed row), 2 bad
configuration or input (coinciding points included), 3 unparseable input,
4 divergent integral, 141 standard output closed by its reader
(128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .corner_density import (
    analytic_catalog,
    genial_entropy,
    slide_function,
)
from .errors import ConfigError, DivergenceError, DuplicatePointError, ParseError
from .geometry import PAIRWISE_CAP
from .harness import (
    ExperimentConfig,
    _checked_tol,
    load_points,
    render_reports,
    run_experiment,
)
from .numerics import Interval, integrate, right_derivatives
from .processes import process_kinds
# slide_numbers, assembly_numbers and level_numbers are no longer called here,
# but perfbench/run.py hooks these module attributes.
from .slide_stats import (  # noqa: F401
    _ORACLE_TOL,
    MAX_NUMERIC_ORDER,
    _checked_requests,
    _closed_forms,
    assembly_numbers,
    dimension_estimates,
    level_numbers,
    point_statistics,
    psi_numeric,
    slide_numbers,
    statistic_kind,
    tangibility_check,
)


def _parse_value(text: str) -> Any:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_params(pairs: Sequence[str] | None) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        params[key] = _parse_value(value)
    return params


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} expects comma separated integers, got {text!r}")
    return values


def _parse_kinds(text: str) -> tuple[str, ...]:
    kinds = tuple(part.strip() for part in text.split(",") if part.strip())
    if not kinds:
        raise ConfigError("at least one statistic kind is required")
    if len(set(kinds)) != len(kinds):
        raise ConfigError("statistic kinds must not repeat")
    return kinds


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


# ---------------------------------------------------------------- stats


def _stats_payload(args: argparse.Namespace) -> dict[str, Any]:
    orders = _parse_int_list(args.orders, "--orders")
    requests = dict.fromkeys(_parse_kinds(args.stat), orders)
    # A bad request or tolerance fails before the file is read.
    _checked_requests(requests)
    tol = _checked_tol(args.tol)
    points = load_points(args.file, args.points_format)
    payload: dict[str, Any] = {
        "source": args.file,
        "points": len(points),
        "dimension": points.dimension,
        "statistics": {},
    }
    reports = point_statistics(
        points,
        requests,
        cross_check=not args.no_cross_check,
        pairwise_cap=args.pairwise_cap,
    )
    for kind, report in reports.items():
        payload["statistics"][kind] = {
            "values": {str(o): report.values[o] for o in report.orders},
            "oracle_error": {str(o): g for o, g in report.oracle_error.items()},
        }
        if kind == "slide":
            payload["dimension_estimates"] = {
                str(o): v for o, v in dimension_estimates(report).items()
            }
            if 1 in report.orders and len(report.orders) > 1:
                verdict = tangibility_check(report, tol=tol)
                payload["tangibility"] = {
                    "tangible": verdict.tangible,
                    "consensus_dimension": verdict.consensus_dimension,
                    "residuals": {str(o): r for o, r in verdict.residuals.items()},
                    "tolerance": verdict.tolerance,
                }
    return payload


def _stats_text(payload: dict[str, Any]) -> str:
    lines = [
        f"{payload['source']}: {payload['points']} points, "
        f"dimension {payload['dimension']}"
    ]
    for kind, block in payload["statistics"].items():
        symbol = statistic_kind(kind).symbol
        for order, value in block["values"].items():
            gap = block["oracle_error"].get(order)
            suffix = f"  (oracle gap {gap:.3g})" if gap is not None else ""
            lines.append(f"  {symbol}_{order} = {value: .6f}{suffix}")
    estimates = payload.get("dimension_estimates")
    if estimates:
        shown = ", ".join(
            f"order {o}: {v:.4f}" if v is not None else f"order {o}: n/a"
            for o, v in estimates.items()
        )
        lines.append(f"  dimension estimates: {shown}")
    verdict = payload.get("tangibility")
    if verdict:
        if verdict["tangible"]:
            lines.append(
                f"  tangible at tolerance {verdict['tolerance']}: dimension "
                f"{verdict['consensus_dimension']:.4f}"
            )
        elif verdict["residuals"]:
            worst = max(verdict["residuals"].values())
            lines.append(
                f"  not tangible at tolerance {verdict['tolerance']} "
                f"(worst residual {worst:.4f})"
            )
        else:
            # tangibility_check compares no order when rho_1 <= 0.
            rho1 = payload["statistics"]["slide"]["values"]["1"]
            lines.append(
                f"  not tangible: rho_1 = {rho1:.6g} gives no dimension estimate"
            )
    return "\n".join(lines) + "\n"


def _cmd_stats(args: argparse.Namespace) -> int:
    payload = _stats_payload(args)
    if args.format == "json":
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write(_stats_text(payload), args.out)
    return 0


# ------------------------------------------------------------- simulate


def _simulate_config_data(args: argparse.Namespace) -> dict[str, Any]:
    statistics = None
    if args.stat is not None or args.orders is not None:
        # --orders alone means --stat slide, as in stats.  Parsed before the
        # config file is read, so a bad flag fails at once, as in stats.
        kinds = _parse_kinds("slide" if args.stat is None else args.stat)
        text = "1,2" if args.orders is None else args.orders
        orders = _parse_int_list(text, "--orders")
        statistics = [{"kind": kind, "orders": list(orders)} for kind in kinds]
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ParseError(f"{args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError(f"{args.config}: config must be a JSON object")
        process = data.get("process", {})
        if not isinstance(process, dict):
            raise ConfigError(f"process must be a JSON object, got {process!r}")
        if not isinstance(process.get("params", {}), dict):
            raise ConfigError(
                f"process params must be an object, got {process['params']!r}"
            )
    else:
        data = {}
    params = _parse_params(args.param)
    if args.process is not None:
        data["process"] = {"kind": args.process, "params": params}
    elif params:
        process = data.setdefault("process", {"kind": "uniform_cube", "params": {}})
        merged = dict(process.get("params", {}))
        merged.update(params)
        process["params"] = merged
    elif args.dims is not None and "process" not in data:
        data["process"] = {"kind": "uniform_cube", "params": {}}
    if args.size is not None:
        data["sample_size"] = args.size
    if args.replicates is not None:
        data["replicates"] = args.replicates
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.workers is not None:
        data["workers"] = args.workers
    if args.pairwise_cap is not None:
        data["pairwise_cap"] = args.pairwise_cap
    if args.tol is not None:
        data["tangibility_tol"] = args.tol
    if args.no_cross_check:
        data["cross_check"] = False
    if statistics is not None:
        data["statistics"] = statistics
    if "process" not in data:
        raise ConfigError(
            "no process specified; pass --process or a --config file "
            f"(kinds: {', '.join(process_kinds())})"
        )
    return data


def _cmd_simulate(args: argparse.Namespace) -> int:
    data = _simulate_config_data(args)
    if args.dims is None:
        reports = [run_experiment(ExperimentConfig.from_dict(data))]
    else:
        dims = _parse_int_list(args.dims, "--dims")
        if data["process"].get("kind") != "uniform_cube":
            raise ConfigError("--dims sweeps only the uniform_cube process")
        reports = []
        for dim in dims:
            swept = json.loads(json.dumps(data))  # deep copy, config stays JSON
            swept["process"].setdefault("params", {})["dim"] = dim
            reports.append(run_experiment(ExperimentConfig.from_dict(swept)))
    _write(render_reports(reports, args.format), args.out)
    return 0


# ------------------------------------------------------------- validate


def _oracle_corpus(seed: int, full: bool) -> list[np.ndarray]:
    """Random descending sequences whose logs are uniform on [-3, 3].

    200 of 2 to 500 values with ``full``, else 40 of 2 to 200.  Seed 915 with
    ``full`` gives the corpus of acceptance criteria 1 and 2.
    """
    rng = np.random.default_rng(seed)
    count, max_n = (200, 500) if full else (40, 200)
    sequences = []
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        sequences.append(np.sort(np.exp(rng.uniform(-3.0, 3.0, size=n)))[::-1])
    return sequences


def _slide_gap(order: int, seed: int, full: bool) -> float:
    return max(
        abs(_closed_forms(d, order)[order - 1] - psi_numeric(d, order).value)
        for d in _oracle_corpus(seed, full)
    )


_ENTROPY_DENSITIES = (
    ("uniform", {}), ("neg_log", {}), ("exponential", {}), ("power", {"a": 0.25}),
    ("power", {"a": 0.5}), ("power", {"a": 0.9}), ("half_normal", {}),
    ("half_cauchy", {}),
)


def _entropy_gap(seed: int, full: bool) -> float:
    return max(
        abs(genial_entropy(density) - density.known_entropy)
        for density in (analytic_catalog(*row) for row in _ENTROPY_DENSITIES)
    )


def _neg_log_curve_gap(seed: int, full: bool) -> float:
    density = analytic_catalog("neg_log")
    return max(
        abs(slide_function(density, t).value - density.known_slide(t))
        for t in (0.1, 0.25, 0.5, 1.0, 2.0)
    )


def _neg_log_derivative_gap(order: int, seed: int, full: bool) -> float:
    density = analytic_catalog("neg_log")
    estimate = right_derivatives(density.known_slide, order)[order - 1]
    return abs(estimate.value - density.known_derivatives(order))


def _derangement_gap(seed: int, full: bool) -> float:
    return max(
        abs(-integrate(lambda x, n=n: (1.0 + math.log(x)) ** n, Interval(0.0, 1.0)) - v)
        for n, v in ((2, -1.0), (3, 2.0), (4, -9.0), (5, 44.0))
    )


class OracleCheck(NamedTuple):
    """One check: it passes when ``worst_gap(seed, full)`` is below ``tol``.

    Only the slide rows read ``seed`` and ``full``, which pick the corpus.
    """

    name: str
    tol: float
    worst_gap: Callable[[int, bool], float]

    def run(self, seed: int, full: bool) -> tuple[bool, float]:
        worst = self.worst_gap(seed, full)
        return worst < self.tol, worst


# The one table of oracle checks; acceptance criteria 1-4 and 13 read it too.
ORACLE_CHECKS = (
    *(
        OracleCheck(
            f"slide order {order} closed form vs derivative oracle",
            _ORACLE_TOL[order],
            partial(_slide_gap, order),
        )
        for order in range(1, MAX_NUMERIC_ORDER + 1)
    ),
    OracleCheck("catalog entropies vs quadrature", 1e-6, _entropy_gap),
    OracleCheck("neg_log slide closed form vs quadrature", 1e-6, _neg_log_curve_gap),
    *(
        OracleCheck(
            f"neg_log slide order {order} derivative oracle vs closed form",
            tol,
            partial(_neg_log_derivative_gap, order),
        )
        for order, tol in ((1, 1e-4), (2, 1e-3))
    ),
    OracleCheck("derangement integrals n=2..5", 1e-6, _derangement_gap),
)


def _cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for row in ORACLE_CHECKS:
        passed, worst = row.run(args.seed, args.full)
        failures += not passed
        print(
            f"{'PASS' if passed else 'FAIL'}  {row.name}  "
            f"(worst gap {worst:.3g}, tolerance {row.tol:g})"
        )
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# -------------------------------------------------------------- entropy


def _cmd_entropy(args: argparse.Namespace) -> int:
    density = analytic_catalog(args.name, _parse_params(args.param))
    measured = genial_entropy(density)
    payload: dict[str, Any] = {
        "name": args.name,
        "params": _parse_params(args.param),
        "genial_entropy": measured,
        "known_entropy": density.known_entropy,
    }
    if density.known_entropy is not None:
        payload["gap"] = abs(measured - density.known_entropy)
    if args.curve:
        ts = [float(part) for part in args.curve.split(",")]
        payload["slide"] = {
            repr(t): slide_function(density, t).value for t in ts
        }
    if args.format == "json":
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
        return 0
    lines = [f"{args.name}: G = {measured:.12f}"]
    if density.known_entropy is not None:
        lines.append(
            f"  closed form {density.known_entropy:.12f}  "
            f"(gap {payload['gap']:.3g})"
        )
    for t, value in payload.get("slide", {}).items():
        lines.append(f"  sigma({t}) = {value:.12f}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidestats",
        description="Scale-invariant slide, assembly, and level statistics.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="statistics of a stored point set")
    stats.add_argument("file", help="CSV or JSON point file")
    stats.add_argument("--points-format", choices=("csv", "json"), default=None)
    stats.add_argument("--stat", default="slide", help="comma separated kinds")
    stats.add_argument("--orders", default="1,2", help="comma separated orders")
    stats.add_argument("--tol", type=float, default=0.1, help="tangibility tolerance")
    stats.add_argument("--pairwise-cap", type=int, default=PAIRWISE_CAP)
    stats.add_argument("--no-cross-check", action="store_true")
    stats.add_argument("--format", choices=("json", "text"), default="text")
    stats.add_argument("--out", default=None, help="write instead of printing")
    stats.set_defaults(func=_cmd_stats)

    simulate = sub.add_parser("simulate", help="seeded replication experiment")
    simulate.add_argument("--config", default=None, help="JSON experiment config")
    simulate.add_argument("--process", default=None, help="process kind")
    simulate.add_argument(
        "--param", action="append", help="process parameter key=value"
    )
    simulate.add_argument("--size", type=int, default=None, help="points per replicate")
    simulate.add_argument("--replicates", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=None, help="master seed")
    simulate.add_argument("--stat", default=None, help="comma separated kinds")
    simulate.add_argument(
        "--orders", default=None, help="comma separated orders (default 1,2)"
    )
    simulate.add_argument("--workers", type=int, default=None)
    simulate.add_argument("--pairwise-cap", type=int, default=None)
    simulate.add_argument("--tol", type=float, default=None)
    simulate.add_argument("--no-cross-check", action="store_true")
    simulate.add_argument(
        "--dims", default=None, help="sweep uniform_cube over these dimensions"
    )
    simulate.add_argument("--format", choices=("json", "csv", "table"), default="table")
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    validate = sub.add_parser("validate", help="run built-in oracle checks")
    validate.add_argument("--full", action="store_true", help="full 200-sequence corpus")
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=_cmd_validate)

    entropy = sub.add_parser("entropy", help="evaluate a catalog density")
    entropy.add_argument("name", help="catalog density name")
    entropy.add_argument("--param", action="append", help="density parameter key=value")
    entropy.add_argument("--curve", default=None, help="slide values at these t")
    entropy.add_argument("--format", choices=("json", "text"), default="text")
    entropy.add_argument("--out", default=None)
    entropy.set_defaults(func=_cmd_entropy)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # The reader is gone: say nothing, and send what stdout still buffers
        # to devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DuplicatePointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
