"""Command line front end.

Four subcommands: ``stats`` computes statistics of a point set stored in a
file, ``simulate`` runs a seeded replication experiment, ``validate`` runs
the built-in oracle cross-checks, and ``entropy`` evaluates a catalog
density.  Exit codes: 0 success, 1 failed validation, 2 bad configuration,
3 unparseable input, 4 divergent integral.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .corner_density import (
    analytic_catalog,
    genial_entropy,
    neg_log_slide,
    slide_function,
)
from .errors import ConfigError, DivergenceError, ParseError
from .geometry import PAIRWISE_CAP
from .harness import (
    ExperimentConfig,
    load_points,
    render_reports,
    run_experiment,
)
from .numerics import Interval, integrate
from .processes import process_kinds
from .slide_stats import (
    assembly_numbers,
    dimension_estimates,
    level_numbers,
    psi1,
    psi2_conjectured,
    psi_numeric,
    slide_numbers,
    tangibility_check,
)

_STAT_CHOICES = ("slide", "assembly", "level")


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
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


def _parse_kinds(text: str) -> tuple[str, ...]:
    kinds = tuple(part.strip() for part in text.split(",") if part.strip())
    for kind in kinds:
        if kind not in _STAT_CHOICES:
            raise ConfigError(
                f"unknown statistic {kind!r}; choose from {list(_STAT_CHOICES)}"
            )
    if not kinds:
        raise ConfigError("at least one statistic kind is required")
    return kinds


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


# ---------------------------------------------------------------- stats


def _stats_payload(args: argparse.Namespace) -> dict[str, Any]:
    points = load_points(args.file, args.points_format)
    orders = _parse_int_list(args.orders, "--orders")
    kinds = _parse_kinds(args.stat)
    payload: dict[str, Any] = {
        "source": args.file,
        "points": len(points),
        "dimension": points.dimension,
        "statistics": {},
    }
    for kind in kinds:
        if kind == "slide":
            report = slide_numbers(points, orders, cross_check=not args.no_cross_check)
        elif kind == "assembly":
            report = assembly_numbers(
                points,
                orders,
                cross_check=not args.no_cross_check,
                max_points=args.pairwise_cap,
            )
        else:
            report = level_numbers(points, max_order=max(orders))
        payload["statistics"][kind] = {
            "values": {str(o): report.values[o] for o in report.orders},
            "method": {str(o): report.method[o] for o in report.orders},
            "oracle_error": {str(o): g for o, g in report.oracle_error.items()},
        }
        if kind == "slide":
            payload["dimension_estimates"] = {
                str(o): v for o, v in dimension_estimates(report).items()
            }
            if 1 in report.orders and len(report.orders) > 1:
                verdict = tangibility_check(report, tol=args.tol)
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
    symbol = {"slide": "rho", "assembly": "alpha", "level": "lambda"}
    for kind, block in payload["statistics"].items():
        for order, value in block["values"].items():
            gap = block["oracle_error"].get(order)
            suffix = f"  (oracle gap {gap:.3g})" if gap is not None else ""
            lines.append(
                f"  {symbol[kind]}_{order} = {value: .6f}  "
                f"[{block['method'][order]}]{suffix}"
            )
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
        else:
            worst = max(verdict["residuals"].values(), default=float("nan"))
            lines.append(
                f"  not tangible at tolerance {verdict['tolerance']} "
                f"(worst residual {worst:.4f})"
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
    if args.stat is not None:
        orders = _parse_int_list(args.orders, "--orders")
        data["statistics"] = [
            {"kind": kind, "orders": list(orders)} for kind in _parse_kinds(args.stat)
        ]
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


def _check(name: str, passed: bool, detail: str, failures: list[str]) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"{tag}  {name}  ({detail})")
    if not passed:
        failures.append(name)


def _cmd_validate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    count = 200 if args.full else 40
    max_n = 500 if args.full else 200
    failures: list[str] = []

    worst1 = worst2 = 0.0
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        d = np.sort(np.exp(rng.uniform(-3.0, 3.0, size=n)))[::-1]
        worst1 = max(worst1, abs(psi1(d) - psi_numeric(d, 1).value))
        worst2 = max(worst2, abs(psi2_conjectured(d) - psi_numeric(d, 2).value))
    _check(
        "psi1 closed form vs derivative oracle",
        worst1 < 1e-6,
        f"{count} sequences, worst gap {worst1:.3g}",
        failures,
    )
    _check(
        "psi2 conjecture vs derivative oracle",
        worst2 < 1e-4,
        f"{count} sequences, worst gap {worst2:.3g}",
        failures,
    )

    worst = 0.0
    for name, params in (
        ("uniform", {}),
        ("neg_log", {}),
        ("exponential", {}),
        ("power", {"a": 0.25}),
        ("power", {"a": 0.5}),
        ("power", {"a": 0.9}),
        ("half_normal", {}),
        ("half_cauchy", {}),
    ):
        density = analytic_catalog(name, params)
        worst = max(worst, abs(genial_entropy(density) - density.known_entropy))
    _check(
        "catalog entropies vs quadrature",
        worst < 1e-6,
        f"8 densities, worst gap {worst:.3g}",
        failures,
    )

    neg_log = analytic_catalog("neg_log")
    worst = max(
        abs(slide_function(neg_log, t).value - neg_log_slide(t))
        for t in (0.1, 0.25, 0.5, 1.0, 2.0)
    )
    _check(
        "neg_log slide closed form vs quadrature",
        worst < 1e-6,
        f"worst gap {worst:.3g}",
        failures,
    )

    worst = 0.0
    for n, target in ((2, -1.0), (3, 2.0), (4, -9.0), (5, 44.0)):
        value = -integrate(
            lambda x, n=n: (1.0 + np.log(x)) ** n, Interval(0.0, 1.0)
        )
        worst = max(worst, abs(value - target))
    _check(
        "derangement integrals n=2..5",
        worst < 1e-6,
        f"worst gap {worst:.3g}",
        failures,
    )

    if failures:
        print(f"{len(failures)} check(s) failed")
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
    simulate.add_argument("--orders", default="1,2", help="comma separated orders")
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
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
