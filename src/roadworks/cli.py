"""Command-line front end for the upgrade-planning pipeline.

Subcommands: solve (one equilibrium run), deltas (populate a subset-delta
cache), predict-pairs (geometric interaction screening), select (budgeted
subset from cached deltas), schedule (multi-period plan), error-report
(estimator accuracy against cached exact deltas).  All of them reach the
subset layer in `scenario`: deltas fills a cache through compute_deltas,
select and error-report read it with table_from_cache and never solve, and
schedule keeps one cache per network and demand in --cache-dir through a
DeltaBook.

Exit codes: 0 success, 1 usage error, 2 data or input error, 3 solver
failure.  Any flag may instead be given in a JSON --config file keyed by the
flag name with dashes as underscores; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from itertools import combinations
from typing import Sequence

from .equilibrium import solve_with, write_flow_file, SolverSettings
from .errors import DataError, ParseError, SolverError
from .interaction import (
    compute_locations,
    format_pair_list,
    parse_pair_list,
    pairwise_distances,
    predict_pairs_clustering,
    predict_pairs_count,
    predict_pairs_threshold,
)
from .network import (
    DemandMatrix,
    Network,
    UpgradeSet,
    apply_upgrades,
    parse_demand,
    parse_network,
    parse_nodes,
    parse_upgrades,
)
from .portfolio import (
    SelectionProblem,
    evaluate_selection,
    format_selection,
    optimize_subset,
)
from .scenario import (
    DeltaBook,
    FileDeltaCache,
    compute_deltas,
    error_report,
    format_error_report,
    restricted,
    table_from_cache,
    warn_if_capped,
)
from .scheduler import (
    PlanningHorizon,
    check_schedule,
    format_schedule_listing,
    format_schedule_table,
    greedy_schedule,
    independent_schedule,
    parse_growth_rules,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems to exit code 1 instead
    def error(self, message):
        raise _UsageError(message)


_DEFAULTS = {
    "gap": 1e-4,
    "max_iters": 1000,
    "workers": 1,
    "m": 3650.0,
    "rate": 0.0,
    "seed": 0,
    "kmeans_restarts": 10,
    "mode": "individual",
    "orders": "1,2,3",
}

_COERCE = {
    "gap": float,
    "m": float,
    "rate": float,
    "budget": float,
    "pairs_threshold": float,
    "max_iters": int,
    "workers": int,
    "seed": int,
    "pairs_count": int,
    "kmeans_k": int,
    "kmeans_restarts": int,
    "max_size": int,
}


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the JSON config, then apply hard defaults."""
    if getattr(args, "config", None):
        try:
            data = json.loads(_read(args.config))
        except ValueError as exc:
            raise _UsageError(f"config {args.config}: {exc}")
        if not isinstance(data, dict):
            raise _UsageError(f"config {args.config}: expected a JSON object")
        for raw_key, value in data.items():
            key = raw_key.replace("-", "_")
            if not hasattr(args, key):
                raise _UsageError(f"config key {raw_key!r} matches no flag of this command")
            current = getattr(args, key)
            if current is None or current is False or current == []:
                setattr(args, key, value)
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    for key, conv in _COERCE.items():
        value = getattr(args, key, None)
        if value is not None:
            try:
                setattr(args, key, conv(value))
            except (TypeError, ValueError):
                raise _UsageError(f"--{key.replace('_', '-')}: bad value {value!r}")


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required")


def _load_network(args) -> Network:
    net = parse_network(_read(args.net))
    if getattr(args, "nodes", None):
        net = net.with_coordinates(parse_nodes(_read(args.nodes)))
    return net


def _load_upgrades(args, net: Network) -> UpgradeSet:
    _require(args, "upgrades")
    return parse_upgrades(_read(args.upgrades), network=net)


def _settings(args) -> SolverSettings:
    return SolverSettings(target_gap=args.gap, max_iters=args.max_iters)


def _split_tokens(text: str) -> list[str | int]:
    # bare integers are 1-based positions in the upgrade file, anything else an id
    return [int(tok) if tok.isdigit() else tok for tok in text.split(",") if tok]


def _emit(text: str, out: str | None) -> None:
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _pair_restriction(args, net: Network, upgrades: UpgradeSet):
    """Resolve the pair-screening flags to a set of id pairs, or None."""
    modes = [
        args.pairs_file is not None,
        args.pairs_threshold is not None,
        args.pairs_count is not None,
    ]
    if sum(modes) > 1:
        raise _UsageError("give at most one of --pairs-file, --pairs-threshold, --pairs-count")
    if args.pairs_file is not None:
        pairs = set(parse_pair_list(_read(args.pairs_file)))
        for pair in sorted(pairs):
            for i in pair:
                if i not in upgrades.by_id:
                    raise DataError(f"pair file names unknown upgrade {i!r}")
        return pairs
    if args.pairs_threshold is not None:
        return predict_pairs_threshold(pairwise_distances(net, upgrades), args.pairs_threshold)
    if args.pairs_count is not None:
        return predict_pairs_count(pairwise_distances(net, upgrades), args.pairs_count)
    return None


def _open_cache(args, net: Network, demand: DemandMatrix, settings: SolverSettings) -> FileDeltaCache:
    _require(args, "cache")
    return FileDeltaCache.open(args.cache, net, demand, settings)


def cmd_solve(args) -> int:
    _require(args, "net", "trips")
    net = _load_network(args)
    demand = parse_demand(_read(args.trips))
    if args.apply:
        upgrades = _load_upgrades(args, net)
        net = apply_upgrades(net, upgrades, _split_tokens(args.apply))
    settings = _settings(args)
    assignment = solve_with(net, demand, settings)
    if args.out:
        write_flow_file(args.out, net, assignment)
    print(f"vht {assignment.vht!r}")
    print(f"relative_gap {assignment.relative_gap!r}")
    print(f"iterations {assignment.iterations}")
    warn_if_capped(assignment.iterations, assignment.relative_gap, settings)
    return 0


def cmd_deltas(args) -> int:
    _require(args, "net", "trips", "upgrades")
    net = _load_network(args)
    demand = parse_demand(_read(args.trips))
    upgrades = _load_upgrades(args, net)
    settings = _settings(args)
    ids = upgrades.ids
    if args.mode == "individual":
        subsets: list[tuple] = [(i,) for i in ids]
    elif args.mode == "pairs":
        restriction = _pair_restriction(args, net, upgrades)
        pair_list = sorted(restriction) if restriction is not None else list(combinations(ids, 2))
        subsets = [(i,) for i in ids] + [tuple(p) for p in pair_list]
    elif args.mode == "all-subsets":
        top = args.max_size if args.max_size is not None else len(ids)
        if not 1 <= top <= len(ids):
            raise _UsageError(f"--max-size must lie in 1..{len(ids)}")
        subsets = [S for size in range(1, top + 1) for S in combinations(ids, size)]
    else:  # explicit
        if not args.subset:
            raise _UsageError("explicit mode needs at least one --subset")
        subsets = [tuple(_split_tokens(s)) for s in args.subset]
    cache = _open_cache(args, net, demand, settings) if args.cache else None
    table = compute_deltas(
        net, demand, upgrades, subsets, settings, cache=cache, workers=args.workers
    )
    lines = [f"baseline_vht {table.baseline_vht!r}"]
    for S in sorted(table.evaluated_subsets, key=lambda s: (len(s), s)):
        lines.append(f"{','.join(S)} {table.evaluated_subsets[S]!r} {table.gaps[S]!r}")
    lines.append(f"tap_solves {table.tap_solves}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_predict_pairs(args) -> int:
    _require(args, "net", "nodes", "upgrades")
    net = _load_network(args)
    upgrades = _load_upgrades(args, net)
    modes = [
        args.pairs_threshold is not None,
        args.pairs_count is not None,
        args.kmeans_k is not None,
    ]
    if sum(modes) != 1:
        raise _UsageError("give exactly one of --pairs-threshold, --pairs-count, --kmeans-k")
    distances = pairwise_distances(net, upgrades)
    if args.pairs_threshold is not None:
        pairs = predict_pairs_threshold(distances, args.pairs_threshold)
    elif args.pairs_count is not None:
        pairs = predict_pairs_count(distances, args.pairs_count)
    else:
        locations = compute_locations(net, upgrades)
        pairs = predict_pairs_clustering(
            locations, args.kmeans_k, restarts=args.kmeans_restarts, seed=args.seed
        )
    _emit(format_pair_list(pairs, distances), args.out)
    return 0


def cmd_select(args) -> int:
    _require(args, "net", "trips", "upgrades", "budget")
    net = _load_network(args)
    demand = parse_demand(_read(args.trips))
    upgrades = _load_upgrades(args, net)
    settings = _settings(args)
    cache = _open_cache(args, net, demand, settings)
    restriction = _pair_restriction(args, net, upgrades)
    wanted = [(i,) for i in upgrades.ids]
    if restriction is not None:
        wanted += [tuple(p) for p in sorted(restriction)]
    else:
        wanted += [S for S in cache.rows() if len(S) == 2]
    table = table_from_cache(cache, wanted)
    problem = SelectionProblem.from_delta_table(table, upgrades, budget=args.budget, m=args.m)
    selection = optimize_subset(problem)
    check = evaluate_selection(problem, selection.chosen)
    if check != selection or selection.spend > problem.budget:
        raise SolverError("internal error: selection failed re-validation")
    text = format_selection(problem, selection)
    text += "ids " + (",".join(selection.chosen) if selection.chosen else "(none)") + "\n"
    _emit(text, args.out)
    return 0


def _parse_budgets(raw) -> tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        parts = list(raw)
    else:
        parts = [p for p in str(raw).split(",") if p]
    try:
        return tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise _UsageError(f"--budgets: bad value {raw!r}")


def cmd_schedule(args) -> int:
    _require(args, "net", "trips", "upgrades", "budgets")
    net = _load_network(args)
    demand = parse_demand(_read(args.trips))
    upgrades = _load_upgrades(args, net)
    settings = _settings(args)
    budgets = _parse_budgets(args.budgets)
    rules = parse_growth_rules(_read(args.growth_file)) if args.growth_file else ()
    horizon = PlanningHorizon.with_growth(budgets, args.rate, demand, rules, m=args.m)
    if args.independent:
        book = DeltaBook(settings, workers=args.workers, cache_dir=args.cache_dir)
        period_values = {}
        for t in range(1, horizon.T + 1):
            table_t = book.deltas(
                net, horizon.demand_for(t), upgrades, [(i,) for i in upgrades.ids]
            )
            for i in upgrades.ids:
                period_values[(i, t)] = table_t.singles[i]
        schedule = independent_schedule(period_values, upgrades, horizon)
    else:
        pairs = _pair_restriction(args, net, upgrades) or ()
        schedule = greedy_schedule(
            net,
            upgrades,
            horizon,
            settings,
            pairs=pairs,
            workers=args.workers,
            cache_dir=args.cache_dir,
        )
    report = check_schedule(upgrades, horizon, schedule.assignments)
    if not report.ok:
        raise SolverError(
            "internal error: schedule failed feasibility re-check: "
            + "; ".join(report.violations)
        )
    text = format_schedule_table(upgrades, horizon, schedule)
    text += format_schedule_listing(schedule)
    _emit(text, args.out)
    return 0


def cmd_error_report(args) -> int:
    _require(args, "net", "trips", "upgrades")
    net = _load_network(args)
    demand = parse_demand(_read(args.trips))
    upgrades = _load_upgrades(args, net)
    settings = _settings(args)
    cache = _open_cache(args, net, demand, settings)
    table = table_from_cache(cache)
    used = table
    if args.pairs_file is not None:
        used = restricted(table, pairs=parse_pair_list(_read(args.pairs_file)))
    try:
        orders = [int(p) for p in str(args.orders).split(",") if p]
    except ValueError:
        raise _UsageError(f"--orders: bad value {args.orders!r}")
    if not orders or any(k < 1 for k in orders):
        raise _UsageError("--orders must list positive integers")
    rows = error_report(used, orders, reference=table)
    _emit(format_error_report(rows), args.out)
    return 0


def _add_common(p: argparse.ArgumentParser, *, nodes=True, upgrades=True) -> None:
    p.add_argument("--config", help="JSON file of flag defaults")
    p.add_argument("--net", help="TNTP network file")
    p.add_argument("--trips", help="TNTP trips (demand) file")
    if nodes:
        p.add_argument("--nodes", help="TNTP node coordinate file")
    if upgrades:
        p.add_argument("--upgrades", help="candidate upgrade file")
    p.add_argument("--gap", type=float, help="relative-gap convergence target")
    p.add_argument("--max-iters", type=int, help="iteration cap per equilibrium solve")
    p.add_argument("--workers", type=int, help="concurrent subset evaluations")
    p.add_argument("--out", help="also write the command's output here")


def _add_pair_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pairs-file", help="explicit significant-pair list")
    p.add_argument("--pairs-threshold", type=float, help="flag pairs closer than this")
    p.add_argument("--pairs-count", type=int, help="flag the closest N pairs")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="roadworks", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("solve", help="solve one user-equilibrium assignment")
    _add_common(p)
    p.add_argument("--apply", help="comma-separated upgrade ids to build first")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("deltas", help="evaluate upgrade subsets into a cache")
    _add_common(p)
    p.add_argument("--cache", help="delta cache file (created if absent)")
    p.add_argument(
        "--mode", choices=["individual", "pairs", "all-subsets", "explicit"],
        help="which subsets to evaluate",
    )
    p.add_argument("--subset", action="append", help="explicit subset (repeatable)")
    p.add_argument("--max-size", type=int, help="largest subset size for all-subsets")
    _add_pair_flags(p)
    p.set_defaults(func=cmd_deltas)

    p = sub.add_parser("predict-pairs", help="screen for interacting upgrade pairs")
    _add_common(p)
    _add_pair_flags(p)
    p.add_argument("--kmeans-k", type=int, help="cluster count for k-means screening")
    p.add_argument("--kmeans-restarts", type=int, help="k-means restarts")
    p.add_argument("--seed", type=int, help="seed for k-means")
    p.set_defaults(func=cmd_predict_pairs)

    p = sub.add_parser("select", help="pick the best subset within a budget")
    _add_common(p)
    p.add_argument("--cache", help="delta cache file holding the needed subsets")
    p.add_argument("--budget", type=float, help="total budget, k$")
    p.add_argument("--m", type=float, help="dollars per unit of daily VHT per year")
    _add_pair_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("schedule", help="plan upgrades across budget periods")
    _add_common(p)
    p.add_argument("--budgets", help="per-period budgets, comma separated, k$")
    p.add_argument("--rate", type=float, help="annual interest rate, e.g. 0.04")
    p.add_argument("--m", type=float, help="dollars per unit of daily VHT per year")
    p.add_argument("--growth-file", help="SCALE rules for per-period demand growth")
    p.add_argument("--independent", action="store_true", help="exact no-interaction model")
    p.add_argument("--cache-dir", help="directory of delta caches, one per network and demand")
    _add_pair_flags(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("error-report", help="estimator accuracy from cached deltas")
    _add_common(p)
    p.add_argument("--cache", help="delta cache file with exact subset deltas")
    p.add_argument("--orders", help="estimate orders to report, e.g. 1,2,3")
    p.add_argument("--pairs-file", help="restrict the estimator to these pairs")
    p.set_defaults(func=cmd_error_report)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            args = parser.parse_args(argv)
            _merge_config(args)
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
