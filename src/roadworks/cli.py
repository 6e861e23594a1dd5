"""Command-line front end for the upgrade-planning pipeline.

Subcommands: solve (one equilibrium run), deltas (populate a subset-delta
cache), predict-pairs (geometric interaction screening), select (budgeted
subset from cached deltas), schedule (multi-period plan), error-report
(estimator accuracy against cached exact deltas).  All of them reach the
subset layer in `scenario`: deltas fills a cache through compute_deltas,
select and error-report read an existing one with table_from_cache and never
solve or create one, and schedule keeps one cache per network and demand in
--cache-dir through a DeltaBook.  Solver flags go only to the commands that
read them; select and error-report take --gap alone, as the target gap their
cache was built at.

Exit codes (`run_command`): 0 success, 1 usage error, 2 data or input error,
3 solver failure.  Any flag may instead be given in a JSON --config file
keyed by the flag name with dashes as underscores.  Its values are read as
flag tokens put before the explicit ones, so explicit flags win: a string or
number is the flag's value text, true turns a switch on, false and null are
dropped, and a list is one --subset per element (dropped when --subset is
given) or, for any other flag, its elements joined with commas.  Other
values are usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from itertools import combinations
from typing import Callable, Sequence

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
    canonical_subset,
    compute_deltas,
    error_report,
    format_error_report,
    restricted,
    table_from_cache,
    warn_if_capped,
)
from .scheduler import (
    PlanningHorizon,
    check_growth_zones,
    check_schedule,
    format_schedule_listing,
    format_schedule_table,
    greedy_schedule,
    independent_schedule,
    parse_growth_rules,
    period_singles,
)


class _UsageError(Exception):
    pass


class UsageParser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are usage errors: `run_command` exits 1
    on them, where argparse would exit 2, the data-error code."""

    def error(self, message):
        raise _UsageError(message)


def read_text(path: str) -> str:
    """The text of the file at `path`; one that does not decode is a DataError naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not {exc.encoding} text ({exc.reason} at byte {exc.start})") from None


def _config_tokens(args: argparse.Namespace, flags: Sequence[str]) -> list[str]:
    """The --config file as flag tokens of this command, to go before the explicit ones."""
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise _UsageError(f"config {args.config}: {exc}")
    if not isinstance(data, dict):
        raise _UsageError(f"config {args.config}: expected a JSON object")
    tokens = []
    for key, value in data.items():
        flag = key.replace("_", "-")
        if flag not in flags:
            raise _UsageError(f"config key {key!r} matches no flag of this command")
        action = _FLAGS[flag].get("action")
        if value is None or value is False or (action == "append" and args.subset is not None):
            continue
        if action == "store_true":
            if value is not True:
                raise _UsageError(f"config key {key!r}: a switch takes true or false, not {value!r}")
            tokens.append(f"--{flag}")
            continue
        values = value if isinstance(value, list) else [value]
        if any(type(v) not in (str, int, float) for v in values):
            raise _UsageError(f"config key {key!r}: bad value {value!r}")
        texts = [str(v) for v in values]
        tokens += [f"--{flag}={text}" for text in (texts if action == "append" else [",".join(texts)])]
    return tokens


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required")


def _load_network(args) -> Network:
    net = parse_network(read_text(args.net))
    if getattr(args, "nodes", None):
        net = net.with_coordinates(parse_nodes(read_text(args.nodes)))
    return net


def _load_upgrades(args, net: Network) -> UpgradeSet:
    _require(args, "upgrades")
    return parse_upgrades(read_text(args.upgrades), network=net)


def _settings(args) -> SolverSettings:
    return SolverSettings(target_gap=args.gap, max_iters=args.max_iters)


def _split_tokens(text: str, upgrades: UpgradeSet) -> list[str | int]:
    # a token naming an upgrade is that id; other bare integers are 1-based positions in the file
    return [int(tok) if tok.isdigit() and tok not in upgrades.by_id else tok for tok in text.split(",") if tok]


def _emit(text: str, out: str | None) -> None:
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _read_pairs(path: str, upgrades: UpgradeSet) -> set[tuple[str, str]]:
    """The pairs of a --pairs-file; an id that names no upgrade is a DataError."""
    pairs = set(parse_pair_list(read_text(path)))
    for pair in sorted(pairs):
        for i in pair:
            if i not in upgrades.by_id:
                raise DataError(f"pair file names unknown upgrade {i!r}")
    return pairs


def _pair_restriction(args, net: Network, upgrades: UpgradeSet):
    """Resolve the pair-screening flags to a set of id pairs, or None."""
    if sum(x is not None for x in (args.pairs_file, args.pairs_threshold, args.pairs_count)) > 1:
        raise _UsageError("give at most one of --pairs-file, --pairs-threshold, --pairs-count")
    if args.pairs_file is not None:
        return _read_pairs(args.pairs_file, upgrades)
    if args.pairs_threshold is not None:
        return predict_pairs_threshold(pairwise_distances(net, upgrades), args.pairs_threshold)
    if args.pairs_count is not None:
        return predict_pairs_count(pairwise_distances(net, upgrades), args.pairs_count)
    return None


def _open_cache(args, net: Network, demand: DemandMatrix, create: bool = False) -> FileDeltaCache:
    """The --cache file; only deltas may create it, the readers open it or fail."""
    _require(args, "cache")
    settings = SolverSettings(target_gap=args.gap)
    if not create and not os.path.exists(args.cache):
        raise DataError(f"cache {args.cache} does not exist; run the deltas command to build it")
    return FileDeltaCache.open(args.cache, net, demand, settings)


def cmd_solve(args) -> int:
    net = _load_network(args)
    demand = parse_demand(read_text(args.trips))
    if args.apply:
        upgrades = _load_upgrades(args, net)
        net = apply_upgrades(net, upgrades, _split_tokens(args.apply, upgrades))
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
    net = _load_network(args)
    demand = parse_demand(read_text(args.trips))
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
        subsets = [canonical_subset(upgrades, _split_tokens(s, upgrades)) for s in args.subset]
    cache = _open_cache(args, net, demand, create=True) if args.cache else None
    table = compute_deltas(net, demand, upgrades, subsets, settings, cache=cache)
    lines = [f"baseline_vht {table.baseline_vht!r}"]
    for S in sorted(table.evaluated_subsets, key=lambda s: (len(s), s)):
        lines.append(f"{','.join(S)} {table.evaluated_subsets[S]!r} {table.gaps[S]!r}")
    lines.append(f"tap_solves {table.tap_solves}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_predict_pairs(args) -> int:
    net = _load_network(args)
    upgrades = _load_upgrades(args, net)
    if sum(x is not None for x in (args.pairs_threshold, args.pairs_count, args.kmeans_k)) != 1:
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
    net = _load_network(args)
    demand = parse_demand(read_text(args.trips))
    upgrades = _load_upgrades(args, net)
    cache = _open_cache(args, net, demand)
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


def parse_budgets(text: str) -> tuple[float, ...]:
    """Comma-separated per-period budgets; an empty or non-numeric element is a usage error."""
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"--budgets: bad value {text!r}")


def cmd_schedule(args) -> int:
    net = _load_network(args)
    demand = parse_demand(read_text(args.trips))
    upgrades = _load_upgrades(args, net)
    settings = _settings(args)
    budgets = parse_budgets(args.budgets)
    rules = parse_growth_rules(read_text(args.growth_file)) if args.growth_file else ()
    check_growth_zones(rules, net.zone_count)
    horizon = PlanningHorizon.with_growth(budgets, args.rate, demand, rules, m=args.m)
    if args.independent:
        book = DeltaBook(settings, cache_dir=args.cache_dir)
        schedule = independent_schedule(period_singles(book, net, upgrades, horizon), upgrades, horizon)
    else:
        pairs = _pair_restriction(args, net, upgrades) or ()
        schedule = greedy_schedule(net, upgrades, horizon, settings, pairs=pairs, cache_dir=args.cache_dir)
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
    try:
        orders = [int(p) for p in args.orders.split(",")]
    except ValueError:
        raise _UsageError(f"--orders: bad value {args.orders!r}")
    if any(k < 1 for k in orders):
        raise _UsageError("--orders must list positive integers")
    net = _load_network(args)
    demand = parse_demand(read_text(args.trips))
    upgrades = _load_upgrades(args, net)
    cache = _open_cache(args, net, demand)
    table = table_from_cache(cache)
    if not any(len(S) >= 3 for S in table.evaluated_subsets):
        raise DataError(
            f"cache {args.cache} holds no subset of size >= 3 to check the estimator against; "
            f"run deltas --mode all-subsets --gap {args.gap!r} --cache {args.cache} to fill it"
        )
    used = table
    if args.pairs_file is not None:
        used = restricted(table, pairs=_read_pairs(args.pairs_file, upgrades))
    rows = error_report(used, orders, reference=table)
    _emit(format_error_report(rows), args.out)
    return 0


# Every flag once, as its argparse keywords; a command lists the flags it takes.
_FLAGS = {
    "config": dict(help="JSON file of flag defaults"),
    "net": dict(help="TNTP network file"),
    "trips": dict(help="TNTP trips (demand) file"),
    "nodes": dict(help="TNTP node coordinate file"),
    "upgrades": dict(help="candidate upgrade file"),
    "out": dict(help="also write the command's output here"),
    "gap": dict(type=float, default=1e-4, help="relative-gap convergence target"),
    "max-iters": dict(type=int, default=1000, help="iteration cap per equilibrium solve"),
    "apply": dict(help="comma-separated upgrade ids to build first"),
    "cache": dict(help="delta cache file (deltas creates it if absent)"),
    "mode": dict(choices=["individual", "pairs", "all-subsets", "explicit"], default="individual",
                 help="which subsets to evaluate"),
    "subset": dict(action="append", help="explicit subset (repeatable)"),
    "max-size": dict(type=int, help="largest subset size for all-subsets"),
    "pairs-file": dict(help="explicit significant-pair list"),
    "pairs-threshold": dict(type=float, help="flag pairs closer than this"),
    "pairs-count": dict(type=int, help="flag the closest N pairs"),
    "kmeans-k": dict(type=int, help="cluster count for k-means screening"),
    "kmeans-restarts": dict(type=int, default=10, help="k-means restarts"),
    "seed": dict(type=int, default=0, help="seed for k-means"),
    "budget": dict(type=float, help="total budget, k$"),
    "budgets": dict(help="per-period budgets, comma separated, k$"),
    "rate": dict(type=float, default=0.0, help="annual interest rate, e.g. 0.04"),
    "m": dict(type=float, default=3650.0, help="dollars per unit of daily VHT per year"),
    "growth-file": dict(help="SCALE rules for per-period demand growth"),
    "independent": dict(action="store_true", help="exact no-interaction model"),
    "cache-dir": dict(help="directory of delta caches, one per network and demand"),
    "orders": dict(default="1,2,3", help="estimate orders to report, e.g. 1,2,3"),
}

_INPUTS = "config net trips nodes upgrades out"
_PAIRS = "pairs-file pairs-threshold pairs-count"
# name: (help, function, the flags it requires, the flags it takes beyond _INPUTS)
_COMMANDS = {
    "solve": ("solve one user-equilibrium assignment", cmd_solve, "net trips", "gap max-iters apply"),
    "deltas": ("evaluate upgrade subsets into a cache", cmd_deltas, "net trips upgrades",
               f"gap max-iters cache mode subset max-size {_PAIRS}"),
    "predict-pairs": ("screen for interacting upgrade pairs", cmd_predict_pairs, "net nodes upgrades",
                      "pairs-threshold pairs-count kmeans-k kmeans-restarts seed"),
    "select": ("pick the best subset within a budget", cmd_select, "net trips upgrades budget",
               f"gap cache budget m {_PAIRS}"),
    "schedule": ("plan upgrades across budget periods", cmd_schedule, "net trips upgrades budgets",
                 f"gap max-iters budgets rate m growth-file independent cache-dir {_PAIRS}"),
    "error-report": ("estimator accuracy from cached deltas", cmd_error_report, "net trips upgrades",
                     "gap cache orders pairs-file"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The roadworks parser, built once per process and shared: never modify it."""
    parser = UsageParser(prog="roadworks", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (text, _, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in f"{_INPUTS} {flags}".split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run_command(func: Callable[..., int], *args) -> int:
    """The exit code of `func(*args)` run as a command: warnings and errors
    print as one stderr line each, and an error exits 1 (usage), 2 (input or
    data) or 3 (solver)."""
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return func(*args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _, func, required, flags = _COMMANDS[args.command]
    if args.config:
        tokens = _config_tokens(args, f"{_INPUTS} {flags}".split())
        args = parser.parse_args(argv[:1] + tokens + argv[1:])
    _require(args, *required.split())
    return func(args)


def main(argv: Sequence[str] | None = None) -> int:
    return run_command(_main, sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
