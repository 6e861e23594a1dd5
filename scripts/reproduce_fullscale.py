#!/usr/bin/env python3
"""Reproduce the full-scale reference results on the original datasets.

This drives the whole pipeline (baseline assignment, per-project deltas,
pair screening, subset selection, multi-period scheduling) against a
full-size TNTP dataset such as Chicago Regional or Berlin.  Full-size runs
are NOT part of the test suite (the suite runs the script only on the small
desk network): a single baseline assignment on Chicago Regional takes on
the order of an hour at gap 1e-5, and the delta tables multiply that by the
number of candidate projects.  Run it on a beefy machine, point --cache-dir
at persistent storage, and expect to leave it overnight.

Every delta goes through one subset layer, `DeltaBook`: --cache-dir holds
one `deltas_<network>_<demand>.cache` per network and demand, shared by every
stage, the exact (realized) check of the independent schedule included, and
by reruns, so a rerun solves nothing.  The accuracy stage reports on every
row of the base file; the stage prints its path for `roadworks deltas --mode
all-subsets`.  Flags, warnings and errors are reported as `roadworks` reports
them, with its exit codes: a usage error exits 1.

Reference values for the original datasets (for eyeballing your output):

  chicago   baseline 33,657,132 VHT at gap 1.2e-5 (10,000 iteration cap)
            selected subset net value 168,358 k$ at B = 10,000 k$
            greedy schedule NPV 164,359 k$; independent-model schedule
            realizes 164,091 k$ (its own linear estimate is 145,648 k$);
            building everything at the horizon scores 148,151 k$
  berlin    baseline 20,817,229 VHT at gap 1e-6
            selected subset net value 456,532 k$ at B = 10,000 k$

The numbers your run prints will drift with the exact dataset revision,
gap target, and iteration cap; treat differences beyond a few tenths of a
percent as a sign the inputs differ, not the solver.

Example:

  python scripts/reproduce_fullscale.py \\
      --net ChicagoRegional_net.tntp --trips ChicagoRegional_trips.tntp \\
      --nodes ChicagoRegional_node.tntp --projects chicago_projects.upg \\
      --growth-file chicago_growth.rules --cache-dir ./chicago-cache
"""

import sys
import time

from roadworks import (
    DeltaBook,
    PlanningHorizon,
    SelectionProblem,
    SolverSettings,
    check_growth_zones,
    error_report,
    format_error_report,
    format_pair_list,
    format_schedule_listing,
    format_schedule_table,
    format_selection,
    greedy_schedule,
    independent_schedule,
    optimize_subset,
    pairwise_distances,
    parse_demand,
    parse_growth_rules,
    parse_network,
    parse_nodes,
    parse_upgrades,
    period_singles,
    predict_pairs_count,
    realized_npv,
    table_from_cache,
)
from roadworks.cli import UsageParser, parse_budgets, read_text, run_command


def stamp(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def build_parser():
    ap = UsageParser(description=__doc__.splitlines()[0])
    ap.add_argument("--net", required=True, help="TNTP network file")
    ap.add_argument("--trips", required=True, help="TNTP trips file")
    ap.add_argument("--nodes", help="TNTP node coordinates (enables pair screening)")
    ap.add_argument("--projects", required=True, help="candidate project file")
    ap.add_argument("--growth-file", help="SCALE rules for per-period demand growth")
    ap.add_argument("--gap", type=float, default=1e-5, help="relative gap target")
    ap.add_argument("--max-iters", type=int, default=10_000)
    ap.add_argument("--budget", type=float, default=10_000.0, help="selection budget, k$")
    ap.add_argument("--budgets", default="1000,4000,1500,3000,5000", help="per-period budgets, k$")
    ap.add_argument("--rate", type=float, default=0.04, help="annual interest rate")
    ap.add_argument("--m", type=float, default=3650.0, help="$ per daily-VHT unit per year")
    ap.add_argument("--pairs-count", type=int, default=8, help="closest pairs to evaluate")
    ap.add_argument("--cache-dir", default="./fullscale-cache")
    ap.add_argument(
        "--skip-schedule", action="store_true", help="stop after subset selection"
    )
    return ap


def main(argv=None):
    return run_command(run, sys.argv[1:] if argv is None else argv)


def run(argv):
    args = build_parser().parse_args(argv)
    budgets = parse_budgets(args.budgets)
    settings = SolverSettings(target_gap=args.gap, max_iters=args.max_iters)

    stamp(f"parsing {args.net}")
    net = parse_network(read_text(args.net))
    if args.nodes:
        net = net.with_coordinates(parse_nodes(read_text(args.nodes)))
    demand = parse_demand(read_text(args.trips))
    upgrades = parse_upgrades(read_text(args.projects), network=net)
    rules = parse_growth_rules(read_text(args.growth_file)) if args.growth_file else ()
    check_growth_zones(rules, net.zone_count)
    stamp(
        f"{net.node_count} nodes, {net.link_count} links, "
        f"{len(demand.q)} O-D entries, {len(upgrades.ids)} projects"
    )

    book = DeltaBook(settings, cache_dir=args.cache_dir)
    stamp(f"baseline assignment (gap {args.gap:g}, up to {args.max_iters} iterations)")
    table = book.deltas(net, demand, upgrades, [])
    stamp(f"baseline VHT {table.baseline_vht:,.0f} at gap {table.baseline_gap:.3e}")

    stamp("individual project deltas")
    singles = [(i,) for i in upgrades.ids]
    table = book.deltas(net, demand, upgrades, singles)
    for i in upgrades.ids:
        stamp(f"  delta {i}: {table.singles[i]:,.0f} VHT/day")

    pair_subsets = []
    if args.nodes and args.pairs_count:
        distances = pairwise_distances(net, upgrades)
        pairs = predict_pairs_count(distances, args.pairs_count)
        stamp(f"evaluating the {len(pairs)} geographically closest pairs")
        print(format_pair_list(pairs, distances), end="")
        pair_subsets = [tuple(p) for p in sorted(pairs)]
        table = book.deltas(net, demand, upgrades, singles + pair_subsets)

    stamp("estimator accuracy over the cached subsets (orders 1-3)")
    cache = book.cache(net, demand)
    cached = table_from_cache(cache)
    if any(len(S) >= 3 for S in cached.evaluated_subsets):
        print(format_error_report(error_report(cached, orders=[1, 2, 3])))
    else:
        stamp(
            f"  (no subsets of size >= 3 cached; run deltas --mode all-subsets "
            f"--gap {args.gap!r} --cache {cache.path} to fill)"
        )

    stamp(f"subset selection at B = {args.budget:,.0f} k$, m = {args.m:g}")
    problem = SelectionProblem.from_delta_table(table, upgrades, args.budget, m=args.m)
    selection = optimize_subset(problem)
    print(format_selection(problem, selection), end="")

    if args.skip_schedule:
        return 0

    horizon = PlanningHorizon.with_growth(budgets, args.rate, demand, rules, m=args.m)

    stamp(f"greedy schedule over {horizon.T} periods at r = {args.rate:g}")
    sched = greedy_schedule(net, upgrades, horizon, settings, pairs=pair_subsets, cache_dir=args.cache_dir)
    print(format_schedule_table(upgrades, horizon, sched), end="")
    print(format_schedule_listing(sched), end="")

    stamp("independent (no-interaction) schedule for comparison")
    indep = independent_schedule(period_singles(book, net, upgrades, horizon), upgrades, horizon)
    print(format_schedule_table(upgrades, horizon, indep), end="")
    stamp(f"independent model estimate {indep.npv:,.0f} k$; realizing it exactly")
    indep_real = realized_npv(net, upgrades, horizon, indep.assignments, settings, book=book)
    stamp(f"independent schedule realized NPV {indep_real:,.0f} k$")

    stamp("everything-at-the-horizon schedule for comparison")
    final_only = PlanningHorizon.with_growth(
        (0.0,) * (horizon.T - 1) + (sum(budgets),), args.rate, demand, rules, m=args.m
    )
    at_end = greedy_schedule(net, upgrades, final_only, settings, pairs=pair_subsets, cache_dir=args.cache_dir)
    stamp(f"at-horizon NPV {at_end.npv:,.0f} k$")
    return 0


if __name__ == "__main__":
    sys.exit(main())
