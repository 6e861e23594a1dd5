"""Per-layer metrics of one traced round, reduced from its spans.

The layers are the modules under src/roadworks.  Times are sums of span
durations unless a name says otherwise; durations of spans opened in the
program's worker threads add up, so a layer can be busy for longer than the
wall time of the round.
"""

from __future__ import annotations

import statistics

from tracing import layer_of, layer_totals, self_times

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "network.parse_s": "s",
    "network.apply_calls": "count",
    "network.apply_s": "s",
    "network.fingerprint_calls": "count",
    "network.fingerprint_s": "s",
    "shortest_path.tree_ms": "ms",
    "shortest_path.trees": "count",
    "equilibrium.fw_iters": "count",
    "equilibrium.iter_ms": "ms",
    "equilibrium.aon_ms": "ms",
    "equilibrium.step_ms": "ms",
    "equilibrium.solves": "count",
    "equilibrium.iters_total": "count",
    "equilibrium.solve_s_total": "s",
    "scenario.tap_solves": "count",
    "scenario.warm_tap_solves": "count",
    "scenario.deltas_s": "s",
    "scenario.solves_per_s": "1/s",
    "scenario.cache_rows": "count",
    "scenario.cache_bytes": "bytes",
    "scenario.cache_open_ms": "ms",
    "scenario.error_report_s": "s",
    "scenario.self_s": "s",
    "interaction.pairs_s": "s",
    "portfolio.select_s": "s",
    "portfolio.leaves": "count",
    "portfolio.self_s": "s",
    "scheduler.greedy_s": "s",
    "scheduler.independent_s": "s",
    "scheduler.realized_s": "s",
    "scheduler.independent_leaves": "count",
    "scheduler.self_s": "s",
    "cli.calls": "count",
    "cli.call_ms": "ms",
    "cli.self_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans, probe: dict, overhead_pct: float) -> dict[str, float]:
    """`probe` holds what the workload measured itself at the baseline's final
    latencies (tree_ms, trees, fw_iters, solve_s, aon_ms) and its cache files
    (cache_rows, cache_bytes)."""
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent_name = [names[s[3]] if s[3] >= 0 else "" for s in spans]

    def phase(i):
        while i >= 0 and not names[i].startswith("bench."):
            i = spans[i][3]
        return names[i] if i >= 0 else ""

    def pick(suffix, phases=None):
        return [i for i, n in enumerate(names)
                if n.endswith(suffix) and (phases is None or phase(i) in phases)]

    def total(idx):
        return sum(dur[i] for i in idx)

    pipeline = {"bench.plan", "bench.replan"}
    # the benchmark's own bookkeeping between phases is left out
    timed = pipeline | {"bench.setup", "bench.solve"}
    parses = [i for i, n in enumerate(names) if n.startswith("roadworks.network.parse_") and phase(i) in timed]
    apply = pick(".apply_upgrades", timed)
    prints = pick("network_fingerprint", timed) + pick("demand_fingerprint", timed)
    solves = pick(".solve_with", pipeline)
    deltas = pick(".compute_deltas", pipeline)
    opens = pick("FileDeltaCache.__init__")
    mains = pick("roadworks.cli.main")
    selfs = self_times(spans)
    layers = layer_totals(spans)
    tap = sum(spans[i][5] for i in deltas)
    deltas_s = total(deltas)
    iter_ms = 1000.0 * probe["solve_s"] / probe["fw_iters"]
    return {
        "network.parse_s": total(parses),
        "network.apply_calls": len(apply),
        "network.apply_s": total(apply),
        "network.fingerprint_calls": len(prints),
        "network.fingerprint_s": total(prints),
        "shortest_path.tree_ms": probe["tree_ms"],
        "shortest_path.trees": probe["trees"],
        "equilibrium.fw_iters": probe["fw_iters"],
        "equilibrium.iter_ms": iter_ms,
        "equilibrium.aon_ms": probe["aon_ms"],
        "equilibrium.step_ms": iter_ms - probe["aon_ms"],
        "equilibrium.solves": len(solves),
        "equilibrium.iters_total": sum(spans[i][5] for i in solves),
        "equilibrium.solve_s_total": total(solves),
        "scenario.tap_solves": tap,
        "scenario.warm_tap_solves": sum(spans[i][5] for i in pick(".compute_deltas", {"bench.replan"})),
        "scenario.deltas_s": deltas_s,
        "scenario.solves_per_s": tap / deltas_s if deltas_s > 0 else 0.0,
        "scenario.cache_rows": probe["cache_rows"],
        "scenario.cache_bytes": probe["cache_bytes"],
        "scenario.cache_open_ms": 1000.0 * statistics.median(dur[i] for i in opens) if opens else 0.0,
        "scenario.error_report_s": total(pick("roadworks.scenario.error_report")),
        "scenario.self_s": layers.get("scenario", (0, 0.0))[1],
        "interaction.pairs_s": total(
            i for i, n in enumerate(names)
            if layer_of(n) == "interaction" and layer_of(parent_name[i]) != "interaction"
        ),
        "portfolio.select_s": total(pick(".optimize_subset")),
        "portfolio.leaves": sum(1 for i in pick(".evaluate_selection") if parent_name[i].endswith(".optimize_subset")),
        "portfolio.self_s": layers.get("portfolio", (0, 0.0))[1],
        "scheduler.greedy_s": total(pick(".greedy_schedule")),
        "scheduler.independent_s": total(pick(".independent_schedule")),
        "scheduler.realized_s": total(pick(".realized_npv")),
        "scheduler.independent_leaves": sum(
            1 for i in pick(".schedule_npv") if parent_name[i].endswith(".independent_schedule")
        ),
        "scheduler.self_s": layers.get("scheduler", (0, 0.0))[1],
        "cli.calls": len(mains),
        "cli.call_ms": 1000.0 * statistics.median(dur[i] for i in mains) if mains else 0.0,
        "cli.self_ms": 1000.0 * sum(selfs[i] for i in mains),
        "trace.spans": len(spans),
        "trace.overhead_pct": overhead_pct,
    }
