"""The three workloads: sf-plan, grid-solve and desk-cli.

Each workload parses its inputs (`setup`), then runs rounds.  A round times
three kinds of work: baseline solves (`solve_s`), the planning pipeline with
every equilibrium solved afresh (`plan_s`, the cold pass), and the same
pipeline again over the caches the cold pass wrote (`replan_s`, the warm
pass, which solves nothing).  The cold pass takes the baseline from the
round's first baseline solve, so no solve is timed twice.  Every round repeats
the same operations, and `check` tests the first round against computations
made apart from the program; later rounds must reproduce its outputs.

The seed never changes the amount of work, so that the spread of the figures
over seeds measures noise: it orders the warm-pass sweeps, and for grid-solve
it relabels the generated grid.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import resource
import statistics
import time
from itertools import combinations

import roadworks as rw
import roadworks.cli

import gridgen
import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
M = 3650.0


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


class Ops:
    """Operations a round attempted and how many of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def solve(self, assignment, target: float, what: str) -> None:
        self.add(assignment.relative_gap <= target, f"{what} stopped at gap {assignment.relative_gap:.3g}")

    def cache_rows(self, paths, target: float) -> None:
        """One operation per solve a delta cache recorded; it failed if it stopped above the target."""
        for path in paths:
            _, baseline, rows = oracles.read_cache(path)
            results = ([("BASELINE",) + baseline] if baseline else []) + [(",".join(S),) + r for S, r in rows.items()]
            for name, _, gap in results:
                self.add(gap <= target, f"{os.path.basename(path)} {name} stopped at gap {gap:.3g}")


class Round:
    """Timings and outputs of one round.

    The host switches between a fast and a slow state about every second, so
    a median of short samples flips between the two; the figures are means
    over samples spread across the round instead."""

    def __init__(self, rdir: str):
        self.dir = rdir
        os.makedirs(rdir)
        self.solve_times: list[float] = []
        self.plan_s = 0.0
        self.warm_times: dict[str, list[float]] = {}  # per warm step
        self.warm_first: dict[str, object] = {}  # the first output of each warm step
        self.warm_fresh = False  # a warm step solved or wrote a delta cache
        self.warm_repeats = True  # every sample of a warm step gave its first output
        self.baseline = None  # the first baseline Assignment of the round
        self.out: dict = {}  # outputs that every round must reproduce

    @property
    def solve_s(self) -> float:
        return statistics.fmean(self.solve_times)

    @property
    def replan_s(self) -> float:
        return sum(statistics.fmean(times) for times in self.warm_times.values())


def cpu_seconds() -> float:
    """CPU time, user and system, of this process and of its children that ended.

    The timings are CPU time, not wall time: on a shared virtual machine the
    hypervisor takes the processor away now and then (steal), which stretches
    wall time by up to half and spreads it far beyond any useful bound, while
    CPU time leaves the stolen periods out."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _timed(fn, *args, **kwargs):
    start = cpu_seconds()
    result = fn(*args, **kwargs)
    return result, cpu_seconds() - start


def cache_paths(rdir: str) -> list[str]:
    out = []
    for base, _, names in os.walk(rdir):
        out += [os.path.join(base, n) for n in sorted(names) if n.endswith(".cache")]
    return sorted(out)


def _sizes(paths) -> dict[str, int]:
    return {p: os.path.getsize(p) for p in paths}


class Workload:
    name = ""
    gap = 1e-4
    setup_reps = 5
    # A round is: baseline solves, the cold pass, then `cycles` times every
    # warm step `warm_per_cycle` times followed by baseline solves, so that
    # the samples of both spread over the round.
    solves_per_slot = 1
    cycles = 2
    warm_per_cycle = 1

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def shuffled(self, values: list) -> list:
        """The sweep values in an order drawn from the seed; the work stays the same."""
        self.rng.shuffle(values)
        return values

    def baseline_solves(self, inp, rnd: Round, ops: Ops, span) -> None:
        for _ in range(self.solves_per_slot):
            gc.collect()
            with span("bench.solve"):
                base, seconds = _timed(rw.solve_with, inp["net"], inp["demand"], inp["settings"])
            ops.solve(base, self.gap, "baseline solve")
            rnd.solve_times.append(seconds)
            rnd.baseline = rnd.baseline or base

    def cold(self, rnd: Round, ops: Ops, span, label: str, fn, *args):
        """One step of the cold pass; its time adds to plan_s."""
        gc.collect()
        with span("bench.plan"):
            result, seconds = _timed(fn, *args)
        rnd.plan_s += seconds
        ops.add(True, label)
        return result

    def warm(self, rnd: Round, ops: Ops, span, label: str, fn, *args):
        """One sample of a warm step; the step's mean adds to replan_s.

        A warm step reads the caches and writes nothing, so every sample must
        give the output of the first and leave the cache files as they were.
        Returns the first output."""
        before = _sizes(cache_paths(rnd.dir))
        gc.collect()
        with span("bench.replan"):
            result, seconds = _timed(fn, *args)
        rnd.warm_times.setdefault(label, []).append(seconds)
        first = rnd.warm_first.setdefault(label, result)
        rnd.warm_repeats &= result == first
        rnd.warm_fresh |= _sizes(cache_paths(rnd.dir)) != before
        ops.add(True, label)
        return first

    def warm_cycles(self, inp, rnd: Round, ops: Ops, span, steps) -> list:
        """`cycles` times: each warm step (label, fn, *args) `warm_per_cycle`
        times, then baseline solves."""
        for _ in range(self.cycles):
            for _ in range(self.warm_per_cycle):
                outputs = [self.warm(rnd, ops, span, *step) for step in steps]
            self.baseline_solves(inp, rnd, ops, span)
        return outputs

    def probe(self, inp, rnd: Round, index: int) -> dict:
        """Layer timings of single public calls at the baseline's final latencies,
        and the delta caches that round `index` wrote."""
        net, demand = inp["net"], inp["demand"]
        base = rnd.baseline
        lat = base.latencies.tolist()
        origins = [r for r, _ in demand.by_origin]
        trees = [_timed(rw.shortest_paths, net, lat, r)[1] for r in origins]
        aon = [_timed(rw.all_or_nothing, net, demand, lat)[1] for _ in range(3)]
        files = cache_paths(self.round_dir(index))
        return {
            "tree_ms": 1000.0 * statistics.median(trees),
            "trees": (base.iterations + 1) * len(origins),
            "fw_iters": base.iterations,
            "solve_s": rnd.solve_s,
            "aon_ms": 1000.0 * statistics.median(aon),
            "cache_rows": sum(1 for p in files for line in _read(p).splitlines()
                              if len(line.split()) == 3 and line.split()[0] != "target_gap"),
            "cache_bytes": sum(os.path.getsize(p) for p in files),
        }

    def round_dir(self, index: int) -> str:
        return os.path.join(self.workdir, f"round{index}")

    def check_baseline(self, inp, rnd: Round) -> list[str]:
        base = rnd.baseline
        meta, links = oracles.read_links(inp["net_text"])
        trips = oracles.read_trips(inp["trips_text"])
        return oracles.check_assignment(meta, links, trips, base.flows, base.vht,
                                        base.beckmann_history, self.gap, f"{self.name} baseline")


# ---------------------------------------------------------------------------


class SfPlan(Workload):
    """Sioux Falls and its four projects through the Python API at gap 1e-4."""

    name = "sf-plan"
    setup_reps = 15
    cycles = 4
    warm_per_cycle = 3
    workers = 2
    select_budget = 3000.0
    budgets = (2000.0, 1000.0)
    rate = 0.04
    growth = (rw.GrowthRule(tuple(range(1, 25)), 1.03),)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.select_sweep = self.shuffled([600.0, 1200.0, 1800.0, 2400.0, 3000.0, 3600.0, 4200.0])
        self.budget_sweep = self.shuffled([(500.0, 2500.0), (1000.0, 2000.0), (2500.0, 500.0), (3000.0, 3000.0)])

    def setup(self):
        texts = {k: _read(os.path.join(DATA, f"siouxfalls_{k}")) for k in
                 ("net.tntp", "trips.tntp", "nodes.tntp", "upgrades.upg")}
        net = rw.parse_network(texts["net.tntp"]).with_coordinates(rw.parse_nodes(texts["nodes.tntp"]))
        net.adjacency
        return {
            "net": net,
            "demand": rw.parse_demand(texts["trips.tntp"]),
            "upgrades": rw.parse_upgrades(texts["upgrades.upg"], network=net),
            "settings": rw.SolverSettings(target_gap=self.gap),
            "net_text": texts["net.tntp"],
            "trips_text": texts["trips.tntp"],
            "upgrades_text": texts["upgrades.upg"],
        }

    def subsets(self, ups):
        return [(i,) for i in ups.ids] + list(combinations(ups.ids, 2))

    def horizon(self, demand, budgets):
        return rw.PlanningHorizon.with_growth(budgets, self.rate, demand, self.growth, m=M)

    def period_cache(self, inp, rdir, t, demand_t) -> str:
        """Where the singles of period t are cached.

        Period 1 is the base network under the base demand, whose singles the
        delta table already holds.  The last period is what greedy_schedule
        solved in its first step (base network, horizon demand); its file is
        found by the fingerprints in the cache header.  Other periods get a
        file of their own.
        """
        if t > 1:
            key = (rw.network_fingerprint(inp["net"]), rw.demand_fingerprint(demand_t))
            found = oracles.cache_files(os.path.join(rdir, "greedy")).get(key)
            if found:
                return found
        return os.path.join(rdir, f"period{t}.cache")

    def period_values(self, inp, paths, horizon):
        values = {}
        for t, path in enumerate(paths, start=1):
            demand_t = horizon.demand_for(t)
            cache = rw.FileDeltaCache.open(path, inp["net"], demand_t, inp["settings"])
            table = rw.compute_deltas(inp["net"], demand_t, inp["upgrades"], [(i,) for i in inp["upgrades"].ids],
                                      inp["settings"], cache=cache, workers=self.workers)
            values.update({(i, t): table.singles[i] for i in inp["upgrades"].ids})
        return values

    def round(self, inp, index, ops, span) -> Round:
        rnd = Round(self.round_dir(index))
        net, demand, ups, settings = inp["net"], inp["demand"], inp["upgrades"], inp["settings"]
        horizon = self.horizon(demand, self.budgets)

        def deltas(budgets):
            cache = rw.FileDeltaCache.open(os.path.join(rnd.dir, "period1.cache"), net, demand, settings)
            if cache.baseline() is None:
                cache.set_baseline(rnd.baseline.vht, rnd.baseline.relative_gap)
            table = rw.compute_deltas(net, demand, ups, self.subsets(ups), settings, cache=cache, workers=self.workers)
            return table, [rw.optimize_subset(rw.SelectionProblem.from_delta_table(table, ups, budget=b, m=M))
                           for b in budgets]

        def greedy():
            return rw.greedy_schedule(net, ups, horizon, settings, workers=self.workers,
                                      cache_dir=os.path.join(rnd.dir, "greedy"))

        def independent(vectors):
            values = self.period_values(inp, rnd.period_paths, horizon)
            return values, [rw.independent_schedule(values, ups, self.horizon(demand, v)) for v in vectors]

        self.baseline_solves(inp, rnd, ops, span)
        table, (selection,) = self.cold(rnd, ops, span, "compute_deltas", deltas, [self.select_budget])
        plan = self.cold(rnd, ops, span, "greedy_schedule", greedy)
        rnd.period_paths = [self.period_cache(inp, rnd.dir, t, horizon.demand_for(t)) for t in range(1, horizon.T + 1)]
        values, (schedule,) = self.cold(rnd, ops, span, "independent_schedule", independent, [self.budgets])
        realized = self.cold(rnd, ops, span, "realized_npv", rw.realized_npv,
                             net, ups, horizon, plan.assignments, settings)
        (warm_table, sweep), warm_plan, (warm_values, schedules) = self.warm_cycles(inp, rnd, ops, span, [
            ("warm compute_deltas", deltas, [self.select_budget] + self.select_sweep),
            ("warm greedy_schedule", greedy),
            ("warm independent_schedule", independent, [self.budgets] + self.budget_sweep),
        ])
        ops.cache_rows(cache_paths(rnd.dir), self.gap)

        rnd.cold = {"table": table, "selection": selection, "greedy": plan, "independent": schedule, "values": values}
        rnd.warm = {"table": warm_table, "selection": sweep[0], "sweep": sweep[1:], "greedy": warm_plan,
                    "independent": schedules[0], "schedules": schedules[1:], "values": warm_values}
        rnd.horizon = horizon
        rnd.out = {
            "deltas": table.evaluated_subsets,
            "selection": selection,
            "greedy": (plan.assignments, plan.npv),
            "independent": (schedule.assignments, schedule.npv),
            "realized": realized,
            "sweep": [s.chosen for s in sweep],
            "schedules": [(s.assignments, s.npv) for s in schedules],
        }
        return rnd

    def check(self, inp, rnd: Round) -> list[str]:
        ups, cold, warm = inp["upgrades"], rnd.cold, rnd.warm
        costs = oracles.read_costs(inp["upgrades_text"])
        fails = self.check_baseline(inp, rnd)
        _, _, rows = oracles.read_cache(os.path.join(rnd.dir, "period1.cache"))
        values, corrections = oracles.model_from_rows(rows, ups.ids, combinations(ups.ids, 2))
        fails += oracles.check_selection(cold["selection"].chosen, values, costs, corrections,
                                         self.select_budget, M, "optimize_subset")
        for budget, sel in zip(self.select_sweep, warm["sweep"]):
            fails += oracles.check_selection(sel.chosen, values, costs, corrections, budget, M,
                                             f"optimize_subset at budget {budget:g}")

        period_values = {}
        for t, path in enumerate(rnd.period_paths, start=1):
            _, _, rows_t = oracles.read_cache(path)
            period_values.update({(i, t): rows_t[(i,)][0] for i in ups.ids})
        for budgets, sched in [(self.budgets, cold["independent"])] + list(zip(self.budget_sweep, warm["schedules"])):
            fails += oracles.check_independent(sched.assignments, sched.npv, period_values, costs, budgets,
                                               self.rate, M, f"independent_schedule {budgets}")

        greedy = cold["greedy"]
        files = oracles.cache_files(os.path.join(rnd.dir, "greedy"))
        greedy_values = {}
        for t in range(1, rnd.horizon.T + 1):
            built = sorted(i for i, p in greedy.assignments.items() if p < t)
            key = (rw.network_fingerprint(rw.apply_upgrades(inp["net"], ups, built)),
                   rw.demand_fingerprint(rnd.horizon.demand_for(t)))
            if key in files:
                _, _, rows_t = oracles.read_cache(files[key])
                greedy_values.update({(i, t): d for (i, *rest), (d, _) in rows_t.items() if not rest})
        fails += oracles.check_greedy(greedy.assignments, greedy.npv, greedy_values, {}, costs, self.budgets,
                                      self.rate, M, "greedy_schedule")
        fails += _warm_matches(rnd, [
            ("delta table", cold["table"].evaluated_subsets, warm["table"].evaluated_subsets),
            ("selection", cold["selection"], warm["selection"]),
            ("greedy", (greedy.assignments, greedy.npv), (warm["greedy"].assignments, warm["greedy"].npv)),
            ("independent", (cold["independent"].assignments, cold["independent"].npv),
             (warm["independent"].assignments, warm["independent"].npv)),
        ])
        return fails


def _warm_matches(rnd: Round, pairs) -> list[str]:
    fails = [f"warm pass gave another {what} than the cold pass" for what, a, b in pairs if a != b]
    if rnd.warm_fresh:
        fails.append("warm pass solved or wrote to a delta cache")
    if not rnd.warm_repeats:
        fails.append("repeated warm passes gave different outputs")
    return fails


# ---------------------------------------------------------------------------


class GridSolve(Workload):
    """The generated 64 x 64 grid at gap 1e-4."""

    name = "grid-solve"
    setup_reps = 5
    warm_per_cycle = 5
    select_budget = 2000.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.files = {}
        for key, text in gridgen.generate(seed).items():
            self.files[key] = os.path.join(workdir, f"grid_{key}.txt")
            with open(self.files[key], "w") as fh:
                fh.write(text)
        self.select_sweep = self.shuffled([0.0, 1000.0, 1500.0, 3000.0, 3200.0, 4000.0])

    def setup(self):
        texts = {k: _read(p) for k, p in self.files.items()}
        net = rw.parse_network(texts["net"]).with_coordinates(rw.parse_nodes(texts["nodes"]))
        net.adjacency
        return {
            "net": net,
            "demand": rw.parse_demand(texts["trips"]),
            "upgrades": rw.parse_upgrades(texts["upgrades"], network=net),
            "settings": rw.SolverSettings(target_gap=self.gap),
            "net_text": texts["net"],
            "trips_text": texts["trips"],
            "upgrades_text": texts["upgrades"],
        }

    def round(self, inp, index, ops, span) -> Round:
        rnd = Round(self.round_dir(index))
        net, demand, ups, settings = inp["net"], inp["demand"], inp["upgrades"], inp["settings"]

        def pipeline(budgets):
            cache = rw.FileDeltaCache.open(os.path.join(rnd.dir, "grid.cache"), net, demand, settings)
            if cache.baseline() is None:
                cache.set_baseline(rnd.baseline.vht, rnd.baseline.relative_gap)
            pairs = rw.predict_pairs_threshold(rw.pairwise_distances(net, ups), gridgen.PAIR_THRESHOLD)
            subsets = [(i,) for i in ups.ids] + sorted(pairs)
            table = rw.compute_deltas(net, demand, ups, subsets, settings, cache=cache)
            chosen = [rw.optimize_subset(rw.SelectionProblem.from_delta_table(table, ups, budget=b, m=M)).chosen
                      for b in budgets]
            return table, pairs, chosen

        self.baseline_solves(inp, rnd, ops, span)
        table, pairs, chosen = self.cold(rnd, ops, span, "cold pipeline", pipeline, [self.select_budget])
        ops.cache_rows(cache_paths(rnd.dir), self.gap)
        ((warm_table, _, warm_chosen),) = self.warm_cycles(inp, rnd, ops, span, [
            ("warm pipeline", pipeline, [self.select_budget] + self.select_sweep),
        ])
        rnd.pairs, rnd.chosen, rnd.warm_chosen = pairs, chosen, warm_chosen
        rnd.out = {"deltas": table.evaluated_subsets, "pairs": pairs, "chosen": warm_chosen}
        rnd.tables = (table, warm_table)
        return rnd

    def check(self, inp, rnd: Round) -> list[str]:
        fails = self.check_baseline(inp, rnd)
        if rnd.pairs != {("G-COL", "G-ROW")}:
            fails.append(f"pair screening flagged {sorted(rnd.pairs)}, expected the one close pair")
        _, _, rows = oracles.read_cache(os.path.join(rnd.dir, "grid.cache"))
        values, corrections = oracles.model_from_rows(rows, inp["upgrades"].ids, rnd.pairs)
        costs = oracles.read_costs(inp["upgrades_text"])
        for budget, chosen in zip([self.select_budget] + self.select_sweep, rnd.warm_chosen):
            fails += oracles.check_selection(chosen, values, costs, corrections, budget, M,
                                             f"optimize_subset at budget {budget:g}")
        fails += _warm_matches(rnd, [
            ("delta table", rnd.tables[0].evaluated_subsets, rnd.tables[1].evaluated_subsets),
            ("selection", rnd.chosen[0], rnd.warm_chosen[0]),
        ])
        return fails


# ---------------------------------------------------------------------------


class DeskCli(Workload):
    """The README's desk walkthrough through roadworks.cli.main at --gap 1e-8."""

    name = "desk-cli"
    gap = 1e-8
    setup_reps = 101
    solves_per_slot = 10
    cycles = 3
    threshold = "10.5"
    select_budget = "2400"
    greedy_budgets = ("900,900,1700", "1600,800,1500", "2400,800,800")
    rate = "0.05"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.select_sweep = self.shuffled(["1500", "3000", "4500", "6000", "7500"])
        self.independent_sweep = self.shuffled(["800,1600,2400", "1600,1600,1600", "2400,800,3100"])
        self.paths = {k: os.path.join(DATA, f"desk_{k}")
                      for k in ("net.tntp", "trips.tntp", "nodes.tntp", "upgrades.upg")}
        self.net_flags = ["--net", self.paths["net.tntp"], "--trips", self.paths["trips.tntp"],
                          "--nodes", self.paths["nodes.tntp"], "--upgrades", self.paths["upgrades.upg"]]

    def setup(self):
        texts = {k: _read(p) for k, p in self.paths.items()}
        net = rw.parse_network(texts["net.tntp"]).with_coordinates(rw.parse_nodes(texts["nodes.tntp"]))
        net.adjacency
        return {
            "net": net,
            "demand": rw.parse_demand(texts["trips.tntp"]),
            "upgrades": rw.parse_upgrades(texts["upgrades.upg"], network=net),
            # the CLI's default --max-iters
            "settings": rw.SolverSettings(target_gap=self.gap, max_iters=1000),
            "net_text": texts["net.tntp"],
            "trips_text": texts["trips.tntp"],
            "upgrades_text": texts["upgrades.upg"],
        }

    def commands(self, rdir: str, warm: bool) -> list[tuple[str, list[str]]]:
        cache = os.path.join(rdir, "desk.cache")
        cdir = os.path.join(rdir, "desk-caches")
        net, gap = self.net_flags, ["--gap", str(self.gap)]
        pairs = ["--pairs-threshold", self.threshold]
        money = ["--rate", self.rate, "--m", "3650"]

        def select(budget, *extra):
            return (f"select {budget} {' '.join(extra)}".strip(),
                    ["select", *net, "--cache", cache, "--budget", budget, "--m", "3650", *extra, *gap])

        def greedy(budgets):
            return (f"greedy {budgets}",
                    ["schedule", *net, "--budgets", budgets, *money, *pairs, "--cache-dir", cdir, *gap])

        def independent(budgets):
            return (f"independent {budgets}",
                    ["schedule", *net, "--budgets", budgets, *money, "--independent", "--cache-dir", cdir, *gap])

        report = ("error-report", ["error-report", *net, "--cache", cache, "--orders", "1,2,3,8", *gap])
        if not warm:
            return [
                ("deltas individual", ["deltas", *net, "--mode", "individual", "--cache", cache, *gap]),
                ("predict-pairs", ["predict-pairs", *net, *pairs]),
                ("deltas pairs", ["deltas", *net, "--mode", "pairs", *pairs, "--cache", cache, *gap]),
                # the cache holds the screened pairs only, so this equals the warm select restricted to them
                select(self.select_budget),
                *[greedy(b) for b in self.greedy_budgets],
                independent(self.greedy_budgets[0]),
                ("deltas all-subsets", ["deltas", *net, "--mode", "all-subsets", "--cache", cache, *gap]),
                report,
            ]
        return [
            select(self.select_budget, *pairs),
            *[select(b, *pairs) for b in self.select_sweep],
            *[select(b) for b in self.select_sweep],
            *[greedy(b) for b in self.greedy_budgets],
            *[independent(b) for b in (self.greedy_budgets[0], *self.independent_sweep)],
            report,
        ]

    def run_cli(self, commands, ops) -> dict[str, str]:
        outputs = {}
        for label, argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = roadworks.cli.main(argv)
            ops.add(code == 0, f"roadworks {label} exited {code}: {err.getvalue().strip()}")
            outputs[label] = out.getvalue()
        return outputs

    def round(self, inp, index, ops, span) -> Round:
        rnd = Round(self.round_dir(index))
        self.baseline_solves(inp, rnd, ops, span)
        rnd.cold = self.cold(rnd, ops, span, "cold pass", self.run_cli, self.commands(rnd.dir, warm=False), ops)
        ops.cache_rows(cache_paths(rnd.dir), self.gap)
        (rnd.warm,) = self.warm_cycles(inp, rnd, ops, span, [
            ("warm pass", self.run_cli, self.commands(rnd.dir, warm=True), ops),
        ])
        rnd.out = {"cold": rnd.cold, "warm": rnd.warm}
        return rnd

    def check(self, inp, rnd: Round) -> list[str]:
        fails = self.check_baseline(inp, rnd)
        costs = oracles.read_costs(inp["upgrades_text"])
        ids = sorted(costs)
        rdir = rnd.dir
        _, baseline, rows = oracles.read_cache(os.path.join(rdir, "desk.cache"))

        _, links = oracles.read_links(inp["net_text"])
        demand = sum(oracles.read_trips(inp["trips_text"]).values())
        mods = oracles.read_capacity_mods(inp["upgrades_text"])
        widenings = {p: mods[p] for p in ("C-A1", "C-A2", "C-A3", "C-B1", "C-B2", "C-B3")}
        fails += oracles.check_two_route(links, demand, widenings, baseline[0],
                                         {p: rows[(p,)][0] for p in widenings}, "desk")

        screened = [tuple(line.split()[:2]) for line in rnd.cold["predict-pairs"].splitlines()]
        all_pairs = list(combinations(ids, 2))
        for label, text in list(rnd.cold.items()) + list(rnd.warm.items()):
            if label.startswith("select"):
                budget = float(label.split()[1])
                # the cold select ran when the cache held the screened pairs only
                screened_only = label == f"select {self.select_budget}" or "--pairs-threshold" in label
                pairs = screened if screened_only else all_pairs
                values, corrections = oracles.model_from_rows(rows, ids, pairs)
                chosen = _listing(text, "ids")[0]
                chosen = () if chosen == "(none)" else tuple(chosen.split(","))
                fails += oracles.check_selection(chosen, values, costs, corrections, budget, M, f"roadworks {label}")

        files = oracles.cache_files(os.path.join(rdir, "desk-caches"))
        net, ups, dem = inp["net"], inp["upgrades"], rw.demand_fingerprint(inp["demand"])
        base_rows = oracles.read_cache(files[(rw.network_fingerprint(net), dem)])[2]
        rate = float(self.rate)
        for label, text in rnd.cold.items():
            kind, _, budgets = label.partition(" ")
            if kind not in ("greedy", "independent"):
                continue
            budgets = [float(b) for b in budgets.split(",")]
            assignments = {i: int(t) for i, t in (line.split() for line in text.splitlines()
                                                  if len(line.split()) == 2 and line.split()[0] in costs)}
            npv = float(_listing(text, "npv_kd")[0])
            if kind == "independent":
                values = {(i, t): base_rows[(i,)][0] for i in ids for t in range(1, len(budgets) + 1)}
                fails += oracles.check_independent(assignments, npv, values, costs, budgets, rate, M, label)
                continue
            values, pair_values = {}, {}
            for t in range(1, len(budgets) + 1):
                built = sorted(i for i, p in assignments.items() if p < t)
                key = (rw.network_fingerprint(rw.apply_upgrades(net, ups, built)), dem)
                if key not in files:
                    continue
                rows_t = oracles.read_cache(files[key])[2]
                alive = [i for i in ids if (i,) in rows_t]
                v, d = oracles.model_from_rows(rows_t, alive, [p for p in screened if p in rows_t])
                values.update({(i, t): x for i, x in v.items()})
                pair_values.update({(p, t): x for p, x in d.items()})
            fails += oracles.check_greedy(assignments, npv, values, pair_values, costs, budgets, rate, M, label)

        fails += oracles.check_full_order(rnd.cold["error-report"], len(ids))
        fails += _warm_matches(rnd, [(label, rnd.cold[label], rnd.warm[label])
                                     for label in rnd.cold if label in rnd.warm])
        matching = rnd.warm.get(f"select {self.select_budget} --pairs-threshold {self.threshold}")
        if matching != rnd.cold[f"select {self.select_budget}"]:
            fails.append("the warm select at the cold budget differs from the cold select")
        return fails


def _listing(text: str, key: str) -> list[str]:
    """Fields after `key` on the first output line that starts with it."""
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == key:
            return fields[1:]
    return [""]


WORKLOADS = {cls.name: cls for cls in (SfPlan, GridSolve, DeskCli)}
