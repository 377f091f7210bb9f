"""The suite workloads: ``table1-serial`` and ``table1-fanout``.

``table1-serial`` is the paper's own unit of work: generate a classified
suite, run the five heuristics on every graph with validation, build
Tables 1-11 and save the results.  ``table1-fanout`` generates one suite in
set-up and then times ``run_suite(jobs=2, checkpoint=...)`` cold and resumed
from the full journal, so it exercises the process fan-out and the fsync'd
journal while generation and aggregation stay off the measured path.

The e2e passes call the public pipeline (``generate_suite`` -> ``run_suite``
-> tables -> ``save_results``).  The traced serial pass calls the layers'
public functions one by one in ``run_suite``'s order, with a span around
each call, and must save byte-identical results; that check is what makes
its per-layer breakdown a breakdown of the e2e path.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.clans.decomposition import decompose
from repro.clans.parse_tree import ClanKind
from repro.core.batch import batch_analyze
from repro.core.kernels import graph_index
from repro.core.metrics import granularity
from repro.experiments import tables
from repro.experiments.measures import GraphResult, HeuristicResult
from repro.experiments.persistence import CheckpointJournal, save_results
from repro.experiments.runner import PAPER_HEURISTIC_ORDER, PREBATCH_CHUNK, run_suite
from repro.generation.suites import generate_suite, suite_cells
from repro.obs.metrics import get_registry
from repro.schedulers.base import paper_schedulers

from common import (
    Spans,
    counter_delta,
    median,
    out_dir,
    ratio,
    sha256_file,
    vm_hwm_mb,
)

TABLES = [getattr(tables, f"table{i}") for i in range(1, 12)]

#: A serial pass is one graph per Table-1 cell: 60 graphs, about 2 s.
SERIAL_GRAPHS_PER_CELL = 1
#: The fan-out suite: three graphs per cell, 180 graphs.
FANOUT_GRAPHS_PER_CELL = 3
FANOUT_JOBS = 2
#: Reference suite whose saved-results digest and mean NRPT are pinned in
#: ``pins.json`` (the paper's date, the library's default suite seed).
REFERENCE_SEED = 19940815
PINS = Path(__file__).with_name("pins.json")
#: Pass index whose suite seeds the warm-up, never a measured pass.
WARMUP_PASS = 1 << 20


def pass_seed(seed: int, i: int) -> int:
    """Suite seed of pass ``i`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def mean_nrpt(results) -> dict[str, float]:
    """Mean normalized relative parallel time per heuristic (the paper's
    quality measure), in the paper's column order."""
    return {
        name: sum(gr.nrpt(name) for gr in results) / len(results)
        for name in PAPER_HEURISTIC_ORDER
    }


def reference_pins(path: Path) -> dict:
    """Digest and mean NRPT of the reference suite through the serial path."""
    results = run_suite(
        generate_suite(graphs_per_cell=SERIAL_GRAPHS_PER_CELL, seed=REFERENCE_SEED),
        jobs=1,
        validate=True,
    )
    save_results(results, path)
    return {
        "seed": REFERENCE_SEED,
        "graphs": len(results),
        "results_sha256": sha256_file(path),
        "mean_nrpt": {k: repr(v) for k, v in mean_nrpt(results).items()},
    }


def check_pins(found: dict, pinned: dict) -> list[str]:
    return [
        f"reference suite {key}: got {found[key]!r}, pinned {pinned[key]!r}"
        for key in ("graphs", "results_sha256", "mean_nrpt")
        if found[key] != pinned[key]
    ]


def check_digests(digests: dict[str, str]) -> list[str]:
    """Every saved-results digest of one suite must be the same."""
    if len(set(digests.values())) <= 1:
        return []
    return ["saved results differ between paths: " + json.dumps(digests)]


def serial_e2e_pass(seed: int, path: Path):
    """generate -> run_suite(validate) -> Tables 1-11 -> save; returns
    ``(results, wall seconds)``."""
    t0 = perf_counter()
    results = run_suite(
        generate_suite(graphs_per_cell=SERIAL_GRAPHS_PER_CELL, seed=seed),
        jobs=1,
        validate=True,
    )
    for table in TABLES:
        table(results)
    save_results(results, path)
    return results, perf_counter() - t0


def evaluate_traced(spans: Spans, suite, *, validate: bool, stats: dict) -> list:
    """``run_suite(jobs=1)``'s work, one public call per span.

    Per chunk of ``PREBATCH_CHUNK`` graphs: compile each graph's index,
    batch-analyze the chunk, then schedule every graph with the five
    heuristics (validating each schedule), probe the clan decomposition,
    and build the graph's result record.  ``stats`` accumulates the
    primitive-node count of the probed parse trees.
    """
    schedulers = paper_schedulers()
    out = []
    for lo in range(0, len(suite), PREBATCH_CHUNK):
        chunk = suite[lo : lo + PREBATCH_CHUNK]
        for sg in chunk:
            with spans.span("kernels.compile", sg.graph_id):
                graph_index(sg.graph)
        with spans.span("batch", f"chunk{lo // PREBATCH_CHUNK}"):
            batch_analyze([sg.graph for sg in chunk])
        for sg in chunk:
            graph, gid = sg.graph, sg.graph_id
            results = {}
            for sched in schedulers:
                with spans.span(f"scheduler.{sched.name}", gid):
                    schedule = sched.schedule(graph)
                if validate:
                    with spans.span("validate", gid):
                        schedule.validate(graph)
                results[sched.name] = HeuristicResult(
                    parallel_time=schedule.makespan,
                    n_processors=schedule.n_processors,
                )
            with spans.span("clans.decompose", gid):
                tree = decompose(graph)
            stats["primitive_nodes"] = stats.get("primitive_nodes", 0) + sum(
                1 for node in tree.walk() if node.kind is ClanKind.PRIMITIVE
            )
            with spans.span("measures", gid):
                out.append(
                    GraphResult(
                        graph_id=gid,
                        band=sg.cell.band,
                        anchor=sg.cell.anchor,
                        weight_range=sg.cell.weight_range,
                        granularity=granularity(graph),
                        serial_time=graph.serial_time(),
                        results=results,
                    )
                )
    return out


def generate_traced(spans: Spans, **kwargs) -> list:
    """``list(generate_suite(**kwargs))`` with one span per generated graph."""
    suite = []
    it = generate_suite(**kwargs)
    while True:
        with spans.span("generation") as idx:
            sg = next(it, None)
        if sg is None:
            spans.records.pop()  # the exhausted call generated nothing
            return suite
        spans.records[idx][4] = sg.graph_id
        suite.append(sg)


def serial_traced_pass(spans: Spans, seed: int, path: Path, stats: dict) -> list:
    suite = generate_traced(spans, graphs_per_cell=SERIAL_GRAPHS_PER_CELL, seed=seed)
    results = evaluate_traced(spans, suite, validate=True, stats=stats)
    with spans.span("tables"):
        for table in TABLES:
            table(results)
    with spans.span("persistence.save"):
        save_results(results, path)
    return results


def scheduler_metrics(spans: Spans, per: float) -> dict:
    out = {}
    for name in PAPER_HEURISTIC_ORDER:
        out[f"scheduler.{name}.busy_s"] = spans.busy(f"scheduler.{name}") / per
        out[f"scheduler.{name}.calls"] = spans.count(f"scheduler.{name}") / per
    return out


def time_to_quality(spans: Spans, results) -> list[dict]:
    """Per heuristic: mean NRPT against mean scheduling time per graph."""
    nrpt = mean_nrpt(results)
    return [
        {
            "heuristic": name,
            "mean_nrpt": nrpt[name],
            "ms_per_graph": 1e3 * spans.busy(f"scheduler.{name}") / len(results),
        }
        for name in PAPER_HEURISTIC_ORDER
    ]


# ----------------------------------------------------------------------
# table1-serial
# ----------------------------------------------------------------------


class SerialWorkload:
    name = "table1-serial"

    def setup(self, seed: int, spans: Spans | None = None) -> None:
        # Warm-up: one pass over a quarter of the cells, off the measured
        # seeds, so first-call costs (lazy imports, allocator growth) are
        # paid in set-up.
        self.out = out_dir("serial")
        warm = generate_suite(
            graphs_per_cell=1, seed=pass_seed(seed, WARMUP_PASS), cells=suite_cells()[:15]
        )
        run_suite(warm, jobs=1, validate=True)

    def teardown(self) -> None:
        pass

    def measure(self, seed: int, seconds: float) -> dict:
        walls, digests = [], {}
        graphs = 0
        t_end = perf_counter() + seconds
        i = 0
        while perf_counter() < t_end:
            path = self.out / "results.json"
            results, wall = serial_e2e_pass(pass_seed(seed, i), path)
            digests[i] = sha256_file(path)
            graphs += len(results)
            walls.append(wall)
            i += 1
        return {
            "metrics": {
                # A total over the run, not a median of passes: the host's
                # speed drifts over seconds, and a time-weighted mean varies
                # less between runs than a median landing in one regime.
                "graphs_per_s": (graphs / sum(walls), "1/s"),
                "peak_rss_mb": (vm_hwm_mb(), "MB"),
            },
            "attempted": graphs,
            "failed": 0,
            "mismatches": self.gate(),
            "detail": {"passes": i, "pass_wall_s": walls, "results_sha256": digests},
        }

    def gate(self) -> list[str]:
        pinned = json.loads(PINS.read_text())
        return check_pins(reference_pins(self.out / "reference.json"), pinned)

    def trace(self, seed: int, seconds: float, spans: Spans) -> dict:
        """Alternate e2e and traced passes over the same suites.  The e2e
        pass is one span (``baseline.e2e_pass``); the traced pass must save
        the same bytes.  Tracing overhead is the traced pass's wall (less
        its decomposition probe, which the e2e pass does not do) against
        the e2e pass's."""
        registry = get_registry()
        before = registry.snapshot()["counters"]
        stats: dict = {}
        mismatches: list[str] = []
        traced_results = []
        e2e_walls, traced_walls = [], []
        t_end = perf_counter() + seconds
        i = 0
        while perf_counter() < t_end or i == 0:
            s = pass_seed(seed, i)
            e2e_path = self.out / "e2e.json"
            traced_path = self.out / "traced.json"
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for which in order:
                if which == 0:
                    with spans.span("baseline.e2e_pass", s) as idx:
                        serial_e2e_pass(s, e2e_path)
                    rec = spans.records[idx]
                    e2e_walls.append(rec[2] - rec[1])
                else:
                    probe0 = spans.busy("clans.decompose")
                    with spans.span("pass", s) as idx:
                        traced_results += serial_traced_pass(spans, s, traced_path, stats)
                    rec = spans.records[idx]
                    probe = spans.busy("clans.decompose") - probe0
                    traced_walls.append(rec[2] - rec[1] - probe)
            mismatches += check_digests(
                {"run_suite": sha256_file(e2e_path), "traced": sha256_file(traced_path)}
            )
            i += 1
        with spans.span("gate.reference"):
            mismatches += self.gate()
        after = registry.snapshot()["counters"]
        n = len(traced_results)
        clans_busy = spans.busy("scheduler.CLANS")
        decompose_s = spans.busy("clans.decompose")
        layers = {
            "generation.busy_s": spans.busy("generation") / i,
            "generation.graphs": spans.count("generation") / i,
            "batch.busy_s": spans.busy("batch") / i,
            "kernels.compile_s": spans.busy("kernels.compile") / i,
            "kernels.cache_hit_ratio": kernel_hit_ratio(before, after),
            **scheduler_metrics(spans, i),
            "clans.decompose_s": decompose_s / i,
            "clans.primitive_nodes": stats["primitive_nodes"] / i,
            "clans.rest_s": (clans_busy - decompose_s) / i,
            "clans.parallel_decision_ratio": ratio(
                counter_delta(before, after, "clans.parallel_decisions"),
                counter_delta(before, after, "clans.group_decisions"),
            ),
            "validate.busy_s": spans.busy("validate") / i,
            "tables.busy_s": spans.busy("tables") / i,
            "persistence.save_s": spans.busy("persistence.save") / i,
            "trace.overhead_pct": 100.0
            * (median(traced_walls) - median(e2e_walls))
            / median(e2e_walls),
        }
        return {
            "layers": layers,
            "attempted": n,
            "failed": 0,
            "mismatches": mismatches,
            "time_to_quality": time_to_quality(spans, traced_results),
            "detail": {"passes": i, "graphs_per_pass": n / i},
        }


def kernel_hit_ratio(before: dict, after: dict) -> float:
    hits = counter_delta(before, after, "kernels.cache.hits")
    misses = counter_delta(before, after, "kernels.cache.misses")
    return ratio(hits, hits + misses)


# ----------------------------------------------------------------------
# table1-fanout
# ----------------------------------------------------------------------


class FanoutWorkload:
    name = "table1-fanout"

    def setup(self, seed: int, spans: Spans | None = None) -> None:
        self.out = out_dir("fanout")
        self.journal = self.out / "journal.jsonl"
        kwargs = {"graphs_per_cell": FANOUT_GRAPHS_PER_CELL, "seed": seed}
        if spans is None:
            self.suite = list(generate_suite(**kwargs))
        else:
            self.suite = generate_traced(spans, **kwargs)
        # Warm-up: a small fan-out run on graphs of another seed, so the
        # measured suite's graph objects stay cold in this process.
        warm = generate_suite(
            graphs_per_cell=1, seed=pass_seed(seed, WARMUP_PASS), cells=suite_cells()[:8]
        )
        run_suite(list(warm), jobs=FANOUT_JOBS)

    def teardown(self) -> None:
        self.journal.unlink(missing_ok=True)

    def cold_pass(self, progress=None) -> tuple[float, str]:
        """``run_suite(jobs=2)`` into a fresh journal; returns its wall and
        the digest of the results it saved."""
        self.journal.unlink(missing_ok=True)
        t0 = perf_counter()
        results = run_suite(
            self.suite, jobs=FANOUT_JOBS, checkpoint=self.journal, progress=progress
        )
        wall = perf_counter() - t0
        save_results(results, self.out / "cold.json")
        return wall, sha256_file(self.out / "cold.json")

    def resume_pass(self) -> tuple[float, str]:
        """``run_suite(jobs=2)`` resumed from the full journal."""
        t0 = perf_counter()
        results = run_suite(self.suite, jobs=FANOUT_JOBS, checkpoint=self.journal)
        wall = perf_counter() - t0
        save_results(results, self.out / "resume.json")
        return wall, sha256_file(self.out / "resume.json")

    def measure(self, seed: int, seconds: float) -> dict:
        walls, digests = [], {}
        t_end = perf_counter() + seconds
        i = 0
        while perf_counter() < t_end:
            wall, digests[f"cold{i}"] = self.cold_pass()
            _, digests[f"resume{i}"] = self.resume_pass()
            walls.append(wall)
            i += 1
        peak = vm_hwm_mb()
        n = len(self.suite)
        reference = run_suite(self.suite, jobs=1, validate=True)
        save_results(reference, self.out / "serial.json")
        digests["serial"] = sha256_file(self.out / "serial.json")
        return {
            "metrics": {
                "graphs_per_s": (n * len(walls) / sum(walls), "1/s"),
                "peak_rss_mb": (peak, "MB"),
            },
            "attempted": n * len(walls),
            "failed": 0,
            "mismatches": check_digests(digests),
            "detail": {"passes": i, "cold_wall_s": walls, "results_sha256": digests},
        }

    def trace(self, seed: int, seconds: float, spans: Spans) -> dict:
        """Cold passes alternate between traced (span, first-result probe)
        and baseline (one span, no probe); each traced pass is followed by
        a timed journal load and a resume pass.  A serial reference pass
        over the same suite, decomposed as in ``table1-serial``, gives the
        serial scheduler busy time behind ``parallel.efficiency``."""
        registry = get_registry()
        before = registry.snapshot()["counters"]
        names = list(PAPER_HEURISTIC_ORDER)
        digests: dict[str, str] = {}
        traced_walls, baseline_walls, first, replay, sizes = [], [], [], [], []
        t_end = perf_counter() + seconds
        i = 0
        while perf_counter() < t_end or i < 2:
            if i % 2:
                with spans.span("baseline.cold_pass"):
                    wall, digests[f"baseline{i}"] = self.cold_pass()
                baseline_walls.append(wall)
            else:
                t0 = perf_counter()
                firsts: list[float] = []

                def progress(done, gr):
                    if not firsts:
                        firsts.append(perf_counter() - t0)

                with spans.span("parallel.cold_pass"):
                    wall, digests[f"cold{i}"] = self.cold_pass(progress)
                traced_walls.append(wall)
                first.append(firsts[0])
                sizes.append(self.journal.stat().st_size)
                with spans.span("journal.load") as idx:
                    CheckpointJournal(self.journal).load_completed(names)
                replay.append(spans.records[idx][2] - spans.records[idx][1])
                with spans.span("journal.resume_pass"):
                    _, digests[f"resume{i}"] = self.resume_pass()
            i += 1
        stats: dict = {}
        with spans.span("reference_pass"):
            reference = evaluate_traced(spans, self.suite, validate=True, stats=stats)
        with spans.span("persistence.save"):
            save_results(reference, self.out / "serial.json")
        digests["serial"] = sha256_file(self.out / "serial.json")
        after = registry.snapshot()["counters"]
        serial_busy = sum(spans.busy(f"scheduler.{n}") for n in names)
        decompose_s = spans.busy("clans.decompose")
        layers = {
            "generation.busy_s": spans.busy("generation"),
            "generation.graphs": spans.count("generation"),
            "batch.busy_s": spans.busy("batch"),
            "kernels.compile_s": spans.busy("kernels.compile"),
            "kernels.cache_hit_ratio": kernel_hit_ratio(before, after),
            **scheduler_metrics(spans, 1),
            "clans.decompose_s": decompose_s,
            "clans.primitive_nodes": stats["primitive_nodes"],
            "clans.rest_s": spans.busy("scheduler.CLANS") - decompose_s,
            "clans.parallel_decision_ratio": ratio(
                counter_delta(before, after, "clans.parallel_decisions"),
                counter_delta(before, after, "clans.group_decisions"),
            ),
            "validate.busy_s": spans.busy("validate"),
            "persistence.save_s": spans.busy("persistence.save"),
            "journal.bytes": median(sizes),
            "journal.replay_s": median(replay),
            "parallel.first_result_s": median(first),
            "parallel.efficiency": serial_busy / (FANOUT_JOBS * median(traced_walls)),
            "trace.overhead_pct": 100.0
            * (median(traced_walls) - median(baseline_walls))
            / median(baseline_walls),
        }
        return {
            "layers": layers,
            "attempted": len(self.suite) * i,
            "failed": 0,
            "mismatches": check_digests(digests),
            "time_to_quality": time_to_quality(spans, reference),
            "detail": {"passes": i},
        }

