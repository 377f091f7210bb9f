"""batch_analyze: memo priming, cyclic skips, counters, byte identity.

:func:`~repro.core.batch.batch_analyze` runs the per-graph kernel
accessors ahead of time and reports cyclic inputs.  Its contract is
"invisible except for the report": every value it primes must equal what
the kernels compute lazily on a fresh copy and what the dict oracles in
``tests/reference.py`` compute, and a suite run over primed graphs must
serialize byte-identically to one over fresh graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TaskGraph
from repro.core import kernels
from repro.core import metrics as metrics_mod
from repro.core.analysis import (
    alap_times,
    b_levels,
    critical_path_length,
    hu_levels,
    t_levels,
)
from repro.core.batch import BatchReport, batch_analyze
from repro.core.exceptions import CycleError, GraphError
from repro.core.kernels import graph_index
from repro.core.metrics import granularity, granularity_band
from repro.experiments.advbench import _serialized
from repro.generation.random_dag import generate_pdg
from repro.obs.metrics import MetricsRegistry, use_registry

import reference

SEED = 19940815


# ----------------------------------------------------------------------
# graph corpus: seeded testbed sweep across classes and sizes + edge cases
# ----------------------------------------------------------------------
def _testbed_graphs() -> list[tuple[str, TaskGraph]]:
    graphs = []
    for band in range(5):
        for anchor in (2, 5):
            for n, wr in [(8, (1, 10)), (40, (3, 200)), (90, (20, 50))]:
                rng = np.random.default_rng(SEED + band * 1000 + anchor * 10 + n)
                g = generate_pdg(
                    rng, n_tasks=n, band=band, anchor=anchor, weight_range=wr
                )
                graphs.append((f"band{band}-a{anchor}-n{n}", g))
    return graphs


def _edge_case_graphs() -> list[tuple[str, TaskGraph]]:
    empty = TaskGraph()

    single = TaskGraph()
    single.add_task("only", 7)

    no_edges = TaskGraph()
    for i in range(4):
        no_edges.add_task(i, 2.5 * (i + 1))

    chain = TaskGraph()
    for i in range(6):
        chain.add_task(i, 5 + i)
        if i:
            chain.add_edge(i - 1, i, 2)

    zero_comm = TaskGraph()
    for t in "abcd":
        zero_comm.add_task(t, 10)
    zero_comm.add_edge("a", "b", 0)
    zero_comm.add_edge("a", "c", 5)
    zero_comm.add_edge("b", "d", 0)
    zero_comm.add_edge("c", "d", 0)

    return [
        ("empty", empty),
        ("single", single),
        ("no-edges", no_edges),
        ("chain", chain),
        ("zero-cost-edges", zero_comm),
    ]


CORPUS = _testbed_graphs() + _edge_case_graphs()
IDS = [name for name, _ in CORPUS]
GRAPHS = [g for _, g in CORPUS]


def _cycle() -> TaskGraph:
    cyc = TaskGraph()
    cyc.add_task("a", 1)
    cyc.add_task("b", 1)
    cyc.add_edge("a", "b", 1)
    cyc.add_edge("b", "a", 1)
    return cyc


def _reference_levels(g: TaskGraph) -> dict:
    """The dict oracles' analysis (the ground truth the primed values must
    match bit for bit)."""
    return {
        "t": reference.t_levels(g, communication=True),
        "t0": reference.t_levels(g, communication=False),
        "b": reference.b_levels(g, communication=True),
        "hu": reference.hu_levels(g),
        "alap": reference.alap_times(g, communication=True),
    }


def _analysis(work: TaskGraph) -> dict:
    """Everything batch_analyze primes, read through the public accessors."""
    entry = {
        "t": t_levels(work, communication=True),
        "b": b_levels(work, communication=True),
        "hu": hu_levels(work),
        "alap": alap_times(work, communication=True),
        "serial": work.serial_time(),
    }
    try:
        entry["gran"] = granularity(work)
    except GraphError:
        entry["gran"] = None
    return entry


def _forbid_recompute(monkeypatch) -> None:
    """Make the level sweeps and the granularity computation raise."""

    def boom(*_args):
        raise AssertionError("recomputed a primed value")

    monkeypatch.setattr(kernels, "_t_levels", boom)
    monkeypatch.setattr(kernels, "_b_levels", boom)
    monkeypatch.setattr(metrics_mod, "_granularity", boom)


# ----------------------------------------------------------------------
# one call over the whole corpus: bitwise equal to the dict oracles
# ----------------------------------------------------------------------
class TestBatchLevelEquivalence:
    @pytest.fixture(scope="class")
    def pooled(self):
        primed = [g.copy() for g in GRAPHS]
        return primed, batch_analyze(primed)

    def test_pool_shape(self, pooled):
        _, report = pooled
        assert report == len(GRAPHS)
        assert report.skipped == ()

    @pytest.mark.parametrize(
        "accessor, key",
        [
            (lambda g: t_levels(g, communication=True), "t"),
            (lambda g: t_levels(g, communication=False), "t0"),
            (lambda g: b_levels(g, communication=True), "b"),
            (hu_levels, "hu"),
            (lambda g: alap_times(g, communication=True), "alap"),
        ],
        ids=["t", "t-nocomm", "b", "hu", "alap"],
    )
    def test_levels_bitwise_equal(self, pooled, accessor, key):
        primed, _ = pooled
        for (name, g), work in zip(CORPUS, primed):
            assert accessor(work) == _reference_levels(g)[key], name  # exact ==

    def test_critical_path_lengths(self, pooled):
        primed, _ = pooled
        for (name, g), work in zip(CORPUS, primed):
            expect = max(_reference_levels(g)["b"].values(), default=0.0)
            assert critical_path_length(work) == expect, name

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_single_graph_batch_matches_pooled(self, pooled, g):
        # A graph's primed values do not depend on what else was in the call.
        primed, _ = pooled
        solo = g.copy()
        assert batch_analyze([solo]) == 1
        assert _analysis(solo) == _analysis(primed[GRAPHS.index(g)])

    def test_empty_batch(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            report = batch_analyze([])
        assert report == 0 and report.skipped == ()
        assert "batch.graphs" not in registry.counters()


# ----------------------------------------------------------------------
# classification metrics (paper section 3)
# ----------------------------------------------------------------------
class TestClassificationEquivalence:
    @pytest.fixture(scope="class")
    def pooled(self):
        primed = [g.copy() for g in GRAPHS]
        batch_analyze(primed)
        return primed

    @staticmethod
    def _granularity(g: TaskGraph) -> float | None:
        try:
            return granularity(g)
        except GraphError:
            return None

    def test_granularities(self, pooled):
        for (name, g), work in zip(CORPUS, pooled):
            # undefined granularity stays unprimed and still raises on demand
            assert self._granularity(work) == self._granularity(g.copy()), name

    def test_granularity_bands(self, pooled):
        for (name, g), work in zip(CORPUS, pooled):
            gr = self._granularity(work)
            fresh = self._granularity(g.copy())
            assert (gr is None) == (fresh is None), name
            if gr is not None:
                assert granularity_band(gr) == granularity_band(fresh), name

    def test_serial_times(self, pooled):
        for (name, g), work in zip(CORPUS, pooled):
            assert work.serial_time() == g.copy().serial_time(), name  # bitwise ==


# ----------------------------------------------------------------------
# batch_analyze: memo priming, skip logic, counters
# ----------------------------------------------------------------------
class TestBatchAnalyze:
    def test_primes_the_kernel_memo_keys(self, monkeypatch):
        g = GRAPHS[2].copy()
        expect = _analysis(GRAPHS[2].copy())
        assert batch_analyze([g]) == 1
        # Reading a primed graph must hit the memos, never the sweeps.
        _forbid_recompute(monkeypatch)
        assert _analysis(g) == expect

    def test_primed_values_equal_lazy_values(self):
        for name, g in CORPUS[:8] + _edge_case_graphs():
            primed = g.copy()
            assert batch_analyze([primed]) == 1
            assert _analysis(primed) == _analysis(g.copy()), name

    def test_dedup_and_already_primed_counters(self, monkeypatch):
        g = GRAPHS[4].copy()
        registry = MetricsRegistry()
        with use_registry(registry):
            assert batch_analyze([g, g, g]) == 1  # deduped by identity
            # an already-primed graph is read back from its memos
            _forbid_recompute(monkeypatch)
            assert batch_analyze([g]) == 1
        assert registry.counters()["batch.graphs"] == 2
        assert registry.timer_stats("batch.analyze").count == 2
        assert "batch.batches" not in registry.counters()

    def test_compile_reuses_cached_index(self):
        # batch_analyze compiles through the graph_index LRU, so a graph
        # whose index is already compiled is a cache hit, not a recompile.
        g = GRAPHS[5].copy()
        registry = MetricsRegistry()
        with use_registry(registry):
            gi = graph_index(g)  # pre-compile
            batch_analyze([g])
            assert graph_index(g) is gi  # still the same compiled object
        counters = registry.counters()
        assert counters.get("kernels.cache.misses", 0) == 1  # the pre-compile
        assert counters.get("kernels.cache.hits", 0) >= 1

    def test_cyclic_graph_skipped_not_raised(self):
        cyc = _cycle()
        ok = GRAPHS[1].copy()
        assert batch_analyze([cyc, ok]) == 1  # cyclic graph skipped
        with pytest.raises(CycleError):
            t_levels(cyc)  # the on-demand path still reports it

    def test_cyclic_skip_is_surfaced_in_report_and_counter(self):
        # The skip must not be silent: the report names the skipped input
        # positions and the registry counts them, while the return value
        # still compares as the analyzed count (it is an int subclass).
        ok1, ok2 = GRAPHS[1].copy(), GRAPHS[2].copy()
        registry = MetricsRegistry()
        with use_registry(registry):
            report = batch_analyze([_cycle(), ok1, _cycle(), ok2])
        assert isinstance(report, BatchReport)
        assert report == 2
        assert report.skipped == (0, 2)
        assert registry.counters()["batch.skipped_cyclic"] == 2

    def test_all_cyclic_report(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            report = batch_analyze([_cycle(), _cycle()])
        assert report == 0
        assert report.skipped == (0, 1)
        assert registry.counters()["batch.skipped_cyclic"] == 2

    def test_mutation_invalidates_primed_memos(self):
        g = GRAPHS[7].copy()
        batch_analyze([g])
        before = t_levels(g, communication=True)
        g.add_task("fresh", 1.0)
        ref = _reference_levels(g)
        # the primed values belong to the old version and are not served
        assert t_levels(g, communication=True) == ref["t"] != before
        # re-analyzing after mutation primes the new version
        assert batch_analyze([g]) == 1
        assert _analysis(g) == _analysis(g.copy())
        assert alap_times(g, communication=True) == ref["alap"]


# ----------------------------------------------------------------------
# primed or not x two ground truths: four ways, one answer
# ----------------------------------------------------------------------
class TestFallbackMatrix:
    # b: whether batch_analyze primes the memos first (b0 leaves every
    # value to the lazy kernels).  k: the ground truth — k0 the dict
    # oracles (levels only), k1 the lazily computed per-graph kernels on a
    # fresh copy (every field, serial time and granularity too).
    @pytest.mark.parametrize("per_graph_truth", [False, True], ids=["k0", "k1"])
    @pytest.mark.parametrize("batch_on", [False, True], ids=["b0", "b1"])
    def test_all_four_combinations_bit_identical(self, batch_on, per_graph_truth):
        for name, g in CORPUS[:8] + _edge_case_graphs():
            work = g.copy()
            if batch_on:
                batch_analyze([work])
            entry = _analysis(work)
            if per_graph_truth:
                assert entry == _analysis(g.copy()), name
            else:
                ref = _reference_levels(g)
                for key in ("t", "b", "hu", "alap"):
                    assert entry[key] == ref[key], name
                    assert list(entry[key]) == list(ref[key]), name


# ----------------------------------------------------------------------
# suite-runner byte identity, serial and --jobs 2
# ----------------------------------------------------------------------
class TestSuiteByteIdentity:
    @pytest.fixture(scope="class")
    def suite_and_scheds(self):
        from repro.generation.suites import generate_suite
        from repro.schedulers import get_scheduler

        suite = list(
            generate_suite(graphs_per_cell=1, seed=SEED, n_tasks_range=(10, 25))
        )
        scheds = [get_scheduler(n) for n in ("DSC", "MCP", "HU")]
        return suite, scheds

    @staticmethod
    def _run(suite, scheds, *, primed, jobs=1):
        from repro.experiments.runner import run_suite
        from repro.generation.suites import SuiteGraph

        fresh = [
            SuiteGraph(cell=sg.cell, index=sg.index, graph=sg.graph.copy())
            for sg in suite
        ]
        if primed:
            assert batch_analyze([sg.graph for sg in fresh]) == len(fresh)
        return _serialized(run_suite(fresh, scheds, seed=SEED, jobs=jobs))

    def test_serial_on_off_byte_identical(self, suite_and_scheds):
        suite, scheds = suite_and_scheds
        off = self._run(suite, scheds, primed=False)
        on = self._run(suite, scheds, primed=True)
        assert on == off

    def test_jobs2_byte_identical_to_serial_unbatched(self, suite_and_scheds):
        suite, scheds = suite_and_scheds
        ref = self._run(suite, scheds, primed=False)
        par = self._run(suite, scheds, primed=False, jobs=2)
        assert par == ref
