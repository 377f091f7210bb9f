"""Tests for the paired statistical comparison of heuristics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.measures import GraphResult, HeuristicResult
from repro.experiments.significance import (
    PairedComparison,
    compare_heuristics,
    comparison_matrix,
)


def make_results(pairs):
    """pairs: list of (time_A, time_B) per graph."""
    out = []
    for i, (ta, tb) in enumerate(pairs):
        out.append(
            GraphResult(
                graph_id=f"g{i}",
                band=0,
                anchor=2,
                weight_range=(20, 100),
                granularity=0.5,
                serial_time=1000.0,
                results={
                    "A": HeuristicResult(parallel_time=ta, n_processors=2),
                    "B": HeuristicResult(parallel_time=tb, n_processors=2),
                },
            )
        )
    return out


class TestCompareHeuristics:
    def test_counts(self):
        results = make_results([(10, 20), (30, 20), (15, 15), (5, 50)])
        cmp = compare_heuristics(results, "A", "B")
        assert cmp.wins == 2
        assert cmp.losses == 1
        assert cmp.ties == 1
        assert cmp.n_graphs == 4

    def test_clear_dominance_significant(self):
        results = make_results([(10.0 + i, 20.0 + i) for i in range(20)])
        cmp = compare_heuristics(results, "A", "B")
        assert cmp.wins == 20
        assert cmp.p_value < 0.01
        assert cmp.a_dominates

    def test_all_ties(self):
        results = make_results([(10, 10)] * 5)
        cmp = compare_heuristics(results, "A", "B")
        assert cmp.ties == 5
        assert cmp.p_value == 1.0
        assert not cmp.a_dominates

    def test_ratios(self):
        results = make_results([(10, 20), (30, 20)])
        cmp = compare_heuristics(results, "A", "B")
        assert cmp.mean_ratio == pytest.approx((0.5 + 1.5) / 2)
        assert cmp.median_ratio == pytest.approx(1.0)

    def test_symmetry(self):
        results = make_results([(10, 20), (30, 20), (15, 15)])
        ab = compare_heuristics(results, "A", "B")
        ba = compare_heuristics(results, "B", "A")
        assert ab.wins == ba.losses
        assert ab.p_value == pytest.approx(ba.p_value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_heuristics([], "A", "B")

    def test_summary(self):
        results = make_results([(10, 20)])
        assert "A vs B" in compare_heuristics(results, "A", "B").summary()


class TestComparisonMatrix:
    def test_matrix_shape_and_values(self):
        results = make_results([(10, 20), (10, 20), (30, 20), (15, 15)])
        table = comparison_matrix(results, ["A", "B"])
        assert table.value("A", "B") == pytest.approx(0.5)
        assert table.value("B", "A") == pytest.approx(0.25)
        assert table.value("A", "A") == 0.0

    def test_on_real_run(self, paper_example):
        from repro.experiments.runner import evaluate_graph
        from repro.core.metrics import granularity
        from repro.schedulers import paper_schedulers

        gr = GraphResult(
            graph_id="ex",
            band=2,
            anchor=2,
            weight_range=(10, 50),
            granularity=granularity(paper_example),
            serial_time=paper_example.serial_time(),
            results=evaluate_graph(paper_example, paper_schedulers()),
        )
        table = comparison_matrix([gr])
        # everyone except HU ties at 130; each beats HU on this graph
        assert table.value("CLANS", "HU") == 1.0
        assert table.value("HU", "CLANS") == 0.0
        assert table.value("CLANS", "DSC") == 0.0


class TestOptionalScipy:
    """scipy is a ``dev`` extra: only running a test may need it."""

    @staticmethod
    def _run(code: str) -> subprocess.CompletedProcess:
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_cli_imports_with_scipy_blocked(self):
        proc = self._run(
            "import sys; sys.modules['scipy'] = None; import repro.cli"
        )
        assert proc.returncode == 0, proc.stderr

    def test_experiments_import_does_not_load_scipy(self):
        proc = self._run(
            "import sys, repro.experiments; "
            "assert 'scipy' not in sys.modules, 'scipy imported eagerly'"
        )
        assert proc.returncode == 0, proc.stderr
