"""Paired statistical comparison of heuristics.

The paper compares heuristics by class-wise *means*; means alone cannot say
whether a difference is systematic or noise.  This module adds the missing
statistics for the "numerical comparison technique" (paper section 5.2):
for a pair of heuristics over one set of graphs it reports

* win / loss / tie counts (paired per graph),
* mean and median makespan ratio,
* a Wilcoxon signed-rank test (via scipy) on the paired makespans, whose
  p-value bounds the probability that a difference this one-sided arises
  from symmetric noise.  scipy is a ``dev`` extra, imported only when a
  test runs, so the package imports without it.

:func:`comparison_matrix` runs all pairs and renders the familiar
dominance table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .measures import GraphResult
from .reporting import ResultTable

__all__ = ["PairedComparison", "compare_heuristics", "comparison_matrix"]

_EPS = 1e-9


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of comparing heuristic ``a`` against ``b`` over n graphs."""

    a: str
    b: str
    n_graphs: int
    wins: int  # graphs where a is strictly faster
    losses: int  # graphs where b is strictly faster
    ties: int
    mean_ratio: float  # mean of makespan(a) / makespan(b)
    median_ratio: float
    p_value: float  # Wilcoxon signed-rank; 1.0 when all pairs tie

    @property
    def a_dominates(self) -> bool:
        """True when a wins more often and the difference is significant."""
        return self.wins > self.losses and self.p_value < 0.05

    def summary(self) -> str:
        return (
            f"{self.a} vs {self.b}: {self.wins}W/{self.losses}L/{self.ties}T "
            f"over {self.n_graphs} graphs, median ratio "
            f"{self.median_ratio:.3f}, p={self.p_value:.2g}"
        )


def compare_heuristics(
    results: Sequence[GraphResult], a: str, b: str
) -> PairedComparison:
    """Paired comparison of two heuristics over the same graphs."""
    if not results:
        raise ValueError("no results to compare")
    xs, ys = [], []
    wins = losses = ties = 0
    for r in results:
        ta = r.results[a].parallel_time
        tb = r.results[b].parallel_time
        xs.append(ta)
        ys.append(tb)
        if ta < tb - _EPS:
            wins += 1
        elif tb < ta - _EPS:
            losses += 1
        else:
            ties += 1
    ratios = sorted(x / y for x, y in zip(xs, ys))
    n = len(ratios)
    median = (
        ratios[n // 2]
        if n % 2
        else 0.5 * (ratios[n // 2 - 1] + ratios[n // 2])
    )
    diffs = [x - y for x, y in zip(xs, ys)]
    if all(abs(d) <= _EPS for d in diffs):
        p_value = 1.0
    else:
        from scipy import stats

        _, p_value = stats.wilcoxon(xs, ys, zero_method="zsplit")
    return PairedComparison(
        a=a,
        b=b,
        n_graphs=n,
        wins=wins,
        losses=losses,
        ties=ties,
        mean_ratio=sum(ratios) / n,
        median_ratio=median,
        p_value=float(p_value),
    )


def comparison_matrix(
    results: Sequence[GraphResult], names: Sequence[str] | None = None
) -> ResultTable:
    """Win-fraction matrix: cell (row, col) = share of graphs where *row*
    is strictly faster than *col* (diagonal blank as 0)."""
    if not results:
        raise ValueError("no results to compare")
    if names is None:
        names = sorted(results[0].results)
    table = ResultTable(
        "Pairwise win fraction (row beats column)",
        "heuristic",
        list(names),
        fmt="{:.2f}",
    )
    for a in names:
        row = []
        for b in names:
            if a == b:
                row.append(0.0)
                continue
            cmp_result = compare_heuristics(results, a, b)
            row.append(cmp_result.wins / cmp_result.n_graphs)
        table.add_row(a, row)
    return table
