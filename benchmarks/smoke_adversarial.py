#!/usr/bin/env python
"""Adversarial-engine smoke: CLI round trip, replay identity, suite consumption.

Run by the CI ``adversarial-smoke`` job (and by hand before trusting the
adversarial tier)::

    PYTHONPATH=src python benchmarks/smoke_adversarial.py

One continuous scenario over a temporary instance store:

1. ``repro adversarial search`` (a real subprocess) runs the fixed-seed
   CI budget — 200 steps x 4 candidates, the same configuration as
   ``bench_adversarial.py --quick`` — against a 1-graph/cell random
   testbed.  The hunt must rediscover a DSC-vs-CLANS gap at or above the
   pinned floor (``--min-gap``; the fixed seed finds ~2.344) **and**
   strictly beat the random testbed's max: the subsystem's reason to
   exist, enforced on every CI run.
2. ``repro adversarial replay`` rebuilds the instance from its
   ``(base spec, op log)`` recipe; the digest must match exactly.
3. ``repro adversarial promote`` admits it to the ``adversarial`` graph
   class (replay-verifying again on the way in); ``list`` must show it.
4. The promoted instance is consumed by ``run_suite`` exactly like any
   random graph: serial and ``jobs=2`` parallel runs must serialize
   **byte-identically**.

Exits 0 when every assertion holds, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.advbench import _serialized
from repro.experiments.runner import run_suite
from repro.generation.suites import adversarial_suite

SEED = 19940815
STEPS = 200
NEIGHBORHOOD = 4
GAP_FLOOR = 2.0  # matches advbench.QUICK_FLOORS["best_gap"]


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return env


def _run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(),
        capture_output=True,
        text=True,
    )


def main() -> int:
    store = tempfile.mkdtemp(prefix="repro-adversarial-smoke-")

    print(f"phase 1: fixed-seed hunt ({STEPS} steps x {NEIGHBORHOOD}), "
          f"floor {GAP_FLOOR}")
    proc = _run([
        "adversarial", "search",
        "--steps", str(STEPS),
        "--neighborhood", str(NEIGHBORHOOD),
        "--search-seed", str(SEED),
        "--baseline", "1", "--quick-baseline",
        "--min-gap", str(GAP_FLOOR),
        "--json", "--store", store,
    ])
    check(proc.returncode == 0,
          f"adversarial search exited {proc.returncode}: {proc.stderr}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    digest = summary["digest"]
    print(f"  gap {summary['base_gap']:.4f} -> {summary['gap']:.4f} "
          f"({summary['op_log_len']} ops, {summary['steps_per_s']:.1f} steps/s), "
          f"digest {digest[:16]}")
    check(summary["gap"] >= GAP_FLOOR,
          f"best gap {summary['gap']:.4f} below floor {GAP_FLOOR}")
    check(summary["baseline_gap"] is not None
          and summary["gap"] > summary["baseline_gap"],
          f"best gap {summary['gap']:.4f} does not beat random testbed max "
          f"{summary['baseline_gap']}")
    print(f"  beats random testbed max {summary['baseline_gap']:.4f}")

    print("phase 2: replay-verify the (base spec, op log) recipe")
    proc = _run(["adversarial", "replay", digest[:16], "--store", store])
    check(proc.returncode == 0,
          f"adversarial replay exited {proc.returncode}: {proc.stderr}")
    check("digest identical" in proc.stdout,
          f"replay did not confirm digest identity: {proc.stdout!r}")
    print(f"  {proc.stdout.strip()}")

    print("phase 3: promote into the 'adversarial' graph class")
    proc = _run(["adversarial", "promote", digest[:16], "--store", store])
    check(proc.returncode == 0,
          f"adversarial promote exited {proc.returncode}: {proc.stderr}")
    proc = _run(["adversarial", "list", "--store", store])
    check(proc.returncode == 0 and digest[:16] in proc.stdout,
          f"promoted instance missing from list: {proc.stdout!r}")

    print("phase 4: suite consumption — serial/parallel byte identity")
    suite = list(adversarial_suite(store))
    check(len(suite) == 1, f"expected 1 promoted suite graph, got {len(suite)}")
    check(suite[0].graph_id == f"adv-{digest[:12]}",
          f"unexpected suite graph id {suite[0].graph_id}")
    serial = _serialized(run_suite(list(suite), None, seed=SEED))
    parallel = _serialized(run_suite(list(suite), None, seed=SEED, jobs=2))
    check(serial == parallel,
          f"serial/parallel results differ ({len(serial)} vs {len(parallel)} bytes)")
    print(f"  byte identity : serial == jobs=2 ({len(serial)} bytes)")

    print("adversarial smoke: all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
