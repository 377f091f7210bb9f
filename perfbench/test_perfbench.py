"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

A tiny run of each workload in both modes checks the result schema and the
metric names against ``BENCHMARK.json``; tampered results and responses
must fail the correctness gate; a checkout without the library must make
the command fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from common import Spans, sha256_file  # noqa: E402
from service import Mix, check_samples, library_response  # noqa: E402
from suite import (  # noqa: E402
    PINS,
    check_digests,
    check_pins,
    reference_pins,
)

from repro.experiments.measures import HeuristicResult  # noqa: E402
from repro.experiments.persistence import save_results  # noqa: E402
from repro.experiments.runner import run_suite  # noqa: E402
from repro.generation.suites import generate_suite, suite_cells  # noqa: E402
from repro.service.protocol import encode_request  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


DECLARED = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [*DECLARED, "service-open-loop"])
def test_tiny_run_schema(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    names = [m["name"] for m in declared]
    if workload in DECLARED:
        assert list(result["metrics"]) == names
    else:
        assert list(result["metrics"]) == [n for n in names if n in result["metrics"]]
        assert len(result["metrics"]) >= 3
    for m in declared:
        if m["name"] not in result["metrics"]:
            continue
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0


def test_checkout_without_library_fails(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("table1-serial", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pins_reproduce(tmp_path):
    assert check_pins(reference_pins(tmp_path / "ref.json"), json.loads(PINS.read_text())) == []


def test_tampered_pins_fail(tmp_path):
    pinned = json.loads(PINS.read_text())
    found = dict(pinned, mean_nrpt=dict(pinned["mean_nrpt"], HU="3.5"))
    assert check_pins(found, pinned)


def test_tampered_result_fails_digest_gate(tmp_path):
    suite = list(generate_suite(graphs_per_cell=1, seed=5, cells=suite_cells()[:4]))
    results = run_suite(suite, jobs=1, validate=True)
    save_results(results, tmp_path / "a.json")
    gr = results[0]
    gr.results["DSC"] = HeuristicResult(
        parallel_time=gr.results["DSC"].parallel_time + 1.0,
        n_processors=gr.results["DSC"].n_processors,
    )
    save_results(results, tmp_path / "b.json")
    same = {"serial": sha256_file(tmp_path / "a.json"), "cold": sha256_file(tmp_path / "a.json")}
    assert check_digests(same) == []
    differ = dict(same, resume=sha256_file(tmp_path / "b.json"))
    assert check_digests(differ)


@pytest.fixture(scope="module")
def mix():
    return Mix(generate_suite(graphs_per_cell=1, seed=7, cells=suite_cells()[:6]), 7)


def test_frames_match_encode_request(mix):
    for i, req in enumerate(mix.requests(100.0, 40)):
        op, params = req.body
        assert req.frame == encode_request(op, params, id=i)


def test_library_responses_pass_gate(mix):
    reqs = mix.requests(100.0, 30)
    samples = [(req, library_response(req, i)) for i, req in enumerate(reqs)]
    assert {req.op for req in reqs} >= {"schedule", "classify"}
    assert check_samples(samples) == []


def test_tampered_response_fails_gate(mix):
    req = next(r for r in mix.requests(100.0, 30) if r.op == "schedule")
    good = library_response(req, 0)
    head, sep, tail = good.partition(b'"makespan":')
    bad = head + sep + b"1" + tail
    assert check_samples([(req, good)]) == []
    assert check_samples([(req, bad)])


def test_self_times_sum_to_root_with_overlapping_spans():
    spans = Spans()
    spans.add("run", 0.0, 10.0, None)
    spans.add("phase", 1.0, 9.0, 0)
    spans.add("request", 2.0, 5.0, 1, 0)
    spans.add("request", 4.0, 6.0, 1, 1)
    spans.add("codec", 3.0, 3.5, 2, 0)
    got = spans.self_times()
    assert got == pytest.approx(
        {"unattributed": 2.0, "phase": 4.0, "request": 3.5, "codec": 0.5}
    )
    assert sum(got.values()) == pytest.approx(10.0)

