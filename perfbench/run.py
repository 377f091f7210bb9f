"""Benchmark of the scheduling testbed: one command, three workloads.

    python3 perfbench/run.py --workload table1-serial --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md``; ``BENCHMARK.json`` declares the two
suite workloads, the service's figures being too unsteady to gate on):

* ``table1-serial``     generate -> five heuristics (validated) -> Tables
                        1-11 -> save, serially; the paper's unit of work.
* ``table1-fanout``     ``run_suite(jobs=2)`` into a checkpoint journal, cold
                        and resumed; generation is set-up.
* ``service-open-loop`` Poisson arrivals into ``repro serve --threads 1``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every call into a layer and reports the
per-layer metrics.  Both print a human-readable report, then, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every correctness
check passed, 1 when one failed and 2 when the checkout has no library to
measure.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    ROOT,
    Spans,
    library_present,
    median,
    out_dir,
    run_context,
    use_checkout_library,
    write_record,
)

WORKLOADS = ("table1-serial", "table1-fanout", "service-open-loop")
#: Set-ups per e2e run; ``setup_s`` is their median.
SETUPS = 3


def load_workload(name: str):
    if name == "service-open-loop":
        from service import ServiceWorkload

        return ServiceWorkload()
    from suite import FanoutWorkload, SerialWorkload

    return SerialWorkload() if name == "table1-serial" else FanoutWorkload()


def setup_probe(args) -> float:
    """Set the workload up in a fresh interpreter and tear it down; returns
    the set-up time the child measured from its first statement."""
    proc = subprocess.run(
        [
            sys.executable,
            __file__,
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-4000:]}")
    return float(proc.stdout.split()[-1])


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def report(title: str, rows: dict, units: dict) -> None:
    print(title)
    for name, value in rows.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=seed_arg, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # A terminated run still tears down what it started (the service's
    # server process) through the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not library_present():
        print(f"error: {ROOT / 'src' / 'repro'} not found; nothing to measure", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    use_checkout_library()
    workload = load_workload(args.workload)
    import_s = perf_counter() - T0

    if args.setup_only:
        workload.setup(args.seed)
        print(perf_counter() - T0, flush=True)
        workload.teardown()
        return 0

    ctx = run_context(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}  seed={args.seed}  mode={ctx['mode']}  nproc={ctx['nproc']}  "
          f"python={ctx['python']}  seconds={args.seconds:g}")
    if args.trace:
        return traced_run(args, bench, workload, ctx)

    probes = [setup_probe(args) for _ in range(SETUPS - 1)]
    t = perf_counter()
    workload.setup(args.seed)
    setups = [import_s + perf_counter() - t, *probes]
    try:
        out = workload.measure(args.seed, args.seconds)
    finally:
        workload.teardown()
    metrics = {"setup_s": (median(setups), "s"), **out["metrics"]}
    report("end-to-end", {k: v for k, (v, _) in metrics.items()},
           {k: u for k, (_, u) in metrics.items()})
    result = {
        name: {"value": metrics[name][0], "unit": metrics[name][1]}
        for name in declared(bench, "end_to_end", args.workload, metrics)
    }
    record = {
        **out,
        "context": ctx,
        "setups_s": setups,
        "metrics": result,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return finish(record, out)


def traced_run(args, bench, workload, ctx) -> int:
    spans = Spans()
    with spans.span("run", args.seed):
        with spans.span("setup"):
            workload.setup(args.seed, spans)
        try:
            out = workload.trace(args.seed, args.seconds, spans)
        finally:
            with spans.span("teardown"):
                workload.teardown()
    wall = spans.records[0][2] - spans.records[0][1]
    self_times = spans.self_times()
    total = sum(self_times.values())
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        raise RuntimeError(f"layer self times sum to {total} s, traced wall is {wall} s")
    layers = out["layers"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    report("per-layer (traced run)", layers, units)
    print(f"self time by layer (sums to the traced wall, {wall:.3f} s)")
    for name, sec in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"  {name:34s} {sec:10.4f} s  {100 * sec / wall:5.1f}%")
    if out.get("time_to_quality"):
        print("time to quality (mean NRPT vs mean scheduling time per graph)")
        for row in out["time_to_quality"]:
            print(
                f"  {row['heuristic']:6s} NRPT {row['mean_nrpt']:.4f}  "
                f"{row['ms_per_graph']:8.3f} ms/graph"
            )
    trace_path = out_dir("traces") / f"{args.workload}-{args.seed}.jsonl"
    spans.dump(trace_path)
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    result = {
        name: {"value": float(layers[name]), "unit": units[name]}
        for name in declared(bench, "per_layer", args.workload, layers)
    }
    record = {
        **out,
        "context": ctx,
        "metrics": result,
        "self_times_s": self_times,
        "traced_wall_s": wall,
    }
    return finish(record, out)


def declared(bench: dict, kind: str, workload: str, measured: dict) -> list[str]:
    """The ``kind`` metrics of ``BENCHMARK.json`` this run reports: all of
    them for a declared workload (each must have been measured), and those
    it measured for a workload ``BENCHMARK.json`` does not declare."""
    names = [m["name"] for m in bench[kind]]
    if workload not in {w["name"] for w in bench["workloads"]}:
        return [n for n in names if n in measured]
    missing = [n for n in names if n not in measured]
    if missing:
        raise RuntimeError(f"{workload} did not measure {missing}")
    return names


def finish(record: dict, out: dict) -> int:
    mismatches = out["mismatches"]
    print("correctness: " + ("ok" if not mismatches else f"{len(mismatches)} FAILED"))
    for m in mismatches:
        print(f"  {m}")
    path = write_record(record)
    print(f"run record written to {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not mismatches,
                "attempted": int(out["attempted"]),
                "failed": int(out["failed"]),
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
