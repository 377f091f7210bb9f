"""Shared plumbing of the benchmark: paths, spans, statistics, run records.

Nothing here imports the library under test, so ``run.py`` can refuse to
run (exit 2) in a checkout that has no ``src/repro`` before any import fails.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output of a run (sockets, journals, traces, run records); listed
#: in the root ``.gitignore``.
OUT = ROOT / ".perfbench_out"


def library_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_checkout_library() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses that must import this checkout's library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def out_dir(*parts: str) -> Path:
    path = OUT.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_delta(before: dict, after: dict, name: str) -> float:
    """What counter ``name`` gained between two ``counters`` snapshots."""
    return after.get(name, 0.0) - before.get(name, 0.0)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the traced run.

    A span is ``(name, start, end, parent, uid)``: ``parent`` is the index
    of the enclosing span (``None`` for the root) and ``uid`` names the
    graph or request the span worked on.  Nested ``span()`` blocks form the
    tree; :meth:`add` records a finished span under an explicit parent
    (concurrent requests, whose intervals overlap).  Nothing is written
    until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, uid=None):
        idx = len(self.records)
        self.records.append([name, perf_counter(), None, self.current, uid])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.records[idx][2] = perf_counter()

    def add(self, name: str, start: float, end: float, parent: int | None, uid=None) -> int:
        self.records.append([name, start, end, parent, uid])
        return len(self.records) - 1

    def busy(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r[2] - r[1] for r in self.records if r[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for r in self.records if r[0] == name)

    def self_times(self, root: int = 0) -> dict[str, float]:
        """Wall time of the root span attributed to the innermost layer.

        Every instant of the root's interval goes to the deepest span
        active at that instant (the earliest-started one among equally
        deep concurrent spans), keyed by span name; instants covered only
        by the root go to ``"unattributed"``.  For non-overlapping siblings
        this is each span's duration minus its children's, and the values
        always sum to the root's duration.
        """
        depth: list[int] = []
        for rec in self.records:
            parent = rec[3]
            depth.append(0 if parent is None else depth[parent] + 1)
        events = []
        for i, (_, start, end, _, _) in enumerate(self.records):
            events.append((start, 1, i))
            events.append((end, 0, i))
        events.sort()
        out: dict[str, float] = {}
        live: list[tuple[int, float, int]] = []
        dead: set[int] = set()
        prev = None
        for t, opening, i in events:
            while live and live[0][2] in dead:
                heapq.heappop(live)
            if prev is not None and live and t > prev:
                top = live[0][2]
                name = "unattributed" if top == root else self.records[top][0]
                out[name] = out.get(name, 0.0) + (t - prev)
            prev = t
            if opening:
                heapq.heappush(live, (-depth[i], self.records[i][1], i))
            else:
                dead.add(i)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the root start)."""
        t0 = self.records[0][1] if self.records else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, uid) in enumerate(self.records):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_s": start - t0,
                            "end_s": end - t0,
                            "parent": parent,
                            "uid": uid,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the library sources, identifying the code measured even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_context(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """What a run record says about where and how it was measured."""
    return {
        "workload": workload,
        "mode": "trace" if trace else "e2e",
        "seed": seed,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def write_record(record: dict) -> Path:
    ctx = record["context"]
    path = out_dir("records") / f"{ctx['workload']}-{ctx['mode']}-{ctx['seed']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path
