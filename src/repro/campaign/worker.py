"""Campaign worker: lease → regenerate → execute → heartbeat → submit.

A worker is deliberately dumb and disposable.  It carries no state a
crash could lose beyond its current in-flight unit, which the
coordinator's lease expiry reclaims; ``kill -9`` mid-unit costs exactly
one unit's compute time and nothing else.  Everything it needs arrives
in the ``campaign.register`` response — the spec to regenerate graphs
from (bit-identically, see :func:`repro.campaign.spec.unit_graphs`) and
the lease TTL to heartbeat against.

Execution reuses the suite runner verbatim (``run_suite`` with
``on_error="record"`` and the spec's timeout/retry fault policy), so a
unit's results and failure records are the *same objects* a serial run
would produce — the byte-identity of the merged campaign is inherited,
not re-implemented.

Heartbeats run on their own thread **and their own connection**: the
main connection blocks for a unit's whole compute time inside
``campaign.result``/``campaign.lease`` turnarounds, and a heartbeat
queued behind that would defeat its purpose.  Losing the lease (the
heartbeat answer ``ok: false``) does not abort the unit — the work is
nearly done and first-delivery-wins dedup makes the redundant submit
harmless.

Submission failures (coordinator crashed or restarting) are retried
with the SDK's full-jitter backoff under a ``patience`` budget, so a
fleet of workers rides out a coordinator restart without losing
completed work and without stampeding the resumed coordinator.

Test hook: ``REPRO_CAMPAIGN_UNIT_DELAY`` (seconds, float) sleeps after
each lease grant, giving crash tests a deterministic window in which the
worker holds a lease but has not yet submitted.
"""

from __future__ import annotations

import os
import threading
import time
import uuid

from ..experiments.persistence import result_to_dict
from ..experiments.runner import run_suite
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..schedulers.base import get_scheduler
from ..service.client import ServiceClient, ServiceError
from .spec import CampaignSpec, WorkUnit, unit_graphs

__all__ = ["run_worker"]

#: How long a worker keeps retrying `wait` polls and unreachable
#: coordinators before giving up (seconds).
DEFAULT_PATIENCE = 60.0


def _heartbeat_loop(
    address,
    worker_id: str,
    unit_id: str,
    interval: float,
    stop: threading.Event,
) -> None:
    """Renew one lease until told to stop; errors are ignored (a missed
    heartbeat at worst expires the lease, which dedup already covers)."""
    client = ServiceClient(address, retries=0)
    try:
        while not stop.wait(interval):
            try:
                client.call(
                    "campaign.heartbeat",
                    {"worker": worker_id, "unit_id": unit_id},
                )
            except ServiceError:
                pass
    finally:
        client.close()


def run_worker(
    address,
    *,
    worker_id: "str | None" = None,
    jobs: int = 1,
    patience: float = DEFAULT_PATIENCE,
    poll: float = 0.25,
    max_units: "int | None" = None,
) -> int:
    """Process campaign units until the campaign is done.

    Returns the number of units this worker completed.  ``max_units``
    stops early after that many completions (tests use it to leave work
    for a resume).  ``patience`` bounds how long ``wait`` polling and
    coordinator outages are tolerated before giving up.
    """
    worker_id = worker_id or f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    log = get_logger("campaign")
    registry = get_registry()
    unit_delay = float(os.environ.get("REPRO_CAMPAIGN_UNIT_DELAY", "0") or 0)

    client = ServiceClient(address, retries=3, backoff=0.05)
    try:
        info = _with_patience(
            lambda: client.call("campaign.register", {"worker": worker_id}),
            patience,
            "register",
        )
        spec = CampaignSpec.from_dict(info["spec"])
        lease_ttl = float(info["lease_ttl"])
        schedulers = (
            None
            if spec.heuristics is None
            else [get_scheduler(n) for n in spec.heuristics]
        )
        log.info(
            "worker %s joined campaign %s (%d units)",
            worker_id,
            info["campaign"][:12],
            info["n_units"],
        )
        completed = 0
        idle_since: "float | None" = None
        while max_units is None or completed < max_units:
            try:
                grant = _with_patience(
                    lambda: client.call("campaign.lease", {"worker": worker_id}),
                    patience,
                    "lease",
                )
            except ServiceError as exc:
                if exc.status != "unavailable":
                    raise
                log.warning(
                    "worker %s: coordinator gone for %.0fs; assuming the "
                    "campaign ended and shutting down",
                    worker_id,
                    patience,
                )
                break
            if grant["status"] == "done":
                break
            if grant["status"] == "wait":
                # Someone else holds the remaining units; poll until the
                # campaign finishes or a lease expires back into the pool.
                if idle_since is None:
                    idle_since = time.monotonic()
                elif time.monotonic() - idle_since > patience:
                    log.warning(
                        "worker %s idle for %.0fs with campaign unfinished; "
                        "giving up",
                        worker_id,
                        patience,
                    )
                    break
                time.sleep(poll)
                continue
            idle_since = None
            unit = WorkUnit.from_dict(grant["unit"])
            registry.inc("campaign.worker.units.leased")
            if unit_delay > 0:
                time.sleep(unit_delay)  # test hook: widen the crash window
            stop = threading.Event()
            hb = threading.Thread(
                target=_heartbeat_loop,
                args=(client.address, worker_id, unit.unit_id, lease_ttl / 3.0, stop),
                name=f"hb-{unit.unit_id}",
                daemon=True,
            )
            hb.start()
            try:
                result = run_suite(
                    unit_graphs(spec, unit),
                    schedulers,
                    validate=spec.validate,
                    seed=spec.seed,
                    jobs=jobs,
                    on_error="record",
                    timeout=spec.timeout,
                    retries=spec.retries,
                )
            finally:
                stop.set()
                hb.join(timeout=1.0)
            payload = {
                "worker": worker_id,
                "unit_id": unit.unit_id,
                "digest": unit.digest,
                "results": [result_to_dict(r) for r in result],
                "failures": [fr.to_dict() for fr in result.failures],
            }
            try:
                ack = _with_patience(
                    lambda: client.call("campaign.result", payload),
                    patience,
                    f"submit {unit.unit_id}",
                )
            except ServiceError as exc:
                if exc.status != "unavailable":
                    raise
                # Nothing is lost: the unit's lease will expire on the
                # (eventually resumed) coordinator and be recomputed, or
                # the journal already holds a pre-crash delivery of it.
                log.warning(
                    "worker %s: could not deliver %s after %.0fs; lease "
                    "expiry will reschedule it — shutting down",
                    worker_id,
                    unit.unit_id,
                    patience,
                )
                break
            completed += 1
            registry.inc("campaign.worker.units.done")
            if ack.get("duplicate"):
                registry.inc("campaign.worker.units.redundant")
            if ack.get("done"):
                break
        log.info("worker %s finished: %d units", worker_id, completed)
        return completed
    finally:
        client.close()


def _with_patience(call, patience: float, what: str):
    """Run ``call`` retrying ``unavailable`` errors until ``patience`` runs
    out.  The SDK already retries with full-jitter backoff inside one
    ``call``; this outer loop covers a coordinator that stays down longer
    — e.g. the operator restarting it with ``repro campaign resume``."""
    deadline = time.monotonic() + patience
    while True:
        try:
            return call()
        except ServiceError as exc:
            if exc.status != "unavailable" or time.monotonic() >= deadline:
                raise
            get_logger("campaign").warning(
                "coordinator unreachable during %s; retrying (%.0fs of "
                "patience left)",
                what,
                deadline - time.monotonic(),
            )
            time.sleep(min(1.0, max(0.05, patience / 20.0)))
