"""The closed-loop workloads ``append`` and ``churn``, driven in this process.

The run is pinned to one CPU (``probe.program_cpu``), so the probe samples
the CPU the work runs on.  One thread submits micro-batches through the
program's public intake (``TransactionIntake.submit`` on a durable
``MaintenanceSession`` with a ``RuleStore`` attached) and sends the next
batch only when the previous one returns.  After each batch it looks up itemset supports in the freshly
published snapshot through the serving API (``route_query``, looked up at
call time so a traced run sees the wrapped one) and samples the host probe.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path

from common import Intervals, Outcome, peak_rss_mb
from model import LogicalDatabase, ServedState, compare, reference_state
from probe import HostProbe, program_cpu
from tracing import Tracer, layer_metrics
from workloads import Config, Inputs, event_batches, make_inputs

from repro import FupOptions, MaintenanceSession, ReproError, RuleStore, SlidingWindowPolicy
from repro.ingest import IngestEvent, TransactionIntake
from repro.mining.rules import rule_as_dict
from repro.serve import api as serve_api


def _open(directory: Path, inputs: Inputs, config: Config, window: int | None):
    """Cold start to ready: initial mine, first checkpoint, intake and store."""
    session = MaintenanceSession.create(
        directory,
        inputs.initial,
        min_support=config.min_support,
        min_confidence=config.min_confidence,
        fup_options=FupOptions(backend="vertical"),
        policy=SlidingWindowPolicy(window) if window else None,
    )
    store = RuleStore()
    store.attach(session.maintainer)
    return session, store, TransactionIntake(session)


def itemset_queries(store: RuleStore, size: int = 256) -> list[dict[str, str]]:
    """``/itemset`` support lookups for served itemsets of two or more items.

    Lookups, not recommendations: a lookup's cost does not depend on how
    many rules a seed's data happens to produce, so the closed loops' read
    latency is comparable across seeds.
    """
    itemsets = [items for items in store.snapshot().supports() if len(items) > 1][:size]
    if not itemsets:
        raise RuntimeError("no itemsets of two or more items are served, so there is nothing to query")
    return [{"items": ",".join(map(str, items))} for items in itemsets]


def run_inprocess(
    workload: str, seed: int, seconds: float, trace: bool, config: Config, workdir: Path, probe: HostProbe
) -> Outcome:
    inputs = make_inputs(seed, config)
    window = len(inputs.initial) if workload == "churn" else None
    # Installed before any store attaches, so the store's subscription
    # already goes through the wrapped publish_from.
    tracer = Tracer().install() if trace else None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {program_cpu()})
    try:
        return _drive(workload, seed, seconds, config, workdir, probe, inputs, window, tracer)
    finally:
        os.sched_setaffinity(0, cpus)
        if tracer is not None:
            tracer.uninstall()


def _drive(workload, seed, seconds, config, workdir, probe, inputs, window, tracer) -> Outcome:
    outcome = Outcome()
    timed = Intervals()
    for index in range(config.setups):
        probe.sample(3)
        directory = workdir / f"session-{index}"
        start = time.monotonic()
        session, store, intake = _open(directory, inputs, config, window)
        timed.add("setup", start, time.monotonic())
        if index + 1 < config.setups:
            session.close()
            shutil.rmtree(directory)
    try:
        published: dict[int, float] = {}
        store.on_publish(lambda snapshot: published.setdefault(snapshot.version, time.monotonic()))
        queries = itemset_queries(store)
        stream = event_batches(workload, seed, inputs, config)
        submitted = []
        applied = 0
        probe.sample(3)
        load_start = time.monotonic()
        deadline = load_start + seconds
        while time.monotonic() < deadline:
            events = next(stream)
            intake_events = [IngestEvent(key, op, items) for key, op, items in events]
            outcome.attempted += 1
            start = time.monotonic()
            try:
                report = intake.submit(intake_events)
            except ReproError as error:
                outcome.failed += 1
                print(f"batch refused: {error}", file=sys.stderr)
                continue
            timed.add("batch_ms", start, time.monotonic())
            submitted.append(events)
            applied += report.applied
            if report.applied:
                timed.add("freshness_ms", start, published[report.seq])
            for number in range(config.queries_per_batch):
                query = queries[(len(submitted) * config.queries_per_batch + number) % len(queries)]
                outcome.attempted += 1
                start = time.monotonic()
                status, _ = serve_api.route_query(store, "/itemset", query)
                timed.add("query_ms", start, time.monotonic())
                if status != 200:
                    outcome.failed += 1
            probe.sample(3)
        load_end = time.monotonic()

        outcome.record_setup(timed, probe)
        outcome.record(timed, probe, "batch_ms", (50, 90))
        outcome.record(timed, probe, "freshness_ms", (50, 90))
        outcome.record(timed, probe, "query_ms", (50, 99))
        outcome.raw["events_per_s"] = applied * 1000.0 / sum(timed.ms("batch_ms"))
        outcome.corrected["events_per_s"] = applied * 1000.0 / sum(timed.ms("batch_ms", probe))
        outcome.raw["peak_rss_mb"] = outcome.corrected["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            outcome.layers = layer_metrics(tracer.dump(), load_start, load_end, probe)
            outcome.layers["gen.lag_ms.p99"] = 0.0  # a closed loop is never behind its schedule

        model = LogicalDatabase(inputs.initial, window=window)
        for events in submitted:
            model.apply(events)
        snapshot = store.snapshot()
        served = ServedState(
            version=snapshot.version,
            database_size=snapshot.database_size,
            supports=snapshot.supports(),
            rules=[rule_as_dict(rule) for rule in snapshot.rules],
        )
        outcome.attempted += 1
        outcome.problems = compare(
            served, model, reference_state(model.rows, config.min_support, config.min_confidence)
        )
        if outcome.problems:
            outcome.failed += 1
    finally:
        session.close()
    return outcome
