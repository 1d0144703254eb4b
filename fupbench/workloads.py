"""Seeded inputs for the three workloads.

Every workload starts from the same initial database D0: the T10.I4 data of
the paper's evaluation (``scaled_paper_workload``, ~10k rows at the default
scale).  Events are drawn from the same generator's increment pool, cycled
when a fast run uses it up.  The stream is a pure function of the seed:
batch *k* is the same whatever machine consumes it and however many batches
a run gets through.

``append``
    Insert-only micro-batches under the unbounded policy: the paper's
    Fig. 2 case.  FUP, counting, rules, the session and publication run;
    the deletion path never does.
``churn``
    The same D0 and batch size under ``window:|D0|``.  About a fifth of the
    events delete rows that earlier batches inserted and about one in
    twenty re-delivers an earlier event, so every batch runs FUP2, the
    database's deletion pass and the window's eviction plan, and the intake
    ledger drops the redeliveries.  ``append`` is its bypass twin.
``serve``
    Insert-only batches written to the file a ``repro pipeline`` process
    follows, while queries arrive open-loop over HTTP (see ``serving.py``).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from model import Event, LogicalDatabase
from repro import scaled_paper_workload

#: churn: share of a batch's events that delete rows earlier batches inserted ...
DELETE_SHARE = 0.2
#: ... and share that re-deliver an earlier event (the ledger drops them).
REDELIVER_SHARE = 0.05


@dataclass(frozen=True)
class Config:
    """Sizes and thresholds of a run; tests shrink them, runs use the defaults."""

    #: Share of the paper's D100 (100k rows): 0.1 gives a 10k-row D0.
    scale: float = 0.1
    batch_events: int = 100
    #: Several hundred served rules at D0 (about 440 with the default data).
    min_support: float = 0.006
    min_confidence: float = 0.2
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 5
    #: In-process ``/itemset`` lookups after each closed-loop batch (append, churn).
    queries_per_batch: int = 20
    #: serve: one micro-batch written per this many seconds, so maintenance
    #: (about 0.5 s a batch) stays a minor share of the serving process's time ...
    serve_batch_interval_s: float = 2.0
    #: ... and this many queries per second, open-loop on one connection.
    serve_query_rate: float = 40.0


@dataclass(frozen=True)
class Inputs:
    initial: list[tuple[int, ...]]
    pool: list[tuple[int, ...]]


def make_inputs(seed: int, config: Config) -> Inputs:
    """D0 and the increment pool events are drawn from."""
    workload = scaled_paper_workload("T10.I4.D100.d100", scale=config.scale, seed=seed)
    return Inputs(
        initial=list(workload.original.transactions()),
        pool=list(workload.increment.transactions()),
    )


def event_batches(workload: str, seed: int, inputs: Inputs, config: Config) -> Iterator[list[Event]]:
    """The endless, seed-determined stream of micro-batches for *workload*."""
    rng = random.Random(f"{workload}:{seed}")
    pool = inputs.pool
    churn = workload == "churn"
    # The generator tracks the logical database itself, so a delete always
    # names a row that is stored when its batch arrives.
    model = LogicalDatabase(inputs.initial, window=len(inputs.initial)) if churn else None
    inserted: list[tuple[int, ...]] = []  # rows earlier batches inserted, not yet deleted
    delivered: list[Event] = []
    serial = 0
    drawn = 0
    while True:
        events: list[Event] = []
        deletes = 0
        redeliveries = 0
        if churn:
            deletes = round(config.batch_events * DELETE_SHARE)
            redeliveries = round(config.batch_events * REDELIVER_SHARE)
            stored = Counter(model.rows)
            rng.shuffle(inserted)
            while deletes and inserted:
                row = inserted.pop()
                if stored[row] > 0:
                    stored[row] -= 1
                    events.append((f"e{serial}", "delete", row))
                    serial += 1
                    deletes -= 1
            redeliveries = min(redeliveries, len(delivered))
        new_rows = []
        for _ in range(config.batch_events - len(events) - redeliveries):
            new_rows.append(pool[drawn % len(pool)])
            drawn += 1
        for row in new_rows:
            events.append((f"e{serial}", "insert", row))
            serial += 1
        if redeliveries:
            events.extend(rng.sample(delivered[-10 * config.batch_events :], redeliveries))
        rng.shuffle(events)
        if churn:
            model.apply(events)
            inserted.extend(new_rows)
            delivered.extend(events)
        yield events
