"""Per-layer spans, recorded from outside the program.

:class:`Tracer` wraps the public calls at each layer boundary of the
program (class attributes and module functions are swapped for timing
wrappers, and put back by :meth:`Tracer.uninstall`).  Layers are named after
the modules they live in:

=================  ==========================================================
``ingest``         ``TransactionIntake.submit`` (the root of one batch),
                   ``IntakeLedger.commit``
``session``        ``MaintenanceSession.apply`` (journal append, fsync,
                   validation) and ``.checkpoint``
``maintenance``    ``RuleMaintainer.apply``
``policy``         every ``MaintenancePolicy`` subclass's ``plan``
``fup``/``fup2``   ``FupUpdater.update`` / ``Fup2Updater.update``
``counting``       ``VerticalBackend.count_candidates`` / ``.count_items``
                   (the bitmap kernel runs inside them)
``db``             ``TransactionDatabase.remove_batch`` / ``.extend`` /
                   ``.missing_transactions``
``rules``          ``generate_rules`` / ``diff_rules`` as maintenance calls them
``serve``          ``RuleStore.publish_from``, ``repro.serve.api.route_query``
=================  ==========================================================

About half the submitted batches are traced and the others run with the
wrappers passing straight through, so one run yields both the per-layer
split and the tracing overhead (traced against plain batch time).  Which
batches are traced is drawn from a fixed-seed random stream, not a fixed
stride, so the choice cannot line up with the session's checkpoint cadence
(every 16th batch) and skew either side towards checkpoint batches.
Queries and checkpoints are timed on every occurrence.  A span's self time
is its duration minus the time of the child spans it covers; the split of a
batch is the sum of each layer's spans inside that batch.

Spans stay in memory; :meth:`Tracer.dump` returns them as plain JSON data
and :func:`layer_metrics` reduces a dump to the per-layer metrics.
"""

from __future__ import annotations

import functools
import random
import statistics
import threading
import time
from typing import Callable

from probe import HostProbe

from repro.core import maintenance as maintenance_module
from repro.core.fup import FupUpdater
from repro.core.fup2 import Fup2Updater
from repro.core.maintenance import RuleMaintainer
from repro.core.policy import MaintenancePolicy
from repro.core.session import MaintenanceSession
from repro.db.transaction_db import TransactionDatabase
from repro.ingest.intake import TransactionIntake
from repro.ingest.ledger import IntakeLedger
from repro.mining.backends.vertical import VerticalBackend
from repro.serve import api as serve_api
from repro.serve.store import RuleStore


def _policy_classes() -> list[type]:
    found, todo = [], [MaintenancePolicy]
    while todo:
        cls = todo.pop()
        if "plan" in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped call."""
    targets = [
        (TransactionIntake, "submit", "ingest.submit"),
        (IntakeLedger, "commit", "ingest.ledger_commit"),
        (MaintenanceSession, "apply", "session.apply"),
        (MaintenanceSession, "checkpoint", "session.checkpoint"),
        (RuleMaintainer, "apply", "maintenance.apply"),
        (FupUpdater, "update", "fup.update"),
        (Fup2Updater, "update", "fup2.update"),
        (VerticalBackend, "count_candidates", "counting.count"),
        (VerticalBackend, "count_items", "counting.items"),
        (TransactionDatabase, "remove_batch", "db.remove_batch"),
        (TransactionDatabase, "extend", "db.extend"),
        (TransactionDatabase, "missing_transactions", "db.missing"),
        (maintenance_module, "generate_rules", "rules.generate"),
        (maintenance_module, "diff_rules", "rules.diff"),
        (RuleStore, "publish_from", "serve.publish"),
        (serve_api, "route_query", "serve.query"),
    ]
    targets += [(cls, "plan", "policy.plan") for cls in _policy_classes()]
    return targets


class _Batch:
    """Spans and counters of one traced batch."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [inclusive ms, self ms]
        self.counters: dict[str, float] = {}

    def add(self, name: str, inclusive_ms: float, self_ms: float) -> None:
        totals = self.spans.setdefault(name, [0.0, 0.0])
        totals[0] += inclusive_ms
        totals[1] += self_ms

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value


class Tracer:
    """Installs the layer wrappers and keeps what they record."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        #: Draws which submitted batches are traced (see the module docstring).
        self._pick = random.Random(0)
        self._batch: _Batch | None = None
        self.batches: list[dict] = []
        # Times below are (start, end) pairs on the monotonic clock, which
        # is system-wide, so a child process's spans line up with this one's.
        #: (traced?, start, end, events, duplicates) for every submitted batch.
        self.submits: list[tuple[bool, float, float, int, int]] = []
        #: (path, start, end) for every query.
        self.queries: list[tuple[str, float, float]] = []
        #: (start, end) for every checkpoint.
        self.checkpoints: list[tuple[float, float]] = []

    # -- installation --------------------------------------------------- #
    def install(self) -> "Tracer":
        for owner, attribute, name in _targets():
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function: Callable, name: str) -> Callable:
        if name == "ingest.submit":
            return self._wrap_root(function)
        if name == "serve.query":
            return self._wrap_query(function)
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            batch = tracer._batch
            if batch is None and name != "session.checkpoint":
                return function(*args, **kwargs)
            stack = tracer._stack()
            frame = [time.monotonic(), 0.0]  # start, time covered by children
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                inclusive = time.monotonic() - frame[0]
                if stack:
                    stack[-1][1] += inclusive
            if name == "session.checkpoint":
                tracer.checkpoints.append((frame[0], frame[0] + inclusive))
            if batch is not None:
                batch.add(name, inclusive * 1000.0, (inclusive - frame[1]) * 1000.0)
                tracer._observe(batch, name, args, result)
            return result

        return traced

    def _wrap_root(self, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def submit(intake, events):
            traced = tracer._pick.random() < 0.5
            start = time.monotonic()
            if traced:
                tracer._batch = _Batch()
                frame = [start, 0.0]
                tracer._stack().append(frame)
            try:
                report = function(intake, events)
            finally:
                elapsed = time.monotonic() - start
                batch, tracer._batch = tracer._batch, None
                if traced:
                    tracer._stack().pop()
            tracer.submits.append((traced, start, start + elapsed, report.events, report.duplicates))
            if traced:
                batch.add("ingest.submit", elapsed * 1000.0, (elapsed - frame[1]) * 1000.0)
                tracer.batches.append(
                    {"at": (start, start + elapsed), "spans": batch.spans, "counters": batch.counters}
                )
            return report

        return submit

    def _wrap_query(self, function: Callable) -> Callable:
        queries = self.queries

        @functools.wraps(function)
        def route_query(store, path, query):
            start = time.monotonic()
            try:
                return function(store, path, query)
            finally:
                queries.append((path, start, time.monotonic()))

        return route_query

    @staticmethod
    def _observe(batch: _Batch, name: str, args: tuple, result: object) -> None:
        if name == "counting.count":
            batch.count("candidates", len(result))
        elif name == "policy.plan":
            batch.count("evicted", result.evicted)
        elif name in ("fup.update", "fup2.update"):
            batch.count("transactions_read", result.transactions_read)
            batch.count("found", len(result.lattice))
        elif name == "maintenance.apply":
            removed = len(result.rules_removed)
            changed = len(result.rules_added) + removed + len(result.rules_updated)
            batch.count("rules_changed_ratio", changed / max(1, len(args[0].rules) + removed))

    def dump(self) -> dict:
        """Everything recorded, as JSON-safe data."""
        return {
            "batches": self.batches,
            "submits": self.submits,
            "queries": self.queries,
            "checkpoints": self.checkpoints,
        }


#: Per-layer metrics :func:`layer_metrics` reports, with their units.
LAYER_UNITS = {
    "fup2.update_ms.p50": "ms",
    "db.remove_batch_ms.p50": "ms",
    "db.missing_ms.p50": "ms",
    "db.extend_ms.p50": "ms",
    "policy.plan_ms.p50": "ms",
    "policy.evicted": "count/batch",
    "fup.update_ms.p50": "ms",
    "counting.count_ms.p50": "ms",
    "counting.candidates": "count/batch",
    "fup.transactions_read": "count/batch",
    "fup.useful_ratio": "ratio",
    "rules.generate_ms.p50": "ms",
    "rules.diff_ms.p50": "ms",
    "rules.changed_ratio": "ratio",
    "maintenance.self_ms.p50": "ms",
    "session.apply_self_ms.p50": "ms",
    "ingest.ledger_commit_ms.p50": "ms",
    "session.checkpoint_ms.max": "ms",
    "session.checkpoints": "count",
    "ingest.submit_self_ms.p50": "ms",
    "ingest.dup_ratio": "ratio",
    "serve.publish_ms.p50": "ms",
    "serve.query_ms.recommend.p50": "ms",
    "serve.query_ms.itemset.p50": "ms",
    "trace.overhead_share": "ratio",
}

# metric -> (span names summed per batch, 0 for inclusive or 1 for self time)
_SPAN_METRICS = {
    "fup2.update_ms.p50": (("fup2.update",), 0),
    "db.remove_batch_ms.p50": (("db.remove_batch",), 0),
    "db.missing_ms.p50": (("db.missing",), 0),
    "db.extend_ms.p50": (("db.extend",), 0),
    "policy.plan_ms.p50": (("policy.plan",), 0),
    "fup.update_ms.p50": (("fup.update",), 0),
    "counting.count_ms.p50": (("counting.count", "counting.items"), 0),
    "rules.generate_ms.p50": (("rules.generate",), 0),
    "rules.diff_ms.p50": (("rules.diff",), 0),
    "maintenance.self_ms.p50": (("maintenance.apply",), 1),
    "session.apply_self_ms.p50": (("session.apply",), 1),
    "ingest.ledger_commit_ms.p50": (("ingest.ledger_commit",), 0),
    "ingest.submit_self_ms.p50": (("ingest.submit",), 1),
    "serve.publish_ms.p50": (("serve.publish",), 0),
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(dump: dict, start: float, end: float, probe: HostProbe | None) -> dict[str, float]:
    """Reduce a :meth:`Tracer.dump` to per-layer metrics.

    With a *probe*, each batch's span times are corrected by the probe
    samples around that batch.  *start*/*end* bound the load phase whose
    queries and checkpoints count.
    """
    batches = dump["batches"]
    factors = [probe.factor(*batch["at"]) if probe else 1.0 for batch in batches]
    metrics: dict[str, float] = {}
    for metric, (spans, column) in _SPAN_METRICS.items():
        metrics[metric] = _median([
            factor * sum(batch["spans"].get(span, [0.0, 0.0])[column] for span in spans)
            for batch, factor in zip(batches, factors, strict=True)
        ])

    def mean_counter(name: str) -> float:
        return statistics.fmean([batch["counters"].get(name, 0.0) for batch in batches]) if batches else 0.0

    metrics["policy.evicted"] = mean_counter("evicted")
    metrics["counting.candidates"] = mean_counter("candidates")
    metrics["fup.transactions_read"] = mean_counter("transactions_read")
    # Large itemsets after each FUP/FUP2 round over the candidates it counted.
    counted = sum(batch["counters"].get("candidates", 0.0) for batch in batches)
    found = sum(batch["counters"].get("found", 0.0) for batch in batches)
    metrics["fup.useful_ratio"] = found / counted if counted else 0.0
    metrics["rules.changed_ratio"] = mean_counter("rules_changed_ratio")

    def corrected_ms(begin: float, finish: float) -> float:
        return (finish - begin) * 1000.0 * (probe.factor(begin, finish) if probe else 1.0)

    checkpoints = [corrected_ms(*span) for span in dump["checkpoints"] if start <= span[0] <= end]
    metrics["session.checkpoint_ms.max"] = max(checkpoints, default=0.0)
    metrics["session.checkpoints"] = float(len(checkpoints))

    submits = dump["submits"]
    events = sum(entry[3] for entry in submits)
    metrics["ingest.dup_ratio"] = sum(entry[4] for entry in submits) / events if events else 0.0
    traced = _median([corrected_ms(entry[1], entry[2]) for entry in submits if entry[0]])
    plain = _median([corrected_ms(entry[1], entry[2]) for entry in submits if not entry[0]])
    metrics["trace.overhead_share"] = traced / plain - 1.0 if plain else 0.0

    for path in ("recommend", "itemset"):
        metrics[f"serve.query_ms.{path}.p50"] = _median(
            [corrected_ms(begin, finish) for where, begin, finish in dump["queries"]
             if where == f"/{path}" and start <= begin <= end]
        )
    return metrics
