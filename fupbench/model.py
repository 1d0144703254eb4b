"""The correctness gate: a plain-list model of the logical database.

The model replays the exact events a run submitted, with the program's
documented semantics and none of its code:

* an event key is applied at most once (the intake ledger's dedup, across
  batches and inside one batch);
* a delete removes the earliest stored occurrence of that transaction, and
  every delete in a batch refers to the database *before* the batch; a
  batch naming a transaction that is not stored is refused whole;
* under a window of W rows, the oldest surviving rows are evicted so that
  at most W remain, after the batch's own deletes and before its inserts;
* every batch with at least one fresh event is one new version.

:func:`reference_state` then re-mines the model from scratch with
``AprioriMiner`` and ``generate_rules``; :func:`compare` lists every way the
served state differs from it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro import AprioriMiner, MiningOptions, TransactionDatabase, generate_rules
from repro.mining.rules import rule_as_dict

#: One intake event as the benchmark generates it: (key, op, transaction).
Event = tuple[str, str, tuple[int, ...]]


class RefusedBatch(Exception):
    """The model refuses a batch exactly when the program must."""


class LogicalDatabase:
    """The rows the program should hold, in storage order."""

    def __init__(self, rows: Iterable[Sequence[int]], window: int | None = None) -> None:
        self.rows: list[tuple[int, ...]] = [tuple(row) for row in rows]
        self.window = window
        if window is not None and len(self.rows) > window:
            del self.rows[: len(self.rows) - window]
        self.seen: set[str] = set()
        self.version = 0

    def apply(self, events: Sequence[Event]) -> tuple[int, int]:
        """Apply one micro-batch; return ``(applied, duplicates)``."""
        fresh: list[Event] = []
        batch_keys: set[str] = set()
        for event in events:
            if event[0] in self.seen or event[0] in batch_keys:
                continue
            batch_keys.add(event[0])
            fresh.append(event)
        duplicates = len(events) - len(fresh)
        if not fresh:
            return 0, duplicates
        inserts = [items for _, op, items in fresh if op == "insert"]
        deletes = [items for _, op, items in fresh if op == "delete"]
        stored = Counter(self.rows)
        missing = Counter(deletes) - stored
        if missing:
            raise RefusedBatch(f"deletes {sum(missing.values())} row(s) not stored")
        for items in deletes:
            self.rows.remove(items)  # list.remove takes the earliest occurrence
        if self.window is not None:
            inserts = inserts[-self.window :]
            overflow = len(self.rows) + len(inserts) - self.window
            if overflow > 0:
                del self.rows[:overflow]
        self.rows.extend(inserts)
        self.seen |= batch_keys
        self.version += 1
        return len(fresh), duplicates


@dataclass(frozen=True)
class ServedState:
    """What the program serves, in a form both front ends can fill in."""

    version: int
    database_size: int
    supports: Mapping[tuple[int, ...], int]
    rules: list[dict]


def reference_state(
    rows: Sequence[tuple[int, ...]], min_support: float, min_confidence: float
) -> tuple[dict[tuple[int, ...], int], list[dict]]:
    """Re-mine *rows* from scratch: ``(supports, rules as JSON dicts)``."""
    result = AprioriMiner(min_support, options=MiningOptions(backend="vertical")).mine(
        TransactionDatabase(rows)
    )
    rules = generate_rules(result.lattice, min_confidence)
    return dict(result.lattice.supports()), [rule_as_dict(rule) for rule in rules]


def compare(
    served: ServedState,
    model: LogicalDatabase,
    reference: tuple[dict[tuple[int, ...], int], list[dict]],
) -> list[str]:
    """Every difference between *served* and the re-mined model (empty: equal)."""
    supports, rules = reference
    problems = []
    if served.version != model.version:
        problems.append(f"version {served.version} != model {model.version}")
    if served.database_size != len(model.rows):
        problems.append(f"database_size {served.database_size} != model {len(model.rows)}")
    if dict(served.supports) != supports:
        wrong = set(served.supports.items()) ^ set(supports.items())
        problems.append(
            f"{len(wrong)} itemset support(s) differ, e.g. {sorted(wrong)[:3]}"
        )
    if served.rules != rules:
        problems.append(f"rule list differs ({len(served.rules)} served, {len(rules)} re-mined)")
    return problems
