"""The benchmark's own tests, at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest fupbench -q``.
"""

from __future__ import annotations

import json
import statistics
import sys
import tracemalloc
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from inproc import run_inprocess  # noqa: E402
from model import LogicalDatabase, RefusedBatch  # noqa: E402
from probe import HostProbe, _spin  # noqa: E402
from run import END_TO_END_UNITS, per_layer_units  # noqa: E402
from serving import run_serve  # noqa: E402
from workloads import Config, event_batches, make_inputs  # noqa: E402

from repro import FupOptions, MaintenanceSession, SlidingWindowPolicy, StaleStateError  # noqa: E402
from repro.ingest import IngestEvent, TransactionIntake  # noqa: E402

TINY = Config(
    scale=0.005,
    batch_events=20,
    min_support=0.015,
    min_confidence=0.2,
    setups=1,
    queries_per_batch=4,
    serve_batch_interval_s=0.25,
    serve_query_rate=20.0,
)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: bool, tmp_path: Path):
    probe = HostProbe()
    if workload == "serve":
        return run_serve(3, 1.5, trace, TINY, tmp_path, probe)
    return run_inprocess(workload, 3, 1.5, trace, TINY, tmp_path, probe)


@pytest.mark.parametrize(
    ("workload", "trace"),
    [("append", False), ("churn", False), ("serve", False), ("churn", True), ("serve", True)],
)
def test_workload_runs_and_passes_the_gate(workload, trace, tmp_path):
    outcome = _run(workload, trace, tmp_path)
    assert outcome.problems == []
    assert outcome.failed == 0
    assert outcome.attempted > 1
    assert set(outcome.corrected) == set(END_TO_END_UNITS)
    assert all(value > 0 for value in outcome.corrected.values())
    if trace:
        reported = set(outcome.layers) | {"host.probe_ms.p50"} | {f"raw.{name}" for name in outcome.raw}
        assert reported - {"raw.peak_rss_mb"} == set(per_layer_units())


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == ["append", "churn", "serve"]


def test_model_equals_the_program_on_a_tiny_churn_stream(tmp_path):
    inputs = make_inputs(5, TINY)
    window = len(inputs.initial)
    model = LogicalDatabase(inputs.initial, window=window)
    with MaintenanceSession.create(
        tmp_path / "session", inputs.initial, min_support=TINY.min_support,
        min_confidence=TINY.min_confidence, fup_options=FupOptions(backend="vertical"),
        policy=SlidingWindowPolicy(window),
    ) as session:
        intake = TransactionIntake(session)
        stream = event_batches("churn", 5, inputs, TINY)
        deleted = 0
        for _ in range(12):
            events = next(stream)
            deleted += sum(op == "delete" for _, op, _ in events)
            report = intake.submit([IngestEvent(*event) for event in events])
            applied, duplicates = model.apply(events)
            assert (report.applied, report.duplicates) == (applied, duplicates)
            assert list(session.database.transactions()) == model.rows
            assert session.applied_seq == model.version
        assert deleted > 0
        # A delete of a row that is not stored is refused by both, whole.
        phantom = [("phantom-1", "delete", (10**6,)), ("phantom-2", "insert", (1, 2))]
        with pytest.raises(RefusedBatch):
            model.apply(phantom)
        with pytest.raises(StaleStateError, match="not present"):
            intake.submit([IngestEvent(*event) for event in phantom])
        assert list(session.database.transactions()) == model.rows


def test_probe_allocates_nothing():
    _spin()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        _spin()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 32k loop iterations; only the two range objects of a pass may appear.
    assert peak - start < 512


def test_probe_time_does_not_move_with_a_large_live_heap():
    # The host's speed drifts within seconds, so compare heap and no-heap
    # samples taken a fraction of a second apart, several times over.
    ratios = []
    for _ in range(5):
        quiet = HostProbe()
        quiet.sample(15)
        heap = [{"row": (index, index + 1), "tags": [index]} for index in range(200_000)]
        loaded = HostProbe()
        loaded.sample(15)
        del heap
        after = HostProbe()
        after.sample(15)
        ratios.append(loaded.median_ms() / statistics.mean([quiet.median_ms(), after.median_ms()]))
    assert 0.8 < statistics.median(ratios) < 1.25
