"""The open-loop workload ``serve``: reads beside writes in one program process.

``repro session init`` mines D0 into a session directory and ``repro
pipeline`` then follows an event file, maintains the rules and answers HTTP
with its default (threaded) front end.  Both are pinned to one CPU
(``probe.program_cpu``), as the closed loops are.  This process is the load
generator, on one thread and the other CPUs:

* every ``serve_batch_interval_s`` it appends one micro-batch of insert
  events to the followed file;
* at ``serve_query_rate`` per second it sends ``/recommend`` (baskets from
  served antecedents) and ``/itemset`` (served itemsets) over one
  keep-alive connection, open-loop: each request is timed from the moment
  it was due, so a stall also counts against the requests queued behind it.

``freshness_ms`` runs from a batch's due time to the first response that
carries a version including it; ``batch_ms`` from the due time to the
pipeline's report that the batch was applied.  ``events_per_s`` is the
events the pipeline reports applied per second of that batch time, as on
the closed loops: a rate the program sets, not the write schedule (events
written over the run's length would stay near the offered rate however
slow maintenance got).

Only ``setup_s`` is host-corrected here, by probe samples taken on the
program's CPU right before and right after each set-up.  The load-phase
timings are reported raw: the probe can sample the program's CPU only while
the program idles between batches (sampling it while busy would slow the
work it corrects), and such samples did not track the busy-time speed: on
five seeds the corrected batch, freshness and query times spread wider than
the raw ones.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path

from common import Intervals, Outcome, percentile
from model import LogicalDatabase, ServedState, compare, reference_state
from probe import HostProbe, program_cpu
from tracing import layer_metrics
from workloads import Config, event_batches, make_inputs

from repro import TransactionDatabase, save_database

HERE = Path(__file__).resolve().parent
_READY = re.compile(r"pipeline serving on http://([^:/\s]+):(\d+)")
_BATCH = re.compile(r"^batch (\d+): (\d+) applied")
_STOP_TIMEOUT_S = 30.0


class Pipeline:
    """One set-up of the serving program: session init, then a pipeline child."""

    def __init__(self, directory: Path, database_file: Path, config: Config, trace_file: Path | None) -> None:
        self.directory = directory
        self.database_file = database_file
        self.config = config
        self.trace_file = trace_file
        self.source = directory / "events.jsonl"
        self.process: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        #: (monotonic time, seq, events applied) for each batch the pipeline reports.
        self.applied: list[tuple[float, int, int]] = []
        self._reader: threading.Thread | None = None

    def _command(self, *arguments: str, traced: bool = False) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "child.py"), str(self.trace_file), *arguments]
        return [sys.executable, "-m", "repro.cli", *arguments]

    def start(self, environment: dict[str, str], cpu: int) -> None:
        """Init the session and start the pipeline on *cpu*; return once it is healthy."""
        self.directory.mkdir(parents=True)
        config = self.config
        deadline = time.monotonic() + 120
        init = subprocess.Popen(
            self._command(
                "session", "init", str(self.directory / "session"), str(self.database_file),
                "--min-support", str(config.min_support),
                "--min-confidence", str(config.min_confidence),
                "--backend", "vertical",
            ),
            env=environment, stdout=subprocess.DEVNULL,
        )
        _pin(init.pid, cpu)
        try:
            while init.poll() is None:
                if time.monotonic() > deadline:
                    raise RuntimeError("session init did not finish")
                time.sleep(0.005)
        finally:
            if init.poll() is None:
                init.kill()
            init.wait()
        if init.returncode:
            raise RuntimeError(f"session init exited with {init.returncode}")
        self.source.touch()
        with open(self.directory / "pipeline.err", "w") as errors:
            self.process = subprocess.Popen(
                self._command(
                    "pipeline", str(self.directory / "session"),
                    "--source", str(self.source), "--format", "jsonl",
                    "--batch-size", str(config.batch_events), "--port", "0",
                    traced=self.trace_file is not None,
                ),
                env=environment, stdout=subprocess.PIPE, stderr=errors, text=True,
            )
        _pin(self.process.pid, cpu)
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        while not self.port:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"pipeline did not start: {self.error_tail()}")
            time.sleep(0.005)
        while get_json(self.host, self.port, "/health")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("pipeline never reported healthy")
            time.sleep(0.005)

    def _read_stdout(self) -> None:
        for line in self.process.stdout:
            now = time.monotonic()
            ready = _READY.search(line)
            if ready:
                self.host, self.port = ready.group(1), int(ready.group(2))
            applied = _BATCH.match(line)
            if applied:
                self.applied.append((now, int(applied.group(1)), int(applied.group(2))))

    def peak_rss_mb(self) -> float:
        """The pipeline process's resident-memory high-water mark."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def error_tail(self) -> str:
        path = self.directory / "pipeline.err"
        return path.read_text()[-2000:] if path.exists() else ""

    def stop(self) -> None:
        """Interrupt the pipeline (it shuts down cleanly on SIGINT) and reap it."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._reader is not None:
            self._reader.join(timeout=_STOP_TIMEOUT_S)
        process.stdout.close()


def get_json(host: str, port: int, path: str, connection: HTTPConnection | None = None) -> tuple[int, dict]:
    """One GET; ``(0, {})`` when the server cannot be reached."""
    own = connection is None
    if own:
        connection = HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    except (OSError, HTTPException, ValueError):
        return 0, {}
    finally:
        if own:
            connection.close()


def _query_pool(host: str, port: int, size: int = 64) -> list[str]:
    status, payload = get_json(host, port, "/rules")
    if status != 200:
        raise RuntimeError(f"/rules answered {status}")
    baskets, itemsets = [], []
    for rule in payload["rules"]:
        basket = ",".join(map(str, rule["antecedent"]))
        items = ",".join(map(str, sorted(rule["antecedent"] + rule["consequent"])))
        if basket not in baskets:
            baskets.append(basket)
        if items not in itemsets:
            itemsets.append(items)
    pool = []
    for basket, items in zip(baskets[:size], itemsets[:size], strict=False):
        pool += [f"/recommend?basket={basket}&k=5", f"/itemset?items={items}"]
    if not pool:
        raise RuntimeError("no rules are served, so there is nothing to query")
    return pool


def run_serve(
    seed: int, seconds: float, trace: bool, config: Config, workdir: Path, probe: HostProbe
) -> Outcome:
    inputs = make_inputs(seed, config)
    database_file = workdir / "d0.txt"
    save_database(TransactionDatabase(inputs.initial), database_file)
    source_path = str(HERE.parent / "src")
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(filter(None, [source_path, environment.get("PYTHONPATH")]))
    outcome = Outcome()
    timed = Intervals()
    pipeline = None
    cpu = program_cpu()
    own_cpus = os.sched_getaffinity(0)
    if len(own_cpus) > 1:
        os.sched_setaffinity(0, own_cpus - {cpu})
    # The pipeline is stopped with SIGINT.  A process started with SIGINT
    # ignored (a shell's background job) passes that on to its children;
    # with a handler installed here, they start with the default instead.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        for index in range(config.setups):
            _sample_on(probe, cpu)
            trace_file = workdir / f"trace-{index}.json" if trace else None
            pipeline = Pipeline(workdir / f"setup-{index}", database_file, config, trace_file)
            start = time.monotonic()
            pipeline.start(environment, cpu)
            timed.add("setup", start, time.monotonic())
            # Right after the program's CPU was busy with the set-up, the
            # probe tracks its speed; these samples and the ones before
            # each set-up correct ``setup_s``.
            _sample_on(probe, cpu)
            if index + 1 < config.setups:
                pipeline.stop()
                shutil.rmtree(pipeline.directory)
        outcome.record_setup(timed, probe)
        load_window = _load(pipeline, seed, seconds, config, inputs, outcome, timed)
        _sample_on(probe, cpu)
        outcome.raw["peak_rss_mb"] = outcome.corrected["peak_rss_mb"] = pipeline.peak_rss_mb()
    finally:
        os.sched_setaffinity(0, own_cpus)
        if pipeline is not None:
            pipeline.stop()
    if trace:
        dump = json.loads(pipeline.trace_file.read_text())
        outcome.layers.update(layer_metrics(dump, *load_window, None))
    return outcome


def _load(pipeline: Pipeline, seed, seconds, config, inputs, outcome: Outcome, timed: Intervals):
    """Drive writes and reads for *seconds*; return the load phase's bounds."""
    host, port = pipeline.host, pipeline.port
    queries = _query_pool(host, port)
    stream = event_batches("serve", seed, inputs, config)
    written: list[list] = []
    due_at: dict[int, float] = {}  # version -> due time of the batch that makes it
    visible_at: dict[int, float] = {}
    lag_ms = []
    connection = HTTPConnection(host, port, timeout=10)
    interval = config.serve_batch_interval_s
    rate = config.serve_query_rate
    start = time.monotonic()
    end = start + seconds
    # After the last write, queries go on (up to a grace period) until every
    # written batch has been seen in a response.
    grace_end = end + 30.0
    writes = sent = 0
    try:
        with open(pipeline.source, "a") as source:
            while True:
                write_due = start + writes * interval
                query_due = start + sent / rate
                if write_due < end and write_due <= query_due:
                    _sleep_until(write_due)
                    events = next(stream)
                    source.write("".join(
                        json.dumps({"key": key, "op": op, "items": list(items)}) + "\n"
                        for key, op, items in events
                    ))
                    source.flush()
                    written.append(events)
                    writes += 1
                    due_at[writes] = write_due
                    continue
                if query_due >= end and (len(visible_at) == writes or query_due >= grace_end):
                    break
                _sleep_until(query_due)
                path = queries[sent % len(queries)]
                sent += 1
                lag_ms.append((time.monotonic() - query_due) * 1000.0)
                outcome.attempted += 1
                status, payload = get_json(host, port, path, connection)
                now = time.monotonic()
                timed.add("query_ms", query_due, now)
                if status != 200:
                    outcome.failed += 1
                    connection.close()
                    connection = HTTPConnection(host, port, timeout=10)
                    continue
                for version in range(len(visible_at) + 1, min(payload["version"], writes) + 1):
                    visible_at[version] = now
                    timed.add("freshness_ms", due_at[version], now)
    finally:
        connection.close()
    load_window = (start, time.monotonic())
    settle = time.monotonic() + _STOP_TIMEOUT_S
    while len(pipeline.applied) < writes and time.monotonic() < settle:
        time.sleep(0.01)
    applied_events = 0
    for applied_at, seq, events in list(pipeline.applied):
        timed.add("batch_ms", due_at[seq], applied_at)
        applied_events += events
    outcome.attempted += writes
    outcome.failed += writes - len(visible_at)
    outcome.record(timed, None, "batch_ms", (50, 90))
    outcome.record(timed, None, "freshness_ms", (50, 90))
    outcome.record(timed, None, "query_ms", (50, 99))
    events_per_s = applied_events * 1000.0 / sum(timed.ms("batch_ms"))
    outcome.raw["events_per_s"] = outcome.corrected["events_per_s"] = events_per_s
    outcome.layers["gen.lag_ms.p99"] = percentile(lag_ms, 99)
    _gate(pipeline, config, inputs, written, outcome)
    return load_window


def _sample_on(probe: HostProbe, cpu: int, repeats: int = 3) -> None:
    """Sample the probe on the program's CPU (the program is idle whenever this runs)."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        probe.sample(repeats)
    finally:
        os.sched_setaffinity(0, own)


def _sleep_until(due: float) -> None:
    left = due - time.monotonic()
    if left > 0:
        time.sleep(left)


def _pin(pid: int, cpu: int) -> None:
    """Keep a just-started child (and the threads it will start) on *cpu*."""
    try:
        os.sched_setaffinity(pid, {cpu})
    except ProcessLookupError:
        pass  # already gone; its exit status tells what happened


def _gate(pipeline: Pipeline, config: Config, inputs, written, outcome: Outcome) -> None:
    """Compare what the pipeline serves over HTTP with the re-mined model."""
    model = LogicalDatabase(inputs.initial)
    for events in written:
        model.apply(events)
    supports, rules = reference_state(model.rows, config.min_support, config.min_confidence)
    connection = HTTPConnection(pipeline.host, pipeline.port, timeout=10)
    try:
        _, health = get_json(pipeline.host, pipeline.port, "/health", connection)
        _, served_rules = get_json(pipeline.host, pipeline.port, "/rules", connection)
        served_supports = {}
        for items in supports:
            path = "/itemset?items=" + ",".join(map(str, items))
            _, answer = get_json(pipeline.host, pipeline.port, path, connection)
            if answer.get("large"):
                served_supports[items] = answer["support_count"]
    finally:
        connection.close()
    served = ServedState(
        version=health.get("version", -1),
        database_size=health.get("database_size", -1),
        supports=served_supports,
        rules=served_rules.get("rules", []),
    )
    outcome.attempted += 1
    outcome.problems = compare(served, model, (supports, rules))
    if health.get("itemsets") != len(supports):
        outcome.problems.append(f"{health.get('itemsets')} itemsets served, {len(supports)} re-mined")
    if outcome.problems:
        outcome.failed += 1
