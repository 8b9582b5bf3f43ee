"""Outside-in layer tracing for the benchmark's traced run.

:func:`instrument` replaces the layer boundaries of the simulator with
wrappers that record spans ``(id, name, start, end, parent, trace)`` in
memory.  The simulator's own code is untouched: the wrappers are class
attributes swapped in by this file.  They must be installed before any
machine is built, because the compiled interpreter tiers bind methods
such as ``ProteusCoprocessor.execute`` when they compile, and before the
daemon forks its workers, which inherit the wrapped classes.

Pool workers write their spans to ``<spool>/worker-<pid>.jsonl`` at the
end of every slice; :meth:`SpanRecorder.collect` merges them back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from stats import distribution

#: Layer boundary -> span name.  Private names are wrapped where the
#: public entry point delegates to them on the path a sweep takes
#: (``Porsche.run`` calls ``_run_quantum`` directly; the worker pool
#: runs ``_execute_slice``; the JIT has no public compile hook).
SPANS = (
    ("repro.cpu.core", "CPU", "run", "cpu.run"),
    ("repro.cpu.traces", "TraceManager", "_compile", "cpu.jit_compile"),
    ("repro.core.coprocessor", "ProteusCoprocessor", "execute",
     "core.execute"),
    ("repro.kernel.porsche", "Porsche", "_run_quantum", "kernel.quantum"),
    ("repro.kernel.cis", "CustomInstructionScheduler", "handle_fault",
     "kernel.cis_fault"),
    ("repro.fabric.bitstream", "Bitstream", "snapshot_state",
     "fabric.snapshot"),
    ("repro.fabric.bitstream", "Bitstream", "restore_state",
     "fabric.restore"),
    ("repro.machine", "Machine", "checkpoint", "machine.checkpoint"),
    ("repro.machine", "Machine", "resume", "machine.resume"),
)


class SpanRecorder:
    """In-memory spans, counters, samples and timestamped events."""

    def __init__(self, spool: Path | None = None) -> None:
        self.spool = spool
        self.parent_pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: ``(kind, job_id, time)`` marks from the job queue and client.
        self.events: list[tuple] = []
        #: Trace id stamped on new spans: the point index in-process,
        #: the daemon job id inside a worker slice.
        self.trace_id: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        # A forked worker starts with an empty record; the parent keeps
        # everything recorded before the fork.
        os.register_at_fork(after_in_child=self.clear)

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.samples.clear()
        self.events.clear()
        self._local.__dict__.clear()

    def timed(self, name: str, fn, on_exit=None):
        """Wrap ``fn`` so every call records a span named ``name``."""
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.trace_id))
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def flush(self) -> None:
        """Append this worker's record to its spool file and clear it."""
        if self.spool is None or os.getpid() == self.parent_pid:
            return
        record = {
            "spans": self.spans,
            "counters": self.counters,
            "samples": self.samples,
        }
        path = self.spool / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.clear()

    def collect(self) -> None:
        """Merge every worker's spooled record into this one.

        Worker span ids restart from the fork point, so they are
        renumbered; parents never cross a process boundary.
        """
        if self.spool is None:
            return
        for path in sorted(self.spool.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                renumber = {
                    span[0]: next(self._ids) for span in record["spans"]
                }
                for sid, name, start, end, parent, trace in record["spans"]:
                    self.spans.append((
                        renumber[sid], name, start, end,
                        renumber.get(parent, -1), trace,
                    ))
                for key, value in record["counters"].items():
                    self.counters[key] += value
                for key, values in record["samples"].items():
                    self.samples[key].extend(values)
            path.unlink()


def instrument(recorder: SpanRecorder):
    """Install every layer wrapper, before any machine is built.

    Returns a function that puts the original attributes back.
    """
    import importlib

    from repro.cpu.traces import TraceManager
    from repro.machine import Machine
    from repro.sim import jobs
    from repro.sim.client import RemoteJob, ServeClient

    counters, samples, events = (
        recorder.counters, recorder.samples, recorder.events
    )
    clock = time.perf_counter
    saved: list[tuple[object, str, object]] = []

    def swap(owner, name: str, wrap):
        original = owner.__dict__[name]
        saved.append((owner, name, original))
        if isinstance(original, classmethod):
            setattr(owner, name, classmethod(wrap(original.__func__)))
        else:
            setattr(owner, name, wrap(original))

    def count_instructions(args, result):
        counters["cpu.instructions"] += result.instructions

    def checkpoint_size(args, result):
        samples["machine.checkpoint_kb"].append(
            len(json.dumps(result)) / 1024
        )

    on_exit = {
        "cpu.run": count_instructions,
        "machine.checkpoint": checkpoint_size,
    }
    for module, cls_name, method, name in SPANS:
        cls = getattr(importlib.import_module(module), cls_name)
        swap(cls, method, lambda fn, name=name: recorder.timed(
            name, fn, on_exit.get(name)
        ))

    # JIT installs: a trace served from the code cache is an install
    # without a compile.  ``_go_hot`` returns its ``inner`` argument
    # unchanged when the entry is not worth a trace.
    def wrap_go_hot(go_hot):
        @functools.wraps(go_hot)
        def counted_go_hot(self, entry, inner):
            fn = go_hot(self, entry, inner)
            if fn is not inner:
                counters["cpu.jit_installs"] += 1
            return fn
        return counted_go_hot

    def wrap_invalidate(invalidate):
        @functools.wraps(invalidate)
        def counted_invalidate(self, entry):
            counters["cpu.jit_invalidations"] += 1
            return invalidate(self, entry)
        return counted_invalidate

    swap(TraceManager, "_go_hot", wrap_go_hot)
    swap(TraceManager, "_invalidate", wrap_invalidate)

    # Dispatch resolutions live in the machine's counter sink, which a
    # checkpoint carries, so the machine that produces the outcome holds
    # the whole run's counts.
    def wrap_outcome(outcome):
        @functools.wraps(outcome)
        def counted_outcome(self, verify=True):
            mode = "soft" if self.spec.soft else "hard"
            for kind, value in self.trace.counters.dispatch.items():
                counters[f"core.dispatch_{kind}"] += value
                counters[f"core.dispatch_{kind}.{mode}"] += value
            return outcome(self, verify)
        return counted_outcome

    swap(Machine, "outcome", wrap_outcome)

    # Worker slices: a span stamped with the daemon job id, spooled to
    # disk when it ends.  Pickle finds the wrapper under the original
    # qualified name, so the pool ships it to the workers.
    def wrap_slice(execute_slice):
        slice_span = recorder.timed("sim.slice", execute_slice)

        @functools.wraps(execute_slice)
        def traced_slice(payload):
            if os.getpid() != recorder.parent_pid:
                recorder.trace_id = payload[0]
            try:
                return slice_span(payload)
            finally:
                recorder.flush()
        return traced_slice

    swap(jobs, "_execute_slice", wrap_slice)

    # Queue marks (daemon side) and lifecycle marks (client side).
    def marking(kind: str | None, job_of, on_return: bool = False):
        """Record ``(kind, job id, time)`` per call: the time of the
        call, or of its return for a call that blocks until a job is
        ready.  ``kind`` None takes the event name from the message."""
        def wrap(fn):
            @functools.wraps(fn)
            def marked(self, *args, **kwargs):
                when = clock()
                result = fn(self, *args, **kwargs)
                if on_return:
                    when = clock()
                job = job_of(self, args, result)
                if job is not None:
                    events.append((kind or args[0].get("event"),
                                   job.id, when))
                return result
            return marked
        return wrap

    swap(jobs.JobQueue, "put", marking("enqueue", lambda q, a, r: a[0]))
    swap(jobs.JobQueue, "requeue", marking("enqueue", lambda q, a, r: a[0]))
    swap(jobs.JobQueue, "get",
         marking("dequeue", lambda q, a, r: r, on_return=True))
    swap(ServeClient, "submit", marking("submit", lambda c, a, r: r))
    swap(RemoteJob, "_apply_event", marking(None, lambda j, a, r: j))

    def restore() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return restore


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration not covered by direct children.

    Child intervals are clipped to their parent and merged, so touching
    or overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent != -1:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(sid, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[name] += (end - start) - covered
    return dict(totals)


def span_totals(spans) -> tuple[dict[str, int], dict[str, float]]:
    """Per span name: call count and summed duration."""
    counts: dict[str, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    for _, name, start, end, _, _ in spans:
        counts[name] += 1
        totals[name] += end - start
    return dict(counts), dict(totals)


def _job_marks(events) -> dict[int, dict[str, list[float]]]:
    marks: dict[int, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for kind, job_id, when in events:
        marks[job_id][kind].append(when)
    return marks


def served_times(events, spans) -> tuple[list[float], float]:
    """Client-side queue waits and IPC time of the daemon's jobs.

    Queue wait is submit to the first ``running`` event.  IPC time is
    each job's client-observed time, submit to its terminal event, less
    the time its slices ran in a worker and the time it waited in the
    daemon's queue (enqueue to dequeue, for every slice).
    """
    slices: dict[int, float] = defaultdict(float)
    for _, name, start, end, _, trace in spans:
        if name == "sim.slice":
            slices[trace] += end - start
    waits, ipc = [], 0.0
    for job_id, marks in _job_marks(events).items():
        if not marks["submit"] or not marks["done"]:
            continue
        submitted = marks["submit"][0]
        if marks["running"]:
            waits.append(marks["running"][0] - submitted)
        queued = sum(
            dequeued - enqueued
            for enqueued, dequeued in zip(marks["enqueue"], marks["dequeue"])
        )
        ipc += (marks["done"][0] - submitted) - queued - slices[job_id]
    return waits, ipc


def layer_metrics(recorder, outcomes, wall_s: float, workers: int, *,
                  build_s: float, default_over_block: float,
                  overhead_s: float, journal_appends: int) -> tuple[dict, dict]:
    """The per-layer metrics of a traced pass, and their breakdown: the
    distributions behind each percentile (with sample counts) and the
    dispatch ratio of hard-swap and Soft points apart."""
    spans = recorder.spans
    counts, totals = span_totals(spans)
    own = self_times(spans)
    counters = recorder.counters
    done = [outcome for outcome in outcomes if outcome is not None]

    def cis(field: str) -> int:
        return sum(outcome.cis[field] for outcome in done)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    instructions = counters["cpu.instructions"]
    installs = counters["cpu.jit_installs"]

    def dispatches(suffix: str = "") -> float:
        return sum(counters[f"core.dispatch_{kind}{suffix}"]
                   for kind in ("hit", "soft", "fault"))

    slice_times = [end - start for _, name, start, end, _, _ in spans
                   if name == "sim.slice"]
    waits, ipc = served_times(recorder.events, spans)
    kilobytes = recorder.samples["machine.checkpoint_kb"]
    distributions = {
        "sim.queue_wait_s": distribution(waits),
        "sim.slice_s": distribution(slice_times),
        "machine.checkpoint_kb": distribution(kilobytes),
    }
    values = {
        "cpu.self_s": (own.get("cpu.run", 0.0), "s"),
        "cpu.instructions": (instructions, "count"),
        "cpu.minstr_per_s": (
            ratio(instructions, own.get("cpu.run", 0.0)) / 1e6, "Minstr/s"
        ),
        "cpu.jit_compiles": (counts.get("cpu.jit_compile", 0), "count"),
        "cpu.jit_invalidations": (counters["cpu.jit_invalidations"], "count"),
        "cpu.jit_compile_s": (totals.get("cpu.jit_compile", 0.0), "s"),
        "cpu.jit_installs": (installs, "count"),
        "cpu.jit_reuse_ratio": (
            ratio(installs - counts.get("cpu.jit_compile", 0), installs),
            "ratio",
        ),
        "cpu.default_over_block": (default_over_block, "ratio"),
        "core.cdp_calls": (counts.get("core.execute", 0), "count"),
        "core.execute_s": (totals.get("core.execute", 0.0), "s"),
        "core.dispatches": (dispatches(), "count"),
        "core.hw_dispatch_ratio": (
            ratio(counters["core.dispatch_hit"], dispatches()), "ratio"
        ),
        "kernel.quanta": (
            sum(outcome.kernel_stats.quanta for outcome in done), "count"
        ),
        "kernel.quantum_self_s": (own.get("kernel.quantum", 0.0), "s"),
        "kernel.cis_faults": (counts.get("kernel.cis_fault", 0), "count"),
        "kernel.cis_fault_s": (own.get("kernel.cis_fault", 0.0), "s"),
        "kernel.cis_loads": (cis("loads"), "count"),
        "kernel.cis_evictions": (cis("evictions"), "count"),
        "kernel.cis_soft_deferrals": (cis("soft_deferrals"), "count"),
        "fabric.snapshot_s": (
            totals.get("fabric.snapshot", 0.0)
            + totals.get("fabric.restore", 0.0), "s"
        ),
        "fabric.bytes_moved": (
            cis("static_bytes_moved") + cis("state_bytes_moved"), "bytes"
        ),
        "machine.checkpoints": (
            counts.get("machine.checkpoint", 0), "count"
        ),
        "machine.checkpoint_s": (
            totals.get("machine.checkpoint", 0.0), "s"
        ),
        "machine.resume_s": (totals.get("machine.resume", 0.0), "s"),
        "machine.checkpoint_kb": (
            distributions["machine.checkpoint_kb"].get("p50", 0.0), "KiB"
        ),
        "sim.slices": (len(slice_times), "count"),
        "sim.queue_wait_p50_s": (
            distributions["sim.queue_wait_s"].get("p50", 0.0), "s"
        ),
        "sim.slice_p50_s": (distributions["sim.slice_s"].get("p50", 0.0), "s"),
        "sim.worker_busy_frac": (
            ratio(sum(slice_times), workers * wall_s), "fraction"
        ),
        "sim.ipc_s": (ipc, "s"),
        "sim.journal_appends": (journal_appends, "count"),
        "apps.build_s": (build_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    by_mode = {
        mode: {"dispatches": dispatches(f".{mode}"),
               "hw_dispatch_ratio": ratio(
                   counters[f"core.dispatch_hit.{mode}"],
                   dispatches(f".{mode}"))}
        for mode in ("hard", "soft")
    }
    return metrics, {"distributions": distributions,
                     "core.dispatch_by_mode": by_mode}
