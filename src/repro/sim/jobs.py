"""Job scheduling core: the machinery behind simulation-as-a-service.

The paper's kernel multiplexes one FPL between competing processes
without flushing state on a context switch; this module mirrors that
shape one level up, multiplexing a pool of simulator workers between
competing experiment *jobs* without losing progress on a preemption.
Three pieces:

* :class:`Job` — one submitted experiment point: tenant, priority,
  optional wall-clock timeout, and a completion handle (``result()``,
  done callbacks, streamed lifecycle events).
* :class:`JobQueue` — a bounded priority queue: higher priority runs
  first, FIFO within a priority band, and a full queue blocks (or
  rejects) the submitter — backpressure instead of unbounded memory.
* :class:`Scheduler` — a worker-pool executor.  Jobs run either to
  completion or, when ``slice_quanta`` is set, in bounded *slices*:
  the worker runs the machine for at most N scheduler quanta, then
  checkpoints it (the proven :meth:`~repro.machine.Machine.checkpoint`
  protocol) and hands the state back.  Between slices the job owns no
  worker — that is eviction — and the next slice may land on any
  worker — that is migration.  Checkpoints are exact, so a sliced,
  migrated run is bit-identical to an uninterrupted one.

The pool is explicit: each of the ``workers`` slots is one forked
process, one pipe and one thread.  An idle slot's thread takes the best
queued job, sends one slice down its pipe and waits for the reply, so
every failure stays with the one worker and the one job it hit — the
way the paper's CIS evicts one circuit and leaves the others loaded:

* a worker that *dies* mid-slice (EOF on its pipe) is replaced and its
  job retried from the last checkpoint, degrading to in-process
  execution on that slot's thread after repeated failures;
* a worker that is alive but *hung* (no reply within the per-slice
  deadline) is SIGKILLed and its job requeued under a bounded strike
  budget — after :data:`MAX_HANG_STRIKES` strikes the job
  quarantine-fails instead of eating workers forever;
* a timed-out job is checkpointed and requeued at lower priority (or
  failed); shutdown cancels everything pending and leaves no orphaned
  worker behind — and a worker whose daemon was ``kill -9``'d exits on
  its own when its pipe reaches EOF.

An optional write-ahead **journal** (see :mod:`repro.sim.journal`)
records submissions, lifecycle transitions and latest-checkpoint refs,
so :meth:`Scheduler.recover` can requeue everything a killed daemon
left behind — idempotently, deduplicated on ``(tenant, spec_key,
verify)``.

:meth:`Scheduler.drain` is the graceful sibling of ``shutdown``: stop
dispatching, let in-flight slices checkpoint and journal themselves,
and leave pending jobs journaled (not cancelled) for the next daemon
to recover.

``workers=0`` is the serial reference path: jobs execute inline in the
submitting thread, exactly like the pre-scheduler ``SweepRunner``.
Results are bit-identical across all of it — inline vs. pool, sliced
vs. straight, migrated vs. pinned.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Sequence

from ..errors import ExperimentError, ReproError
from .experiment import (
    ExperimentSpec,
    RunOutcome,
    run_experiment_capturing,
)

__all__ = [
    "DEFAULT_TENANT",
    "MIN_PRIORITY",
    "Job",
    "JobState",
    "JobQueue",
    "QueueFull",
    "Scheduler",
    "SchedulerStats",
]

#: Namespace used when a submission names no tenant.
DEFAULT_TENANT = "default"

#: Slice size imposed on jobs that carry a timeout but whose scheduler
#: is not otherwise slicing: timeouts are only enforceable at slice
#: boundaries, so such jobs must be sliced.
TIMEOUT_SLICE_QUANTA = 128

#: Lowest priority band a timeout demotion can reach.  Demotion must
#: bottom out somewhere: without a floor a repeatedly-demoted job sinks
#: without bound, and a job that times out while already at (or below)
#: the floor fails cleanly instead of re-emitting ``demoted`` forever.
MIN_PRIORITY = -8

#: Worker deaths tolerated per job before it runs inline in the parent.
MAX_WORKER_RETRIES = 2

#: Hung-worker kills tolerated per job before it quarantine-fails.
#: Unlike worker *deaths* (which degrade to inline execution), a job
#: that repeatedly hangs its worker must never run inline — it would
#: hang its slot's thread itself.
MAX_HANG_STRIKES = 2


class QueueFull(ExperimentError):
    """A non-blocking submit hit the queue's backpressure bound."""


class JobState(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: Lifecycle listener: ``(job, kind, payload)`` where kind is one of
#: ``running`` / ``preempted`` / ``demoted`` / ``done`` / ``failed`` /
#: ``cancelled``.  Fired on scheduler threads — listeners must be quick
#: and thread-safe (the daemon bridges them onto its event loop).
JobListener = Callable[["Job", str, dict], None]


class Job:
    """One submitted experiment point plus its completion handle."""

    def __init__(
        self,
        job_id: int,
        spec: ExperimentSpec,
        *,
        tenant: str = DEFAULT_TENANT,
        verify: bool = False,
        priority: int = 0,
        timeout_s: float | None = None,
        timeout_action: str = "fail",
    ) -> None:
        if timeout_action not in ("fail", "demote"):
            raise ExperimentError(
                f"timeout_action must be 'fail' or 'demote', "
                f"got {timeout_action!r}"
            )
        self.id = job_id
        self.spec = spec
        self.tenant = tenant
        self.verify = verify
        self.priority = priority
        self.timeout_s = timeout_s
        self.timeout_action = timeout_action
        self.state = JobState.PENDING
        self.outcome: RunOutcome | None = None
        self.error: str | None = None
        #: Served straight from the result cache (never dispatched).
        self.cached = False
        #: Completed by riding an identical in-flight job.
        self.coalesced = False
        #: First slice resumed from a checkpoint-store entry.
        self.warm_started = False
        #: A checkpoint was stored for future warm starts.
        self.stored_checkpoint = False
        #: Times a dead pool worker forced a retry.
        self.retries = 0
        #: Times the watchdog killed a hung worker under this job.
        self.hang_strikes = 0
        #: The journal resubmitted this job after a daemon restart.
        self.recovered = False
        #: Times the job was preempted at a slice boundary.
        self.preemptions = 0
        #: The job exceeded ``timeout_s`` at a slice boundary.
        self.timed_out = False
        #: Latest machine checkpoint (None until first preemption).
        self.checkpoint: dict | None = None
        #: Worker pids that executed slices of this job, in order.
        self.worker_pids: list[int] = []
        self.started_at: float | None = None
        self._done = threading.Event()
        self._callbacks: list[Callable[[Job], None]] = []
        self._listeners: list[JobListener] = []
        self._lock = threading.Lock()
        #: Jobs coalesced onto this one, completed alongside it.
        self._followers: list[Job] = []

    # -- completion handle -------------------------------------------------
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> RunOutcome:
        """Block for the outcome; raise :class:`ExperimentError` on
        failure or cancellation."""
        if not self._done.wait(timeout):
            raise ExperimentError(f"job {self.id} still {self.state.value}")
        if self.state is not JobState.DONE:
            raise ExperimentError(
                f"job {self.id} {self.state.value}: {self.error}"
            )
        assert self.outcome is not None
        return self.outcome

    def add_done_callback(self, fn: Callable[["Job"], None]) -> None:
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def add_listener(self, fn: JobListener) -> None:
        with self._lock:
            self._listeners.append(fn)

    # -- scheduler side ----------------------------------------------------
    def _emit(self, kind: str, payload: dict | None = None) -> None:
        for listener in list(self._listeners):
            listener(self, kind, payload or {})

    def _finish(self, state: JobState, outcome: RunOutcome | None = None,
                error: str | None = None) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self.state = state
            self.outcome = outcome
            self.error = error
            callbacks, self._callbacks = self._callbacks, []
            self._done.set()
        kind = {
            JobState.DONE: "done",
            JobState.FAILED: "failed",
            JobState.CANCELLED: "cancelled",
        }[state]
        self._emit(kind, {"error": error} if error else {})
        for fn in callbacks:
            fn(self)


class JobQueue:
    """Bounded priority queue: priority-descending, FIFO within a band.

    ``maxsize=0`` means unbounded.  A full queue applies backpressure:
    ``put`` blocks until space (or raises :class:`QueueFull` when
    non-blocking / timed out).  ``close()`` wakes every waiter; a
    closed queue rejects puts and hands ``None`` to getters once
    drained.
    """

    def __init__(self, maxsize: int = 0) -> None:
        self.maxsize = maxsize
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._mutex = threading.Lock()
        self._not_empty = threading.Condition(self._mutex)
        self._not_full = threading.Condition(self._mutex)
        self._closed = False

    def __len__(self) -> int:
        with self._mutex:
            return len(self._heap)

    def put(self, job: Job, block: bool = True,
            timeout: float | None = None) -> None:
        with self._not_full:
            if self.maxsize > 0 and not self._closed:
                if not block:
                    if len(self._heap) >= self.maxsize:
                        raise QueueFull(
                            f"job queue full ({self.maxsize} pending)"
                        )
                else:
                    deadline = (
                        None if timeout is None
                        else time.monotonic() + timeout
                    )
                    while (
                        len(self._heap) >= self.maxsize and not self._closed
                    ):
                        remaining = (
                            None if deadline is None
                            else deadline - time.monotonic()
                        )
                        if remaining is not None and remaining <= 0:
                            raise QueueFull(
                                f"job queue full ({self.maxsize} pending)"
                            )
                        self._not_full.wait(remaining)
            if self._closed:
                raise ExperimentError("job queue is closed")
            self._push(job)

    def requeue(self, job: Job) -> None:
        """Re-admit a preempted/retried job, ignoring the bound: the
        job already holds queue accounting from its original admission,
        and blocking a scheduler-internal thread would deadlock."""
        with self._mutex:
            if self._closed:
                return
            self._push(job)

    def _push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
        self._not_empty.notify()

    def get(self, block: bool = True,
            timeout: float | None = None) -> Job | None:
        with self._not_empty:
            if block:
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while not self._heap and not self._closed:
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        return None
                    self._not_empty.wait(remaining)
            if not self._heap:
                return None
            __, __, job = heapq.heappop(self._heap)
            self._not_full.notify()
            return job

    def drain(self) -> list[Job]:
        """Remove and return every pending job (highest priority first)."""
        with self._mutex:
            jobs = [job for _, _, job in sorted(self._heap)]
            self._heap.clear()
            self._not_full.notify_all()
            return jobs

    def close(self) -> None:
        with self._mutex:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()


@dataclass
class SchedulerStats:
    """Accumulated accounting across everything a scheduler executed."""

    submitted: int = 0
    executed: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    warm_started: int = 0
    captured: int = 0
    preemptions: int = 0
    timeouts: int = 0
    worker_retries: int = 0
    cancelled: int = 0
    #: Hung workers killed and replaced by the watchdog.
    hung_restarts: int = 0
    #: Journal replays performed by :meth:`Scheduler.recover`.
    journal_replays: int = 0
    #: Interrupted jobs requeued from the journal on recovery.
    jobs_recovered: int = 0
    #: Submissions flagged as client resubmits after a reconnect.
    reconnects: int = 0


#: File descriptors every freshly forked worker closes at startup.
#: Fork-context workers inherit *every* parent fd — including, in a
#: ``repro serve`` daemon, the per-client connection sockets, and the
#: parent's end of every other worker's pipe.  Left open in a worker,
#: those copies keep a killed daemon's connections half-alive (clients
#: never see EOF and never start reconnecting) and keep the other
#: workers' pipes from ever reaching EOF.  The daemon registers its
#: sockets here and the pool its pipe ends; :func:`_worker_main` closes
#: them on the child side of the fork.
_WORKER_CLOSE_FDS: set[int] = set()

#: Serialises forking a worker against opening and closing pool pipes,
#: so no worker inherits a pipe end that is not (or no longer) in
#: ``_WORKER_CLOSE_FDS``.
_FORK_LOCK = threading.Lock()

#: Fork is markedly cheaper than spawn and inherits the already-imported
#: simulator (and any wrapper installed on ``_execute_slice``); fall back
#: to the platform default where fork is unavailable.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


def close_fd_in_workers(fd: int) -> None:
    """Have future pool workers close ``fd`` right after forking."""
    _WORKER_CLOSE_FDS.add(fd)


def forget_fd_in_workers(fd: int) -> None:
    """Stop closing ``fd`` in workers (it was closed in the parent)."""
    _WORKER_CLOSE_FDS.discard(fd)


def _worker_main(conn) -> None:
    """A pool worker: shed what the fork inherited, then serve slices.

    Each payload arriving on ``conn`` runs through the module-global
    :func:`_execute_slice` — looked up at call time, so a wrapper
    installed before the fork runs too — and its result (or the error
    it raised) goes back.  EOF on the pipe means the scheduler retired
    this worker or its process died; either way the worker exits.
    """
    # Fork also copies the parent's signal plumbing.  In a daemon the
    # parent is an asyncio loop whose C-level signal trampoline writes
    # the signal number into a wakeup socketpair — *shared* with the
    # child across the fork.  A worker that later receives SIGTERM would
    # write into that shared socket and the PARENT's loop would dispatch
    # its own SIGTERM callback — a phantom drain nobody requested.
    # Detach the wakeup fd and restore default dispositions first (the
    # worker runs in its process's main thread, so neither call raises).
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    for fd in _WORKER_CLOSE_FDS - {conn.fileno()}:
        try:
            os.close(fd)
        except OSError:
            pass
    _WORKER_CLOSE_FDS.clear()
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, _execute_slice(payload))
        except Exception as error:  # reported to the scheduler as-is
            reply = (False, error)
        try:
            conn.send(reply)
        except OSError:
            return  # the scheduler is gone


def _execute_slice(payload: tuple) -> tuple:
    """Pool worker: run one job slice (or a whole job).

    Returns ``(job_id, "done", outcome, captured_checkpoint, pid)`` or
    ``(job_id, "preempted", checkpoint, quanta_executed, pid)``.
    Workers never touch the stores; checkpoints ride the payloads both
    ways, so between slices a job's entire state lives in the parent —
    the worker is fully evicted.
    """
    job_id, spec, verify, checkpoint, capture, slice_quanta = payload
    pid = os.getpid()
    if slice_quanta is None:
        outcome, captured = run_experiment_capturing(
            spec, verify=verify, checkpoint=checkpoint, capture=capture
        )
        return job_id, "done", outcome, captured, pid

    from ..machine import Machine, _spec_from_dict

    if checkpoint is not None and (
        _spec_from_dict(checkpoint["spec"]).spec_key() != spec.spec_key()
    ):
        checkpoint = None  # stale/foreign checkpoint: cold-start instead
    if checkpoint is not None:
        machine = Machine.resume(checkpoint)
    else:
        machine = Machine.from_spec(spec)
        machine.spawn_instances()
    machine.run_quanta(slice_quanta)
    if machine.finished:
        return job_id, "done", machine.outcome(verify=verify), None, pid
    return (
        job_id, "preempted", machine.checkpoint(),
        machine.kernel.stats.quanta, pid,
    )


class _Worker:
    """One pool slot's worker process and the parent's end of its pipe.

    Forked lazily, when the slot next needs it, so a worker starts from
    the parent's state at that moment.  Only its slot's thread touches
    it, apart from :meth:`Scheduler.worker_pids` reading :attr:`process`.
    """

    def __init__(self) -> None:
        self.process = self.conn = None

    def run(self, payload: tuple, timeout_s: float | None):
        """Run one slice: ``(ok, result_or_error)``, or None when no
        reply came within ``timeout_s``.  Raises :class:`EOFError` or
        :class:`OSError` when the worker died."""
        if self.process is None or not self.process.is_alive():
            self.close()  # died while idle: replace it uncharged
            self._fork()
        self.conn.send(payload)
        if not self.conn.poll(timeout_s):
            return None
        return self.conn.recv()

    def _fork(self) -> None:
        with _FORK_LOCK:
            conn, child = _CONTEXT.Pipe()
            _WORKER_CLOSE_FDS.add(conn.fileno())
            process = _CONTEXT.Process(
                target=_worker_main, args=(child,), name="repro-worker",
                daemon=True,
            )
            try:
                process.start()
            except BaseException:
                _WORKER_CLOSE_FDS.discard(conn.fileno())
                conn.close()
                raise
            finally:
                child.close()
        self.process, self.conn = process, conn

    def close(self, kill: bool = False) -> None:
        """Retire the worker: EOF ends an idle one, SIGKILL (``kill``)
        a hung one.  Either way it is reaped before this returns."""
        process, conn = self.process, self.conn
        if process is None:
            return
        self.process = self.conn = None
        if kill:
            process.kill()
        with _FORK_LOCK:
            _WORKER_CLOSE_FDS.discard(conn.fileno())
            conn.close()
        process.join(timeout=10.0)
        if process.is_alive():
            process.kill()
            process.join()


class Scheduler:
    """Multi-tenant job executor over a self-healing worker pool.

    ``cache`` / ``checkpoints`` are the sweep engine's stores (duck
    typed): results land in the submitting tenant's cache namespace,
    while lookups hit the shared object store — concurrent tenants
    share hits without clobbering each other.  Identical in-flight
    submissions coalesce onto one execution.

    ``slice_quanta`` bounds how long a job may hold a worker: unset,
    jobs run to completion (the sweep runner's mode); set, every job is
    preemptible and migratable at slice boundaries (the daemon's mode).
    ``rotate_workers`` additionally retires the worker that ran each
    preempted slice, forcing the next slice onto a fresh process —
    deterministic migration, used by the tests and debuggable via
    ``repro serve --rotate-workers``.
    """

    def __init__(
        self,
        workers: int = 1,
        cache=None,
        checkpoints=None,
        queue_size: int = 0,
        slice_quanta: int | None = None,
        rotate_workers: bool = False,
        journal=None,
        hang_timeout_s: float | None = None,
    ) -> None:
        if workers < 0:
            raise ExperimentError(f"workers must be >= 0, got {workers}")
        if slice_quanta is not None and slice_quanta < 1:
            raise ExperimentError(
                f"slice_quanta must be >= 1, got {slice_quanta}"
            )
        if hang_timeout_s is not None and hang_timeout_s <= 0:
            raise ExperimentError(
                f"hang_timeout_s must be > 0, got {hang_timeout_s}"
            )
        self.workers = workers
        self.cache = cache
        self.checkpoints = checkpoints
        self.slice_quanta = slice_quanta
        self.rotate_workers = rotate_workers
        #: Write-ahead job journal (:class:`repro.sim.journal.Journal`),
        #: duck typed; None disables crash safety entirely.
        self.journal = journal
        #: Per-slice wall-clock deadline: the hung-worker detector.
        #: Derived from the slice budget by the caller (a slice is a
        #: *bounded* amount of simulation, so a worker that holds one
        #: past the deadline is hung, not slow); None disables it.
        self.hang_timeout_s = hang_timeout_s
        self.stats = SchedulerStats()
        self.queue = JobQueue(maxsize=queue_size)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._caches: dict[str, Any] = {}
        self._inflight: dict[str, Job] = {}
        self._jobs: dict[int, Job] = {}
        self._closing = False
        self._draining = False
        #: Ids of the jobs with a slice on a worker right now; drain()
        #: waits for this to empty.
        self._active: set[int] = set()
        self._workers = [_Worker() for _ in range(workers)]
        self._threads = [
            threading.Thread(target=self._serve, args=(worker,),
                             name=f"repro-worker-{index}", daemon=True)
            for index, worker in enumerate(self._workers)
        ]
        for thread in self._threads:
            thread.start()

    def _count(self, name: str) -> None:
        """Bump one :class:`SchedulerStats` counter: slot threads and
        submitters update them concurrently."""
        with self._lock:
            setattr(self.stats, name, getattr(self.stats, name) + 1)

    # -- cache plumbing ----------------------------------------------------
    def _cache_for(self, tenant: str):
        if self.cache is None:
            return None
        with self._lock:
            cache = self._caches.get(tenant)
            if cache is None:
                # The default tenant *is* the cache we were handed —
                # whatever namespace it carries; named tenants get their
                # own namespace view of the same object store.
                if tenant == DEFAULT_TENANT or (
                    getattr(self.cache, "namespace", None) == tenant
                ):
                    cache = self.cache
                else:
                    cache = self.cache.for_namespace(tenant)
                self._caches[tenant] = cache
            return cache

    # -- submission --------------------------------------------------------
    def submit(
        self,
        spec: ExperimentSpec,
        *,
        tenant: str = DEFAULT_TENANT,
        verify: bool = False,
        priority: int = 0,
        timeout_s: float | None = None,
        timeout_action: str = "fail",
        checkpoint: dict | None = None,
        block: bool = True,
        resubmit: bool = False,
    ) -> Job:
        """Submit one experiment point; returns its :class:`Job` handle.

        Cache hits complete immediately.  An identical in-flight job
        (same spec key + verify flag) absorbs the submission instead of
        executing twice.  ``checkpoint`` warm-starts the job from an
        explicit machine checkpoint — migration *into* this scheduler.
        A bounded queue blocks here (or raises :class:`QueueFull` when
        ``block=False``): backpressure reaches the submitter.

        ``resubmit`` marks a client's idempotent re-submission after a
        reconnect: it is counted in :attr:`SchedulerStats.reconnects`
        and otherwise relies on the cache/coalescing layers — the same
        point either hits the stored result, rides the recovered
        in-flight job, or re-executes bit-identically.
        """
        if self._closing:
            raise ExperimentError("scheduler is shut down")
        if self._draining:
            raise ExperimentError("scheduler is draining")
        job = Job(
            next(self._ids), spec, tenant=tenant, verify=verify,
            priority=priority, timeout_s=timeout_s,
            timeout_action=timeout_action,
        )
        job.checkpoint = checkpoint
        self._count("submitted")
        if resubmit:
            self._count("reconnects")
        with self._lock:
            self._jobs[job.id] = job
        self._journal_submit(job)

        # Claim primacy for this spec key *before* consulting the cache:
        # a completing primary stores its result before leaving the
        # in-flight map, so a submitter either coalesces onto a live
        # primary or — having claimed the key — is guaranteed to see
        # that primary's result in the cache.  No duplicate execution
        # in either interleaving.
        key = f"{spec.spec_key()}:verify={int(bool(verify))}"
        with self._lock:
            primary = self._inflight.get(key)
            if primary is not None and not primary.done():
                job.coalesced = True
                self.stats.coalesced += 1
                primary._followers.append(job)
                return job
            self._inflight[key] = job

        cache = self._cache_for(tenant)
        hit = cache.load(spec, verify) if cache is not None else None
        if hit is not None:
            job.cached = True
            self._count("cache_hits")
            self._settle(job, JobState.DONE, outcome=hit)
            return job

        if job.checkpoint is None and self.checkpoints is not None:
            stored = self.checkpoints.load(spec)
            if stored is not None:
                job.checkpoint = stored
                job.warm_started = True
        if self.workers == 0:
            self._run_inline(job)
        else:
            try:
                self.queue.put(job, block=block)
            except ExperimentError:
                # Rejected by backpressure (or a closing queue): release
                # the key so the next identical submit isn't chained to
                # a job that will never run.
                self._settle(
                    job, JobState.CANCELLED, error="rejected by job queue"
                )
                raise
        return job

    def job(self, job_id: int) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    # -- journaling --------------------------------------------------------
    def _journal_submit(self, job: Job) -> None:
        if self.journal is None:
            return
        from ..machine import spec_to_dict

        self.journal.append({
            "type": "submitted",
            "job": job.id,
            "tenant": job.tenant,
            "spec": spec_to_dict(job.spec),
            "verify": job.verify,
            "priority": job.priority,
            "timeout_s": job.timeout_s,
            "timeout_action": job.timeout_action,
        })
        if job.checkpoint is not None:
            # Migration/recovery submissions arrive mid-flight; record
            # their starting checkpoint so a crash right now still
            # resumes from it instead of cycle 0.
            self._journal_checkpoint(job)

    def _journal_state(self, job: Job, state: str,
                       error: str | None = None) -> None:
        if self.journal is None:
            return
        record: dict = {"type": "state", "job": job.id, "state": state}
        if error is not None:
            record["error"] = error
        self.journal.append(record)

    def _journal_checkpoint(self, job: Job) -> None:
        if self.journal is None or job.checkpoint is None:
            return
        ref = self.journal.store_checkpoint(f"job-{job.id}", job.checkpoint)
        if ref is not None:
            self.journal.append(
                {"type": "checkpoint", "job": job.id, "ref": ref}
            )

    def recover(self) -> int:
        """Replay the journal and requeue every interrupted job.

        Call once on daemon start, before serving clients.  Jobs that
        never journaled a terminal state are resubmitted — warm-started
        from their latest journaled checkpoint when one survives —
        after deduplication on ``(tenant, spec, verify)``, so recovery
        is idempotent: replaying twice, or a client resubmitting a
        recovered point, never double-runs it.  The journal is then
        reset; the resubmissions re-journal themselves through the
        normal submit path.  Returns the number of jobs requeued.
        """
        if self.journal is None:
            return 0
        from ..machine import spec_from_dict
        from .journal import recovered_jobs

        records = self.journal.replay(truncate=True)
        if records:
            self._count("journal_replays")
        pending = recovered_jobs(records)
        self.journal.reset()
        requeued = 0
        for entry in pending:
            try:
                spec = spec_from_dict(entry.spec_dict)
            except (ReproError, KeyError, TypeError, ValueError):
                continue  # journaled by a different schema; skip
            checkpoint = None
            if entry.checkpoint_ref is not None:
                checkpoint = self.journal.load_checkpoint(
                    entry.checkpoint_ref
                )
            try:
                job = self.submit(
                    spec,
                    tenant=entry.tenant,
                    verify=entry.verify,
                    priority=entry.priority,
                    timeout_s=entry.timeout_s,
                    timeout_action=entry.timeout_action,
                    checkpoint=checkpoint,
                    block=False,
                )
            except ExperimentError:
                continue  # backpressure: the journal still has it
            job.recovered = True
            requeued += 1
            self._count("jobs_recovered")
        return requeued

    # -- graceful drain ----------------------------------------------------
    def begin_drain(self) -> None:
        """Stop accepting submits and dispatching new slices.

        Safe to call from a signal handler: it only flips a flag."""
        self._draining = True

    def drain(self, timeout_s: float = 60.0) -> bool:
        """Graceful SIGTERM path: quiesce without cancelling anything.

        After :meth:`begin_drain`, waits for in-flight slices to reach
        their next boundary — where they checkpoint and journal
        themselves — so every pending and interrupted job is on disk
        for the next daemon's :meth:`recover`.  Unlike ``shutdown``,
        nothing is cancelled: the journal, not this process, now owns
        the jobs.  Returns False if slices were still running at the
        timeout.
        """
        self.begin_drain()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if not self._active:
                    return True
            time.sleep(0.02)
        with self._lock:
            return not self._active

    def worker_pids(self) -> list[int]:
        """PIDs of the pool's live worker processes.

        Surfaced through the daemon ``stats`` verb so observers — and
        the chaos harness, which needs real kill targets — can see the
        fleet.  A slot forks its worker on its first job, so this is
        empty before the first dispatch and after a rotation."""
        processes = [worker.process for worker in self._workers]
        return sorted(
            process.pid for process in processes if process is not None
        )

    # -- execution ---------------------------------------------------------
    def _slice_for(self, job: Job) -> int | None:
        if job.timeout_s is not None and self.slice_quanta is None:
            return TIMEOUT_SLICE_QUANTA
        return self.slice_quanta

    def _payload(self, job: Job) -> tuple:
        capture = (
            self.checkpoints is not None
            and not job.warm_started
            and self._slice_for(job) is None
        )
        return (
            job.id, job.spec, job.verify, job.checkpoint, capture,
            self._slice_for(job),
        )

    def _run_inline(self, job: Job) -> None:
        """Execute in the calling thread: the serial reference path and
        the degraded mode after repeated worker deaths."""
        if job.started_at is None:
            job.started_at = time.monotonic()
        job.state = JobState.RUNNING
        self._journal_state(job, "running")
        job._emit("running", {"pid": os.getpid()})
        while True:
            try:
                result = _execute_slice(self._payload(job))
            except ReproError as error:
                self._fail(job, str(error))
                return
            if self._absorb(job, result):
                return

    def _serve(self, worker: _Worker) -> None:
        """One pool slot's thread: take the best queued job, run one
        slice of it on this slot's worker, repeat until the queue
        closes.  Taking the job only once idle keeps the pick at
        dispatch time, so a high-priority arrival while every worker is
        busy still jumps the whole queue."""
        try:
            while True:
                job = self.queue.get()
                if job is None:
                    return
                if job.done() or self._draining:
                    # Cancelled while queued — or, when draining, left
                    # journaled (submitted, latest checkpoint) rather
                    # than cancelled: the next daemon's recover()
                    # requeues it.  Popping here just empties the queue
                    # so shutdown() can join us.
                    continue
                if self._closing:
                    self._cancel(job)
                    continue
                try:
                    if job.retries > MAX_WORKER_RETRIES:
                        # Workers died repeatedly under this job; stop
                        # feeding it workers and run the remainder here.
                        self._run_inline(job)
                    else:
                        self._run_slice(worker, job)
                except Exception as error:  # keep the slot serving
                    worker.close(kill=True)
                    self._fail(job, f"{type(error).__name__}: {error}")
        finally:
            worker.close()

    def _run_slice(self, worker: _Worker, job: Job) -> None:
        if job.started_at is None:
            job.started_at = time.monotonic()
        if job.state is not JobState.RUNNING:
            job.state = JobState.RUNNING
            self._journal_state(job, "running")
            job._emit("running", {})
        with self._lock:
            self._active.add(job.id)
        try:
            reply = worker.run(self._payload(job), self.hang_timeout_s)
        except (EOFError, OSError):
            # The worker died mid-slice (OOM kill, segfault...).  Replace
            # it and retry the job from its last checkpoint — progress
            # up to the previous slice survives.
            worker.close()
            job.retries += 1
            self._count("worker_retries")
            self.queue.requeue(job)
            return
        finally:
            with self._lock:
                self._active.discard(job.id)
        if reply is None:
            # Alive but hung past the per-slice deadline (a slice is a
            # *bounded* amount of simulation): only the OS can take the
            # CPU back.  Retry from the last checkpoint under the strike
            # budget; a serial hanger quarantine-fails instead of eating
            # a fresh worker forever.
            worker.close(kill=True)
            job.hang_strikes += 1
            self._count("hung_restarts")
            job._emit("hung", {"strikes": job.hang_strikes})
            if job.hang_strikes > MAX_HANG_STRIKES:
                self._fail(
                    job,
                    f"quarantined after {job.hang_strikes} hung-worker "
                    f"strikes (worker exceeded "
                    f"{self.hang_timeout_s}s/slice)",
                )
            else:
                self.queue.requeue(job)
            return
        ok, result = reply
        if not ok:
            if isinstance(result, ReproError):
                self._fail(job, str(result))
            else:
                self._fail(job, f"{type(result).__name__}: {result}")
            return
        if not self._absorb(job, result):
            if self.rotate_workers:
                worker.close()
            self.queue.requeue(job)

    def _absorb(self, job: Job, result: tuple) -> bool:
        """Fold one slice result into the job; True when it finished."""
        job_id, status, first, second, pid = result
        job.worker_pids.append(pid)
        if status == "done":
            self._complete(job, first, captured=second)
            return True
        job.checkpoint = first
        job.preemptions += 1
        self._count("preemptions")
        # The journal tracks the latest checkpoint ref so a killed
        # daemon resumes this job from here, not cycle 0.
        self._journal_checkpoint(job)
        job._emit("preempted", {"quanta": second, "pid": pid})
        if self._timed_out(job):
            return True
        return False

    def _timed_out(self, job: Job) -> bool:
        """Enforce the wall-clock budget at a slice boundary."""
        if job.timeout_s is None or job.started_at is None:
            return False
        if time.monotonic() - job.started_at < job.timeout_s:
            return False
        job.timed_out = True
        self._count("timeouts")
        if (
            job.timeout_action == "demote"
            and job.checkpoint is not None
            and job.priority > MIN_PRIORITY
        ):
            # Checkpointed and requeued below everything it was racing:
            # it keeps its progress but no longer holds a deadline.
            job.priority = max(MIN_PRIORITY, job.priority - 1)
            job.timeout_s = None
            job._emit("demoted", {"priority": job.priority})
            return False
        suffix = (
            " at lowest priority"
            if job.timeout_action == "demote"
            and job.priority <= MIN_PRIORITY
            else ""
        )
        self._fail(
            job,
            f"timed out after {job.timeout_s}s "
            f"({job.preemptions} preemptions){suffix}",
        )
        return True

    # -- completion --------------------------------------------------------
    def _complete(self, job: Job, outcome: RunOutcome,
                  captured: dict | None) -> None:
        self._count("executed")
        if job.warm_started:
            self._count("warm_started")
        if self.checkpoints is not None:
            # Straight runs capture via run_capturing; sliced runs keep
            # their last preemption checkpoint.  Either warms future
            # re-runs of the same point.
            keep = captured if captured is not None else (
                job.checkpoint if job.preemptions else None
            )
            if keep is not None and not job.warm_started:
                self.checkpoints.store(job.spec, keep)
                job.stored_checkpoint = True
                self._count("captured")
        cache = self._cache_for(job.tenant)
        if cache is not None:
            cache.store(job.spec, job.verify, outcome)
        self._settle(job, JobState.DONE, outcome=outcome)

    def _fail(self, job: Job, error: str) -> None:
        self._settle(job, JobState.FAILED, error=error)

    def _cancel(self, job: Job) -> None:
        self._count("cancelled")
        self._settle(job, JobState.CANCELLED, error="cancelled")

    def _settle(self, job: Job, state: JobState,
                outcome: RunOutcome | None = None,
                error: str | None = None) -> None:
        key = f"{job.spec.spec_key()}:verify={int(bool(job.verify))}"
        # Finish the primary *before* draining followers: submit() only
        # coalesces onto a not-done primary (checked under the same
        # lock), so after this no new follower can attach and the drain
        # below is complete.
        job._finish(state, outcome=outcome, error=error)
        self._journal_state(job, state.value, error=error)
        with self._lock:
            if self._inflight.get(key) is job:
                del self._inflight[key]
            followers = list(job._followers)
            job._followers.clear()
        for follower in followers:
            if state is JobState.DONE and outcome is not None:
                # The follower's tenant gets its own cache reference.
                cache = self._cache_for(follower.tenant)
                if cache is not None:
                    cache.store(follower.spec, follower.verify, outcome)
            follower._finish(state, outcome=outcome, error=error)
            self._journal_state(follower, state.value, error=error)

    # -- shutdown ----------------------------------------------------------
    def shutdown(self, wait: bool = True,
                 cancel_pending: bool = True) -> None:
        """Stop accepting work, cancel what is queued, reap the pool.

        Safe against SIGINT/KeyboardInterrupt mid-sweep: pending jobs
        are cancelled (their waiters wake with an error), in-flight
        slices are allowed to finish their bounded run, and each slot
        then retires its worker: before this returns, or in the
        background with ``wait=False``.  Nothing lingers.
        """
        self._closing = True
        self.queue.close()
        if cancel_pending:
            for job in self.queue.drain():
                self._cancel(job)
        if wait:
            # Each slot thread finishes its in-flight slice, then
            # retires its worker on the way out.
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
