"""Sweep execution: a scheduler client plus the on-disk stores.

Every figure in the paper is a sweep over (workload x policy x quantum x
instance-count) points that are completely independent of one another,
so they parallelise trivially.  :class:`SweepRunner` used to *be* the
scheduler; it is now one client of :class:`~repro.sim.jobs.Scheduler`:
each point is submitted as a job (with the runner's tenant, priority
and optional timeout) and the outcomes are merged back **in spec
order** regardless of completion order, so a parallel sweep is
bit-identical to the serial reference (``jobs=1``).  Hand the runner a
shared scheduler — or a :class:`~repro.sim.client.ServeClient` attached
to a running ``repro serve`` daemon — and the same sweep rides a
long-lived multi-tenant worker fleet instead of a private pool.

Completed points are stored in an on-disk :class:`ResultCache` keyed by
:meth:`ExperimentSpec.spec_key` — a stable content hash of the spec and
its fully-resolved machine configuration — plus the verify flag and
:data:`RESULTS_VERSION`.  Re-running a sweep only executes points whose
spec (or the result schema) changed; everything else is a cache hit.

Layout of the cache directory (default ``benchmarks/results/cache/``)::

    cache/
      objects/
        <first two hex digits>/
          <full sha256 key>.pkl   # pickled RunOutcome (shared, one copy)
      ns/
        <tenant>/
          <full sha256 key>.ref   # this tenant touched that object
      checkpoints/                # CheckpointStore (content-keyed, shared)

Outcomes are pure functions of the spec key, so the object store is
shared across tenants — concurrent tenants *share hits* — while each
tenant's ``ns/`` subdirectory records which entries it owns for
accounting and pruning, so they never clobber each other.  Workers
never touch the stores: outcomes are marshalled back to the scheduler,
which is the single writer.
"""

from __future__ import annotations

import json
import os
import pickle
import queue as _queue
import re
import sys
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable, Sequence

from ..errors import DaemonLostError, ExperimentError
from ..machine import CHECKPOINT_FORMAT, CHECKPOINT_VERSION
from ..state import write_atomic
from .experiment import ExperimentSpec, RunOutcome
from .jobs import DEFAULT_TENANT, Job, JobState, Scheduler

#: Bump when the semantics of :class:`RunOutcome` (or of running an
#: experiment point) change in a way that stales previously cached
#: results despite an unchanged spec.
RESULTS_VERSION = 1

#: Progress callback: ``(done, total, index, cached)`` where ``index``
#: is the position of the just-finished point in the submitted spec list
#: and ``cached`` is True when it was served from the result cache.
SweepProgressFn = Callable[[int, int, int, bool], None]

#: Tenant namespaces become directory names; keep them boring.
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_namespace(namespace: str) -> str:
    if not _NAMESPACE_RE.match(namespace):
        raise ExperimentError(
            f"invalid tenant namespace {namespace!r} (want 1-64 chars "
            "of letters, digits, '.', '_', '-')"
        )
    return namespace


def default_cache_dir() -> Path:
    """Resolve the on-disk cache location.

    ``REPRO_CACHE_DIR`` wins; otherwise ``benchmarks/results/cache/``
    under the repository root when running from a checkout, falling back
    to ``.repro-cache/`` in the working directory for installed copies.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "results" / "cache"
    return Path.cwd() / ".repro-cache"


def _evict_corrupt(path: Path, kind: str, error: Exception) -> None:
    """Delete an unparseable store entry and warn once about it.

    A corrupt file that stays on disk turns every future run of the same
    point into a silent miss *plus* a doomed re-read; dropping it makes
    the next store attempt succeed cleanly.
    """
    try:
        os.unlink(path)
    except OSError:
        return
    print(
        f"repro: dropped corrupt {kind} entry {path.name} "
        f"({type(error).__name__})",
        file=sys.stderr,
    )


def _tree_stats(root: Path, suffix: str) -> tuple[int, int]:
    """(entry count, total bytes) for every ``suffix`` file under root."""
    entries = 0
    total = 0
    if not root.is_dir():
        return 0, 0
    for path in root.rglob(f"*{suffix}"):
        try:
            total += path.stat().st_size
        except OSError:
            continue
        entries += 1
    return entries, total


def _prune_tree(root: Path, suffix: str, cutoff: float) -> tuple[int, int]:
    """Delete ``suffix`` files under root older than ``cutoff`` (mtime).

    Returns ``(removed, kept)``.  Missing trees prune to nothing.
    """
    removed = 0
    kept = 0
    if not root.is_dir():
        return 0, 0
    for path in root.rglob(f"*{suffix}"):
        try:
            if path.stat().st_mtime < cutoff:
                os.unlink(path)
                removed += 1
            else:
                kept += 1
        except OSError:
            continue
    return removed, kept


class ResultCache:
    """Content-addressed result store with per-tenant namespaces.

    Objects (pickled outcomes) live once under ``root/objects/`` and
    are keyed purely by content hash, so every namespace sees every
    hit; ``root/ns/<namespace>/`` holds zero-byte reference markers
    recording which tenants use which entries.  Load failures of any
    kind (missing file, truncated pickle, stale classes) are treated as
    cache misses — the cache is an accelerator, never a source of
    errors.  A file that *exists* but cannot be unpickled is deleted
    (and counted in :attr:`evictions`) so it cannot shadow the slot
    forever.
    """

    def __init__(
        self,
        root: Path | str,
        namespace: str = DEFAULT_TENANT,
        _evcell: list[int] | None = None,
    ) -> None:
        self.root = Path(root)
        self.namespace = validate_namespace(namespace)
        #: Corrupt-entry eviction counter, shared across every
        #: namespace view of the same cache (see :meth:`for_namespace`).
        self._evcell = _evcell if _evcell is not None else [0]

    @property
    def evictions(self) -> int:
        """Corrupt entries deleted by :meth:`load` since construction."""
        return self._evcell[0]

    @evictions.setter
    def evictions(self, value: int) -> None:
        self._evcell[0] = value

    def for_namespace(self, namespace: str) -> "ResultCache":
        """A view of the same store under another tenant namespace."""
        if namespace == self.namespace:
            return self
        return ResultCache(self.root, namespace, _evcell=self._evcell)

    def key(self, spec: ExperimentSpec, verify: bool) -> str:
        blob = f"{spec.spec_key()}:verify={int(bool(verify))}:v={RESULTS_VERSION}"
        return sha256(blob.encode("utf-8")).hexdigest()

    def path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    def ref_path(self, key: str, namespace: str | None = None) -> Path:
        ns = namespace if namespace is not None else self.namespace
        return self.root / "ns" / ns / f"{key}.ref"

    def _touch_ref(self, key: str) -> None:
        ref = self.ref_path(key)
        try:
            if ref.exists():
                # Freshen the marker: prune() keeps a shared object
                # alive while *any* tenant's reference is recent.
                os.utime(ref)
                return
            ref.parent.mkdir(parents=True, exist_ok=True)
            ref.touch()
        except OSError:
            pass  # accounting only; never fail a load over it

    def load(self, spec: ExperimentSpec, verify: bool) -> RunOutcome | None:
        key = self.key(spec, verify)
        path = self.path(key)
        try:
            with open(path, "rb") as handle:
                outcome = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, TypeError) as error:
            self._evcell[0] += 1
            _evict_corrupt(path, "result-cache", error)
            return None
        # Guard against (astronomically unlikely) key collisions and
        # against keys minted by an older hashing scheme.  These entries
        # are *valid* pickles for some other point, so leave them alone.
        if not isinstance(outcome, RunOutcome) or outcome.spec != spec:
            return None
        self._touch_ref(key)
        try:
            os.utime(path)  # age-based pruning tracks last use
        except OSError:
            pass
        return outcome

    def store(self, spec: ExperimentSpec, verify: bool,
              outcome: RunOutcome) -> None:
        key = self.key(spec, verify)
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: never leave a truncated pickle for a
        # concurrent reader (or an interrupted run) to trip over — and
        # two tenants racing on the same key both land a whole object.
        write_atomic(
            path,
            lambda handle: pickle.dump(
                outcome, handle, protocol=pickle.HIGHEST_PROTOCOL
            ),
            binary=True,
        )
        self._touch_ref(key)

    # -- accounting / maintenance -----------------------------------------
    def namespaces(self) -> list[str]:
        ns_root = self.root / "ns"
        if not ns_root.is_dir():
            return []
        return sorted(p.name for p in ns_root.iterdir() if p.is_dir())

    def stats(self) -> dict:
        """Entry/byte totals plus a per-namespace reference breakdown."""
        entries, total = _tree_stats(self.root / "objects", ".pkl")
        per_namespace = {
            ns: sum(1 for _ in (self.root / "ns" / ns).glob("*.ref"))
            for ns in self.namespaces()
        }
        return {"entries": entries, "bytes": total,
                "namespaces": per_namespace}

    def prune(self, max_age_s: float, now: float | None = None) -> dict:
        """Drop objects unused for ``max_age_s`` seconds (plus any
        namespace references left dangling).  Returns removal counts.

        Objects are shared across tenants, so "unused" means no use by
        *anyone*: an object survives while its own mtime (touched on
        every load) or any tenant's reference marker is newer than the
        cutoff.  Pruning by object mtime alone would let one tenant's
        idleness delete an entry another tenant still hits.
        """
        cutoff = (now if now is not None else time.time()) - max_age_s
        newest_ref: dict[str, float] = {}
        for ns in self.namespaces():
            for ref in (self.root / "ns" / ns).glob("*.ref"):
                try:
                    mtime = ref.stat().st_mtime
                except OSError:
                    continue
                key = ref.stem
                if mtime > newest_ref.get(key, 0.0):
                    newest_ref[key] = mtime
        removed = 0
        kept = 0
        objects = self.root / "objects"
        if objects.is_dir():
            for path in objects.rglob("*.pkl"):
                try:
                    last_used = max(
                        path.stat().st_mtime, newest_ref.get(path.stem, 0.0)
                    )
                    if last_used < cutoff:
                        os.unlink(path)
                        removed += 1
                    else:
                        kept += 1
                except OSError:
                    continue
        dangling = 0
        for ns in self.namespaces():
            for ref in (self.root / "ns" / ns).glob("*.ref"):
                if not self.path(ref.stem).exists():
                    try:
                        os.unlink(ref)
                        dangling += 1
                    except OSError:
                        pass
        return {"removed": removed, "kept": kept, "dangling_refs": dangling}


def default_checkpoint_dir() -> Path:
    """Checkpoint store location: a sibling tree inside the cache dir."""
    return default_cache_dir() / "checkpoints"


class CheckpointStore:
    """JSON-per-point machine checkpoints keyed by ``spec_key``.

    Unlike the result cache the key is *verify-independent*: output
    verification only reads end state, so the machine's evolution — and
    hence any mid-run checkpoint — is identical either way.  It is also
    namespace-free: a checkpoint is a pure function of the spec, so
    every tenant shares the same entry.  Load failures are misses; a
    stale checkpoint is additionally rejected by the spec-key
    cross-check in :func:`~repro.sim.experiment.run_experiment_capturing`.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        #: Corrupt entries deleted by :meth:`load` since construction.
        self.evictions = 0

    def key(self, spec: ExperimentSpec) -> str:
        blob = f"{spec.spec_key()}:ckpt:v={CHECKPOINT_VERSION}"
        return sha256(blob.encode("utf-8")).hexdigest()

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, spec: ExperimentSpec) -> dict | None:
        path = self.path(self.key(spec))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                checkpoint = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            self.evictions += 1
            _evict_corrupt(path, "checkpoint", error)
            return None
        if not isinstance(checkpoint, dict) or (
            checkpoint.get("format") != CHECKPOINT_FORMAT
        ):
            self.evictions += 1
            _evict_corrupt(
                path, "checkpoint", ValueError("not a machine checkpoint")
            )
            return None
        return checkpoint

    def store(self, spec: ExperimentSpec, checkpoint: dict) -> None:
        path = self.path(self.key(spec))
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, lambda handle: json.dump(checkpoint, handle))

    def stats(self) -> dict:
        entries, total = _tree_stats(self.root, ".json")
        return {"entries": entries, "bytes": total}

    def prune(self, max_age_s: float, now: float | None = None) -> dict:
        cutoff = (now if now is not None else time.time()) - max_age_s
        removed, kept = _prune_tree(self.root, ".json", cutoff)
        return {"removed": removed, "kept": kept}


@dataclass
class SweepStats:
    """Accumulated accounting across every sweep a runner executed."""

    points: int = 0
    executed: int = 0
    cache_hits: int = 0
    #: Points absorbed by an identical in-flight job (shared scheduler).
    coalesced: int = 0
    #: Executed points that resumed from a stored machine checkpoint.
    warm_started: int = 0
    #: Executed points that produced a checkpoint for future warm starts.
    captured: int = 0
    #: Retries after a pool worker died mid-point.
    worker_retries: int = 0
    #: Points that hit their per-job wall-clock timeout.
    timeouts: int = 0
    #: Slice preemptions absorbed by the scheduler for our points.
    preemptions: int = 0
    #: Corrupt cache/checkpoint files deleted during loads.
    cache_evictions: int = 0
    elapsed: float = 0.0


class SweepRunner:
    """Execute experiment sweeps through the job scheduler.

    ``jobs=1`` (the default) is the serial reference path: points run
    in submission order in this process, exactly as the figures did
    before this engine existed.  ``jobs>1`` fans cache misses out over
    a private worker pool.  Passing ``scheduler`` (a live
    :class:`~repro.sim.jobs.Scheduler` or a
    :class:`~repro.sim.client.ServeClient` connected to a daemon)
    submits through that shared backend instead — priorities, tenants,
    preemption and all.  Results are merged back into submission order,
    so the output is bit-identical in every mode.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        checkpoints: CheckpointStore | None = None,
        scheduler=None,
        tenant: str = DEFAULT_TENANT,
        priority: int = 0,
        timeout_s: float | None = None,
        timeout_action: str = "fail",
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.checkpoints = checkpoints
        self.scheduler = scheduler
        self.tenant = validate_namespace(tenant)
        self.priority = priority
        self.timeout_s = timeout_s
        self.timeout_action = timeout_action
        self.stats = SweepStats()

    def run(
        self,
        specs: Sequence[ExperimentSpec],
        verify: bool = False,
        progress: SweepProgressFn | None = None,
        priority: int | None = None,
        timeout_s: float | None = None,
    ) -> list[RunOutcome]:
        start = time.perf_counter()
        total = len(specs)
        results: list[RunOutcome | None] = [None] * total
        priority = self.priority if priority is None else priority
        timeout_s = self.timeout_s if timeout_s is None else timeout_s

        backend = self.scheduler
        owned = backend is None
        if owned:
            backend = Scheduler(
                workers=0 if self.jobs == 1 else self.jobs,
                cache=self.cache,
                checkpoints=self.checkpoints,
            )

        done_q: _queue.SimpleQueue = _queue.SimpleQueue()
        finished = 0

        def finish(index: int, job: Job) -> None:
            if job.state is not JobState.DONE:
                if getattr(job, "daemon_lost", False):
                    # The daemon went away, not the experiment: raise
                    # the typed error so callers can restart/resubmit.
                    raise DaemonLostError(
                        f"sweep point {index} lost with its daemon: "
                        f"{job.error}"
                    )
                raise ExperimentError(
                    f"sweep point {index} {job.state.value}: {job.error}"
                )
            results[index] = job.outcome
            if job.cached:
                self.stats.cache_hits += 1
            elif job.coalesced:
                self.stats.coalesced += 1
            else:
                self.stats.executed += 1
            if job.warm_started:
                self.stats.warm_started += 1
            if job.stored_checkpoint:
                self.stats.captured += 1
            self.stats.worker_retries += job.retries
            self.stats.preemptions += job.preemptions
            if job.timed_out:
                self.stats.timeouts += 1

        def drain(block: bool) -> None:
            nonlocal finished
            while finished < total:
                try:
                    index, job = done_q.get(block=block)
                except _queue.Empty:
                    return
                finish(index, job)
                finished += 1
                if progress is not None:
                    progress(finished, total, index, job.cached)
                block = False  # after one blocking get, sip the rest

        try:
            for index, spec in enumerate(specs):
                job = backend.submit(
                    spec,
                    tenant=self.tenant,
                    verify=verify,
                    priority=priority,
                    timeout_s=timeout_s,
                    timeout_action=self.timeout_action,
                )
                job.add_done_callback(
                    lambda job, index=index: done_q.put((index, job))
                )
                # Keep serial/interactive progress timely: report every
                # point that completed while we were submitting.
                drain(block=False)
            while finished < total:
                drain(block=True)
        finally:
            if owned:
                backend.shutdown(wait=True, cancel_pending=True)
            if self.cache is not None:
                self.stats.cache_evictions += self.cache.evictions
                self.cache.evictions = 0
            if self.checkpoints is not None:
                self.stats.cache_evictions += self.checkpoints.evictions
                self.checkpoints.evictions = 0
            self.stats.points += total
            self.stats.elapsed += time.perf_counter() - start

        assert all(outcome is not None for outcome in results)
        return results  # type: ignore[return-value]
