"""Crash safety end to end: watchdog, drain, reconnect, kill -9.

These are the regression tests behind the chaos harness's claims.
In-process pieces (the hung-worker watchdog, the strike budget) run
against a real fork-context pool — forked workers inherit a
monkeypatched ``repro.sim.jobs`` module, which is how a worker is
pinned in a sleep loop without any cooperation from the job itself.
Process-level pieces (SIGTERM drain, kill -9 and restart) run a real
``repro serve`` subprocess, because signals and SIGKILL only mean
something against a real process.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import DaemonLostError, ExperimentError
from repro.sim import jobs
from repro.sim.chaos import ChaosHarness, ChaosReport, render_chaos
from repro.sim.client import ServeClient
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.journal import Journal
from repro.sim.jobs import Scheduler
from repro.sim.runner import ResultCache
from repro.sim.serve import ServeDaemon, daemon_available

SCALE = 1 / 8000


def spec(**overrides) -> ExperimentSpec:
    values = dict(workload="alpha", instances=1, quantum_ms=1.0, scale=SCALE)
    values.update(overrides)
    return ExperimentSpec(**values)


def serve_env(tmp_path: Path) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def start_serve(tmp_path: Path, sock: Path, *extra: str) -> subprocess.Popen:
    """A ``repro serve`` subprocess leading its own process group, so
    its pool workers can be reaped with ``killpg`` even after the daemon
    itself was SIGKILLed (which orphans them)."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2",
         "--slice-quanta", "64", "--socket", str(sock), *extra],
        stderr=subprocess.PIPE,
        env=serve_env(tmp_path),
        start_new_session=True,
    )


def live_group_members(pgid: int) -> list[int]:
    """PIDs of non-zombie processes in process group ``pgid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we looked
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(stat.parent.name))
    return members


def reap_group(pgid: int) -> None:
    """SIGKILL process group ``pgid`` and wait until none of it lives."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while live_group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def alive(pid: int) -> bool:
    """Whether ``pid`` names a live (non-zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def await_daemon(sock: Path, proc: subprocess.Popen) -> None:
    deadline = time.monotonic() + 30.0
    while not daemon_available(sock):
        assert time.monotonic() < deadline, "daemon never came up"
        assert proc.poll() is None, proc.stderr.read()
        time.sleep(0.05)


class TestHungWorkerWatchdog:
    def test_hung_worker_is_killed_and_job_recovers(
        self, tmp_path, monkeypatch
    ):
        """A worker pinned in a sleep loop never raises
        BrokenProcessPool on its own; the watchdog must SIGKILL it and
        the requeued job must still produce the right outcome."""
        flag = tmp_path / "hang-once"
        flag.write_text("")
        real = jobs.run_experiment_capturing

        def hang_once(spec, **kwargs):
            try:
                os.unlink(flag)  # one shot: only the first run hangs
            except FileNotFoundError:
                return real(spec, **kwargs)
            while True:
                time.sleep(3600)  # pinned: alive, never returning

        # Forked workers inherit the patched module, so the *worker*
        # executes hang_once without it ever crossing a pickle.
        monkeypatch.setattr(jobs, "run_experiment_capturing", hang_once)

        point = spec()
        reference = run_experiment(point)
        scheduler = Scheduler(workers=1, hang_timeout_s=0.5)
        try:
            job = scheduler.submit(point)
            outcome = job.result(timeout=60)
        finally:
            scheduler.shutdown()
        assert outcome == reference
        assert scheduler.stats.hung_restarts == 1
        assert job.hang_strikes == 1

    def test_hung_worker_spares_its_bystander(self, tmp_path, monkeypatch):
        """The watchdog kills only the hung worker: a slice in flight on
        the other worker when the deadline fires finishes undisturbed.

        Ordered by flag files, not sleeps: the bystander is submitted
        once the hanger has removed its flag (it is in flight), and it
        waits in its worker for ``released``, which the test writes once
        the watchdog has restarted the hanger's worker."""
        flag = tmp_path / "hang-once"
        flag.write_text("")
        released = tmp_path / "released"
        hanger, bystander = spec(instances=1), spec(instances=2)
        real = jobs.run_experiment_capturing

        def hang_once_or_wait(point, **kwargs):
            if point == hanger:
                try:
                    os.unlink(flag)
                except FileNotFoundError:
                    return real(point, **kwargs)
                while True:
                    time.sleep(3600)
            while not released.exists():  # in flight at the deadline
                time.sleep(0.01)
            return real(point, **kwargs)

        def wait_until(condition):
            deadline = time.monotonic() + 60
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.01)

        monkeypatch.setattr(
            jobs, "run_experiment_capturing", hang_once_or_wait
        )
        reference = run_experiment(bystander)
        scheduler = Scheduler(workers=2, hang_timeout_s=1.0)
        try:
            hung = scheduler.submit(hanger)
            wait_until(lambda: not flag.exists())
            # Slices dispatched from here on (the bystander, the
            # hanger's retry) get a deadline no host load can reach;
            # the hanger's own slice keeps its 1 s.
            scheduler.hang_timeout_s = 60.0
            job = scheduler.submit(bystander)
            wait_until(lambda: job.state is jobs.JobState.RUNNING)
            wait_until(lambda: scheduler.stats.hung_restarts == 1)
            released.write_text("")
            outcome = job.result(timeout=60)
            hung.result(timeout=60)
        finally:
            scheduler.shutdown()
        assert hung.hang_strikes == 1
        assert job.retries == 0
        assert job.hang_strikes == 0
        assert len(job.worker_pids) == 1
        assert outcome == reference

    def test_fork_while_code_cache_lock_is_held(self):
        """A slot may fork its worker while another thread (a degraded
        job running inline, say) holds the trace code cache's lock.  The
        child must not inherit it held: it would hang at its first
        cache miss and cost the job a hang strike."""
        from repro.cpu import traces

        point = spec()
        reference = run_experiment(point)
        held, release = threading.Event(), threading.Event()

        def hold():
            with traces._CODE_CACHE_LOCK:
                held.set()
                release.wait(10)

        with traces._CODE_CACHE_LOCK:
            traces._CODE_CACHE.clear()  # the worker must compile afresh
        holder = threading.Thread(target=hold)
        holder.start()
        held.wait(10)
        scheduler = Scheduler(workers=1, hang_timeout_s=5.0)
        try:
            job = scheduler.submit(point)
            time.sleep(0.3)  # the slot forks its worker meanwhile
            release.set()
            outcome = job.result(timeout=60)
        finally:
            release.set()
            holder.join()
            scheduler.shutdown()
        assert job.hang_strikes == 0
        assert outcome == reference

    def test_permanently_hung_job_is_quarantined(
        self, tmp_path, monkeypatch
    ):
        def hang_forever(spec, **kwargs):
            while True:
                time.sleep(3600)

        monkeypatch.setattr(
            jobs, "run_experiment_capturing", hang_forever
        )
        scheduler = Scheduler(workers=1, hang_timeout_s=0.3)
        try:
            job = scheduler.submit(spec())
            with pytest.raises(ExperimentError, match="quarantined"):
                job.result(timeout=60)
        finally:
            scheduler.shutdown()
        # Strike budget: MAX_HANG_STRIKES requeues, then the fail.
        assert job.hang_strikes == jobs.MAX_HANG_STRIKES + 1
        assert scheduler.stats.hung_restarts == jobs.MAX_HANG_STRIKES + 1

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ExperimentError):
            Scheduler(workers=1, hang_timeout_s=-1.0)


class TestDaemonLost:
    def test_sever_raises_typed_error_and_keeps_events(self, tmp_path):
        """With reconnect disabled, a dying daemon fails live handles
        with DaemonLostError — distinguishable from a job failure —
        and the events streamed before the loss stay on the handle."""
        scheduler = Scheduler(workers=1, slice_quanta=256)
        server = ServeDaemon(scheduler, tmp_path / "lost.sock")
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10.0)
        client = ServeClient(server.socket_path, reconnect=0)
        events = []
        try:
            job = client.submit(spec(instances=2))
            job.add_listener(
                lambda job, kind, message: events.append(kind)
            )
            deadline = time.monotonic() + 30.0
            while job.state.value == "pending":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            server.stop()
            thread.join(timeout=10.0)
            with pytest.raises(DaemonLostError):
                job.result(timeout=30)
            assert job.daemon_lost
            assert job.state.value == "failed"
            # Pre-loss lifecycle survived on the handle.
            assert job.preemptions >= 0
            assert "running" in events or job.worker_pids == []
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10.0)
            scheduler.shutdown(wait=True, cancel_pending=True)

    def test_drop_connection_reconnects_and_reattaches(self, tmp_path):
        scheduler = Scheduler(workers=1, slice_quanta=256)
        server = ServeDaemon(scheduler, tmp_path / "drop.sock")
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10.0)
        client = ServeClient(
            server.socket_path, reconnect=5, backoff_base_s=0.01
        )
        try:
            point = spec(instances=2)
            reference = run_experiment(point)
            job = client.submit(point)
            client.drop_connection()
            outcome = job.result(timeout=60)
            assert outcome == reference
            assert client.reconnects == 1
            assert job.reattached == 1
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10.0)
            scheduler.shutdown(wait=True, cancel_pending=True)


class TestSigtermDrain:
    def test_sigterm_drains_and_journal_recovers(self, tmp_path):
        """SIGTERM is the graceful path: stop accepting, checkpoint +
        journal in-flight work, exit cleanly — and a later scheduler
        recovers every unfinished job from the journal."""
        sock = tmp_path / "drain.sock"
        proc = start_serve(tmp_path, sock)
        points = [spec(instances=i, quantum_ms=10.0) for i in (3, 4)]
        try:
            await_daemon(sock, proc)
            client = ServeClient(sock, reconnect=0)
            submitted = [client.submit(point) for point in points]
            assert len(submitted) == 2
            # SIGTERM as soon as both jobs have slices in flight: a
            # fixed sleep can outlast the whole (sub-second) workload.
            deadline = time.monotonic() + 30.0
            while any(job.state.value != "running" for job in submitted):
                assert time.monotonic() < deadline, "jobs never started"
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            stderr = proc.communicate(timeout=60)[1]
            client.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0, stderr.decode()
        assert b"serve: drained" in stderr
        assert not sock.exists()

        # The journal now owns the interrupted jobs: a fresh scheduler
        # recovers and finishes them, results landing in the cache.
        cache_dir = tmp_path / "cache"
        journal = Journal(cache_dir / "journal")
        cache = ResultCache(cache_dir)
        scheduler = Scheduler(workers=0, cache=cache, journal=journal)
        try:
            recovered = scheduler.recover()
            assert recovered >= 1  # at least the in-flight jobs
        finally:
            scheduler.shutdown()
        for point in points:
            outcome = cache.load(point, False)
            assert outcome is not None
            assert outcome == run_experiment(point)

    def test_draining_scheduler_rejects_submits(self):
        scheduler = Scheduler(workers=0)
        try:
            scheduler.begin_drain()
            with pytest.raises(ExperimentError, match="draining"):
                scheduler.submit(spec())
        finally:
            scheduler.shutdown()


class TestKill9Restart:
    def test_client_reattaches_across_daemon_restart(self, tmp_path):
        """kill -9 mid-sweep, restart, reconnect: every handle must
        re-attach to its journal-recovered job and finish with the
        outcome an undisturbed run produces."""
        sock = tmp_path / "k9.sock"
        points = [spec(instances=i, quantum_ms=10.0) for i in (2, 3, 4)]
        reference = run_experiment(points[0])
        proc = start_serve(tmp_path, sock)
        # Each daemon leads its own group (pgid == pid); the first one's
        # pool workers outlive its SIGKILL unless the group is reaped.
        groups = [proc.pid]
        try:
            await_daemon(sock, proc)
            client = ServeClient(
                sock, reconnect=20, backoff_base_s=0.05, backoff_cap_s=0.5
            )
            jobs_ = [client.submit(point) for point in points]
            # Kill once work is in flight (a checkpoint exists) but far
            # from done: a fixed sleep can outlast the whole sub-second
            # workload, leaving nothing to re-attach.
            deadline = time.monotonic() + 30.0
            while not any(job.preemptions for job in jobs_):
                assert time.monotonic() < deadline, "no slice ever ended"
                time.sleep(0.01)
            proc.kill()  # SIGKILL: no cleanup, no goodbye
            proc.wait(timeout=10)
            proc = start_serve(tmp_path, sock)
            groups.append(proc.pid)
            outcomes = [job.result(timeout=120) for job in jobs_]
            assert outcomes[0] == reference
            assert client.reconnects == 1
            assert any(job.reattached for job in jobs_)
            stats = client.stats()
            # The restarted daemon saw the journal replay and the
            # client's idempotent resubmissions.
            assert stats["stats"]["journal_replays"] >= 0
            assert stats["stats"]["reconnects"] >= 1
            client.shutdown_server()
            client.close()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            for pgid in groups:
                reap_group(pgid)
        # No daemon or orphaned pool worker of either group survives.
        assert [live_group_members(pgid) for pgid in groups] == [[], []]


class TestNoOrphanedWorkers:
    def test_workers_exit_when_only_the_daemon_is_killed(self, tmp_path):
        """kill -9 of the daemon pid alone — not its process group —
        leaves no orphans: each worker sees EOF on its pipe and exits."""
        sock = tmp_path / "orphans.sock"
        proc = start_serve(tmp_path, sock)
        workers: list[int] = []
        try:
            await_daemon(sock, proc)
            client = ServeClient(sock, reconnect=0)
            try:
                client.submit(spec(instances=4, quantum_ms=10.0))
                deadline = time.monotonic() + 30.0
                while not workers:
                    assert time.monotonic() < deadline, "no worker started"
                    workers = client.stats().get("worker_pids", [])
                    time.sleep(0.05)
            finally:
                client.close()
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 30.0
            survivors = workers
            while survivors and time.monotonic() < deadline:
                survivors = [pid for pid in survivors if alive(pid)]
                time.sleep(0.05)
            assert survivors == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            reap_group(proc.pid)


class TestChaosHarness:
    def test_relative_workdir_is_made_absolute(self, tmp_path, monkeypatch):
        """The daemon runs with the workdir as its cwd, so the socket
        and cache paths handed to it must not be relative to it."""
        monkeypatch.chdir(tmp_path)
        harness = ChaosHarness("chaos-work")
        assert harness.workdir == tmp_path.resolve() / "chaos-work"
        assert harness.socket_path.is_absolute()
        assert harness.cache_dir.is_absolute()
        assert harness.journal_dir.is_absolute()

    def test_daemon_kill_takes_its_pool_workers_down(self, tmp_path):
        """The injected kill -9 reaps the daemon's whole process group:
        neither the daemon nor its pool workers outlive it, and the
        restarted daemon still finishes the interrupted job."""
        harness = ChaosHarness(tmp_path / "chaos")
        harness.workdir.mkdir()
        harness.start_daemon()
        killed = harness._daemon
        client = ServeClient(
            harness.socket_path, reconnect=20, backoff_base_s=0.05,
            backoff_cap_s=0.5,
        )
        workers: list[int] = []
        try:
            point = spec(instances=4, quantum_ms=10.0)
            job = client.submit(point)
            deadline = time.monotonic() + 30.0
            while not workers:
                assert time.monotonic() < deadline, "no worker ever started"
                workers = client.stats().get("worker_pids", [])
                time.sleep(0.05)
            harness._fault_daemon_kill(client)
            deadline = time.monotonic() + 10.0
            survivors = [killed.pid, *workers]
            while survivors and time.monotonic() < deadline:
                survivors = [pid for pid in survivors if alive(pid)]
                time.sleep(0.05)
            assert survivors == []
            assert live_group_members(killed.pid) == []
            # The restarted daemon leads a group of its own, too.
            assert os.getpgid(harness._daemon.pid) == harness._daemon.pid
            assert job.result(timeout=120) == run_experiment(point)
        finally:
            client.close()
            harness._stop_daemon()
            for pid in workers:  # orphans, should the group kill miss any
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
            reap_group(harness._daemon.pid)


class TestChaosReport:
    def test_render_mentions_verdict_and_faults(self):
        report = ChaosReport(
            seed=7,
            identical=True,
            reference_csv="a\n",
            chaos_csv="a\n",
            events=[{"fault": "daemon_kill", "elapsed_s": 1.5, "pid": 42}],
            reconnects=2,
            daemon_stats={"journal_replays": 1, "jobs_recovered": 3},
            elapsed_s=12.0,
        )
        text = render_chaos(report)
        assert "byte-identical" in text
        assert "daemon_kill" in text
        assert report.ok
        bad = ChaosReport(
            seed=7, identical=False, reference_csv="a\n", chaos_csv="b\n"
        )
        assert "DIFFERS" in render_chaos(bad)
        assert not bad.ok
