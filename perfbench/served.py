"""An embedded ``repro serve`` daemon for the ``fig3_served`` workload.

The daemon runs on a thread of the benchmark process with a private
socket and journal, no result cache, two workers and the CLI's default
256-quantum slices and 120 s hang watchdog.  One client connection
submits every point.  For an untraced pass the workers time the
host-speed reference before and after every slice
(``hostspeed.bracketed``); a traced pass leaves them out, so that they
add nothing to the slices' spans or to the time between them.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from hostspeed import bracketed, spooled
from points import SERVE_SLICE_QUANTA, SERVE_WORKERS

#: ``repro serve --hang-timeout`` default.
HANG_TIMEOUT_S = 120.0

#: Longest path ``AF_UNIX`` accepts on Linux, less the terminator.
_SOCKET_PATH_MAX = 107


def _socket_path(path: Path) -> str:
    relative = os.path.relpath(path)
    return min(str(path), relative, key=len)


class EmbeddedDaemon:
    """Start a daemon, fork its pool and connect one client."""

    def __init__(self, root: Path, bracket: bool = False) -> None:
        from repro.sim import jobs
        from repro.sim.client import ServeClient
        from repro.sim.experiment import ExperimentSpec
        from repro.sim.journal import Journal
        from repro.sim.serve import ServeDaemon

        root.mkdir(parents=True, exist_ok=True)
        socket_path = _socket_path(root / "serve.sock")
        if len(socket_path) > _SOCKET_PATH_MAX:
            raise RuntimeError(f"socket path too long: {socket_path}")
        self.journal = Journal(root / "journal")
        self.scheduler = jobs.Scheduler(
            workers=SERVE_WORKERS,
            cache=None,
            slice_quanta=SERVE_SLICE_QUANTA,
            journal=self.journal,
            hang_timeout_s=HANG_TIMEOUT_S,
        )
        self.daemon = ServeDaemon(self.scheduler, socket_path)
        self.thread = threading.Thread(
            target=self.daemon.run, name="perfbench-serve", daemon=True
        )
        self.client = None
        # Before the pool forks, so that the workers inherit it.
        self._speed_dir = root / "speed"
        self._speed_dir.mkdir()
        self._execute_slice = jobs.__dict__["_execute_slice"]
        if bracket:
            jobs._execute_slice = bracketed(
                self._execute_slice, self._speed_dir
            )
        try:
            self.thread.start()
            if not self.daemon.started.wait(30.0):
                raise RuntimeError("embedded daemon did not start")
            self.client = ServeClient(socket_path)
            # The pool forks on the first dispatch; a minimal job makes
            # that happen here, as part of set-up.
            self.client.submit(
                ExperimentSpec(workload="alpha", instances=1, items=4),
                verify=True,
            ).result(timeout=60.0)
            self.slice_samples()
        except BaseException:
            self.close()
            raise

    def slice_samples(self) -> list[tuple[float, float, float]]:
        """The workers' ``(before, seconds, after)`` samples of every slice
        since the last call (``hostspeed``); call it between passes, when
        no slice runs."""
        return spooled(self._speed_dir)

    def close(self) -> None:
        from repro.sim import jobs

        if self.client is not None:
            self.client.close()
            self.client = None
        self.daemon.stop()
        self.thread.join(timeout=30.0)
        self.scheduler.shutdown(wait=True, cancel_pending=True)
        self.journal.close()
        jobs._execute_slice = self._execute_slice
