"""Host speed, measured beside the benchmark's work so that its times can
be scaled to a reference speed.

The benchmark runs on shared hosts whose speed drifts by a fifth or more
within seconds, and a run-long median does not hide it: on a 2-core VM
the median pass of pre_knee varied by 24 % between 30-second windows.
A fixed piece of pure-Python work (:func:`reference`: difflib comparing
two fixed sequences), independent of the simulator, slows and speeds up
with it.  Timing it next to each piece of measured work and scaling the
work by it (:func:`scaled`) halved the spread of pre_knee's time between
12-second windows.  Of the candidates tried (a tight arithmetic loop, a
small register-machine interpreter, deepcopy and Fraction arithmetic,
difflib), difflib followed the simulator's slowdowns most closely; all
of them swing somewhat more than the simulator does.  A change to the
simulator moves the scaled time as it moves the raw one, because the
reference runs no simulator code.

In-process workloads time the reference between consecutive points and
scale each point by the timings on either side of it.  The served
workload runs its work in pool workers, two at once, so each worker
times the reference before and after every slice it runs
(:func:`bracketed`), on its own core and under the same load as the
slice, and a pass is scaled by the slices' mean speed, weighted by
their durations.  Timing the reference in the parent before and after a
pass tracked the pass no better than not scaling at all.
"""

from __future__ import annotations

import difflib
import functools
import os
import random
import time
from pathlib import Path

#: Seconds the reference takes at the reference speed: scaled times are
#: seconds at that speed.  On the 2-core Xeon VM the bounds were set on
#: the reference took 3.5-6 ms.
REFERENCE_S = 0.004

#: Length of the two sequences the reference compares.
_LENGTH = 500


def _lists() -> tuple[list[int], list[int]]:
    rng = random.Random(20_040_301)
    first = [rng.randrange(40) for _ in range(_LENGTH)]
    second = [x if rng.random() < 0.8 else rng.randrange(40) for x in first]
    return first, second


_FIRST, _SECOND = _lists()


def _loop() -> None:
    difflib.SequenceMatcher(None, _FIRST, _SECOND, autojunk=False
                            ).get_opcodes()


def reference() -> float:
    """Seconds one run of the reference takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scaled(samples) -> float:
    """Seconds of work at the reference speed.

    ``samples`` holds one ``(before, seconds, after)`` per piece of work:
    the reference's time just before it, its own seconds and the
    reference's time just after it.  Each piece is scaled by the mean of
    the two reference times."""
    return sum(
        seconds * REFERENCE_S * 2 / (before + after)
        for before, seconds, after in samples
    )


def bracketed(fn, spool: Path):
    """``fn``, but each call is bracketed by timings of the reference and
    appends its sample to ``<spool>/<pid>.txt`` (:func:`scaled`);
    :func:`spooled` reads them back."""
    @functools.wraps(fn)
    def timed(*args):
        before = reference()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds = time.perf_counter() - start
            sample = f"{before!r} {seconds!r} {reference()!r}\n"
            with open(spool / f"{os.getpid()}.txt", "a") as out:
                out.write(sample)
    return timed


def spooled(spool: Path) -> list[tuple[float, float, float]]:
    """Every sample :func:`bracketed` wrote to ``spool`` since the last
    call; call it when no process is writing there."""
    samples = []
    for path in sorted(spool.glob("*.txt")):
        for line in path.read_text().splitlines():
            before, seconds, after = map(float, line.split())
            samples.append((before, seconds, after))
        path.unlink()
    return samples
