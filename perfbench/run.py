#!/usr/bin/env python3
"""The repository benchmark: Figure 2/3 workloads timed end to end, with
a traced run that attributes host time to each simulator layer.

    python3 perfbench/run.py --workload post_knee --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up several times, then runs the workload's points
(``points.py``) in passes until ``--seconds`` have gone by, and reports
the end-to-end metrics, host times scaled to a reference host speed
(``hostspeed.py``).  ``--trace 1`` runs an untraced pass, times the
probe point under the default tier and under ``block``, installs the
layer wrappers (``layers.py``), runs one traced pass, removes the
wrappers, runs a second untraced pass and reports the per-layer
metrics.  Either way the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
and ``.perfbench/results/``, hold the detail: provenance, per-pass
times, sample counts, tails and checks.  README.md explains the choices.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import points as pts
from checks import outcome_bytes, shape_checks
from hostspeed import reference, scaled
from stats import distribution, failed_frac

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run scratch space, results and span dumps; never committed.
OUT = ROOT / ".perfbench"

#: Set-ups per run, each in a fresh interpreter; setup_s is their median.
SETUP_REPS = 5
#: Passes per untraced run at least, so sim_cycles can be seen to repeat.
MIN_PASSES = 2

clock = time.perf_counter


# -- set-up ----------------------------------------------------------------
def build_programs(points) -> float:
    """Build every point's machine and program image (filling the
    program cache, as a sweep's first use of each image would)."""
    from repro.machine import Machine

    start = clock()
    for point in points:
        Machine.from_spec(point.spec).spawn_instances()
    return clock() - start


def set_up(workload: str, seed: int, run_dir: Path, bracket: bool = False):
    """Imports, program build and, for ``fig3_served``, the daemon, whose
    workers time the host-speed reference around every slice when
    ``bracket`` is set.

    Returns the point list, the timing of each part and the daemon.
    """
    start = clock()
    import repro.sim.runner  # noqa: F401  (the in-process path)

    if workload == "fig3_served":
        import repro.sim.serve  # noqa: F401
    points = pts.points(workload, seed)
    timings = {"import_s": clock() - start, "build_s": build_programs(points)}
    daemon = None
    if workload == "fig3_served":
        from served import EmbeddedDaemon

        start = clock()
        daemon = EmbeddedDaemon(run_dir / "serve", bracket)
        timings["daemon_s"] = clock() - start
    return points, timings, daemon


def measure_setup(args) -> tuple[list[float], list[float],
                                   dict[str, list[float]]]:
    """Time SETUP_REPS complete set-ups, each in a fresh interpreter.

    Returns their wall times, the same scaled to the reference host
    speed (the reference timed before and after each) and the parts each
    one timed itself (``set_up``)."""
    walls: list[float] = []
    scaled_walls: list[float] = []
    parts: dict[str, list[float]] = {}
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    for _ in range(SETUP_REPS):
        before = reference()
        start = clock()
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120
        )
        walls.append(clock() - start)
        scaled_walls.append(scaled([(before, walls[-1], reference())]))
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        timings = json.loads(done.stdout.splitlines()[-1])
        for name, value in timings.items():
            parts.setdefault(name, []).append(value)
    return walls, scaled_walls, parts


# -- one pass over the points ----------------------------------------------
@dataclass
class Pass:
    wall_s: float
    #: wall_s scaled to the reference host speed (``hostspeed``).
    scaled_s: float
    #: One entry per point: its RunOutcome, or None when it failed.
    outcomes: list
    errors: list[str]
    #: Every point executed: no cache hit, no coalesced job.
    hermetic: bool
    journal_appends: int = 0

    @property
    def succeeded(self) -> int:
        return sum(
            outcome is not None and outcome.verified
            for outcome in self.outcomes
        )


def run_in_process(points, recorder=None) -> Pass:
    """Serial and in-process: one point at a time through a cache-less
    SweepRunner, so one failing point does not hide the others.  The
    host-speed reference is timed between points, and each point is
    scaled by the timings on either side of it."""
    from repro.errors import ReproError
    from repro.sim.runner import SweepRunner

    runner = SweepRunner(jobs=1, cache=None)
    outcomes, errors = [], []
    samples = []
    before = reference()
    for index, point in enumerate(points):
        if recorder is not None:
            recorder.trace_id = index
        start = clock()
        try:
            [outcome] = runner.run([point.spec], verify=True)
        except ReproError as error:
            outcome = None
            errors.append(f"{point.label}: {error}")
        seconds = clock() - start
        after = reference()
        samples.append((before, seconds, after))
        before = after
        outcomes.append(outcome)
    stats = runner.stats
    hermetic = (stats.cache_hits == 0 and stats.coalesced == 0
                and stats.executed == len(points) - len(errors))
    wall = sum(seconds for _, seconds, _ in samples)
    return Pass(wall, scaled(samples), outcomes, errors, hermetic)


def run_served(points, daemon) -> Pass:
    """The whole grid through one client connection, closed loop."""
    from repro.errors import ReproError
    from repro.sim.runner import SweepRunner

    runner = SweepRunner(scheduler=daemon.client)
    finished: list[int] = []
    appended = daemon.journal.appended
    start = clock()
    try:
        outcomes = runner.run(
            [point.spec for point in points], verify=True,
            progress=lambda done, total, index, cached: finished.append(index),
        )
        errors = []
    except ReproError as error:
        # The sweep stops at the first failed or lost point; every point
        # without a finished outcome counts as failed.
        outcomes = [None] * len(points)
        errors = [f"{len(points) - len(finished)} points unfinished: {error}"]
    wall = clock() - start
    # The pass is scaled by its slices' mean speed, from the workers'
    # timings of the reference around every slice, or by timings in the
    # parent when there are none (a traced run, or no slice ran).
    samples = daemon.slice_samples() or [(reference(), wall, reference())]
    speed = scaled(samples) / sum(seconds for _, seconds, _ in samples)
    stats = runner.stats
    hermetic = (stats.cache_hits == 0 and stats.coalesced == 0
                and stats.executed == len(points))
    return Pass(wall, wall * speed, outcomes, errors, hermetic,
                daemon.journal.appended - appended)


def run_pass(workload, points, daemon, recorder=None) -> Pass:
    if workload == "fig3_served":
        return run_served(points, daemon)
    return run_in_process(points, recorder)


# -- the tier probe ----------------------------------------------------------
def tier_probe(spec) -> dict:
    """Mean host seconds of one point under the default tier and under
    ``block``, two runs each."""
    from repro.sim.experiment import run_experiment

    times: dict[str, list[float]] = {"default": [], "block": []}
    default = os.environ.get("REPRO_EXEC_TIER")
    try:
        # Alternated, so drift in host speed falls on both tiers.
        for name, tier in (("default", default), ("block", "block")) * 2:
            if tier is None:
                os.environ.pop("REPRO_EXEC_TIER", None)
            else:
                os.environ["REPRO_EXEC_TIER"] = tier
            start = clock()
            run_experiment(spec, verify=True)
            times[name].append(clock() - start)
    finally:
        if default is None:
            os.environ.pop("REPRO_EXEC_TIER", None)
        else:
            os.environ["REPRO_EXEC_TIER"] = default
    return {name: statistics.mean(runs) for name, runs in times.items()}


# -- reporting ---------------------------------------------------------------
def peak_rss_mb() -> float:
    """Largest max RSS of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def commit_id() -> str | None:
    """HEAD of the checkout's git directory, read without running git
    (so nothing outside the checkout is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the simulator sources: identifies the code measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    from repro.config import MachineConfig
    from repro.sim.scaling import DEFAULT_SCALE

    return {
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "exec_tier": MachineConfig().exec_tier,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "scale": DEFAULT_SCALE,
        "items_divisor": pts.ITEMS_DIVISOR,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_passes(workload, points, passes) -> dict[str, bool]:
    """Verification, hermeticity, exact repeats and shape claims."""
    specs = [point.spec for point in points]
    complete = all(p.succeeded == len(points) for p in passes)
    checks = {
        "all_points_verified": complete,
        "hermetic": all(p.hermetic for p in passes),
    }
    if complete:
        first = [outcome_bytes(o) for o in passes[0].outcomes]
        checks["outcomes_repeat"] = all(
            [outcome_bytes(o) for o in p.outcomes] == first
            for p in passes[1:]
        )
        checks.update(shape_checks(workload, specs, passes[0].outcomes))
    return checks


def point_table(points, outcomes) -> list[dict]:
    from checks import normalised

    specs = [point.spec for point in points]
    if any(outcome is None for outcome in outcomes):
        return [{"label": point.label} for point in points]
    return [
        {"label": point.label, "makespan": outcome.makespan,
         "normalised": None if norm is None else round(norm, 4)}
        for point, outcome, norm in zip(
            points, outcomes, normalised(specs, outcomes)
        )
    ]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run ----------------------------------------------------
def untraced_run(args, run_dir, setup) -> tuple:
    setup_walls, setup_scaled, setup_parts = setup
    points, _, daemon = set_up(args.workload, args.seed, run_dir, True)
    passes: list[Pass] = []
    try:
        start = clock()
        # Run the number of passes that best fills --seconds: stop once
        # another pass would end more than half a pass past it.
        while len(passes) < MIN_PASSES or (
            (clock() - start) * (1 + 0.5 / len(passes)) <= args.seconds
        ):
            passes.append(run_pass(args.workload, points, daemon))
    finally:
        if daemon is not None:
            daemon.close()
    walls = [p.wall_s for p in passes]
    scaled_walls = [p.scaled_s for p in passes]
    attempted = len(points) * len(passes)
    succeeded = sum(p.succeeded for p in passes)
    checks = check_passes(args.workload, points, passes)
    sim_cycles = sum(
        outcome.makespan for outcome in passes[0].outcomes
        if outcome is not None
    )
    metrics = {
        "setup_s": metric(statistics.median(setup_scaled), "s"),
        "wall_s": metric(statistics.median(scaled_walls), "s"),
        "sim_cycles": metric(sim_cycles, "cycles"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "verified_frac": metric(succeeded / attempted, "fraction"),
    }
    detail = {
        "setup_s": distribution(setup_scaled),
        "raw_setup_s": distribution(setup_walls),
        **{f"setup.{name}": distribution(values)
           for name, values in setup_parts.items()},
        "wall_s": distribution(scaled_walls),
        "raw_wall_s": distribution(walls),
        "pass_wall_s": scaled_walls,
        "raw_pass_wall_s": walls,
        "failed_frac": failed_frac(attempted, succeeded),
        "journal_appends": [p.journal_appends for p in passes],
        "errors": [e for p in passes for e in p.errors],
        "points": point_table(points, passes[0].outcomes),
    }
    return metrics, checks, attempted, succeeded, detail


def traced_run(args, run_dir, setup) -> tuple:
    setup_parts = setup[-1]
    from layers import SpanRecorder, instrument, layer_metrics

    served = args.workload == "fig3_served"

    points = pts.points(args.workload, args.seed)

    def plain_pass(name: str) -> Pass:
        _, _, daemon = set_up(args.workload, args.seed, run_dir / name)
        try:
            return run_pass(args.workload, points, daemon)
        finally:
            if daemon is not None:
                daemon.close()

    before = plain_pass("before")
    probe = tier_probe(pts.probe(args.workload, args.seed))

    spool = run_dir / "spool"
    spool.mkdir()
    recorder = SpanRecorder(spool)
    restore = instrument(recorder)
    daemon = None
    try:
        if served:
            from served import EmbeddedDaemon

            daemon = EmbeddedDaemon(run_dir / "traced")
            # Drop the set-up job's record: only the pass is attributed.
            recorder.collect()
            recorder.clear()
        traced = run_pass(args.workload, points, daemon, recorder)
    finally:
        if daemon is not None:
            daemon.close()
        restore()
    recorder.collect()
    # An untraced pass on each side of the traced one, so that drift in
    # host speed cancels out of the tracing overhead.
    after = plain_pass("after")

    passes = [before, traced, after]
    attempted = len(points) * len(passes)
    succeeded = sum(p.succeeded for p in passes)
    checks = check_passes(args.workload, points, passes)
    untraced_s = (before.wall_s + after.wall_s) / 2
    metrics, breakdown = layer_metrics(
        recorder, traced.outcomes, traced.wall_s,
        pts.SERVE_WORKERS if served else 1,
        build_s=statistics.median(setup_parts["build_s"]),
        default_over_block=probe["default"] / probe["block"],
        overhead_s=traced.wall_s - untraced_s,
        journal_appends=traced.journal_appends,
    )
    dump = OUT / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
    dump.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(dump, "wt", encoding="utf-8") as handle:
        json.dump({"fields": ["id", "name", "start", "end", "parent",
                              "trace"], "spans": recorder.spans,
                   "events": recorder.events}, handle)
    detail = {
        "untraced_wall_s": [before.wall_s, after.wall_s],
        "traced_wall_s": traced.wall_s,
        "probe_s": probe,
        **breakdown,
        "failed_frac": failed_frac(attempted, succeeded),
        "errors": [e for p in passes for e in p.errors],
        "spans": len(recorder.spans),
        "span_dump": str(dump.relative_to(ROOT)),
    }
    return metrics, checks, attempted, succeeded, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=pts.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    # Hermetic: no shared result cache, no user's daemon socket.
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["REPRO_SERVE_SOCKET"] = str(run_dir / "no-daemon.sock")
    try:
        if args.setup_only:
            _, timings, daemon = set_up(args.workload, args.seed, run_dir)
            if daemon is not None:
                daemon.close()
            print(json.dumps(timings))
            return 0
        run = traced_run if args.trace else untraced_run
        metrics, checks, attempted, succeeded, detail = run(
            args, run_dir, measure_setup(args)
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": attempted - succeeded,
        "metrics": metrics,
    }
    detail = {"provenance": provenance(args), "checks": checks,
              **detail, "result": result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
