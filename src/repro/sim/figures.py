"""Regeneration of the paper's figures and headline comparisons.

Each function sweeps the same axes as the corresponding figure in §5.1
and returns a :class:`~repro.sim.series.FigureData`.  Absolute cycle
counts differ from the paper (scaled platform, synthetic data); the
*shapes* — where contention knees fall, which policy wins, how quantum
size matters — are the reproduction targets recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Callable

from ..apps.workloads import WorkloadVariant
from ..errors import ExperimentError
from ..prefetch import PrefetchPlan
from ..synth.plan import SynthesisPlan
from .experiment import ExperimentSpec
from .runner import SweepRunner
from .scaling import DEFAULT_SCALE
from .series import FigureData, Series

#: Paper legend naming.
_POLICY_LABEL = {"round_robin": "Round Robin", "random": "Random",
                 "lru": "LRU", "second_chance": "Second Chance"}


def _label(workload: str, policy_text: str, quantum_ms: float) -> str:
    quantum = f"{quantum_ms:g}ms"
    return f"{workload.capitalize()}, {policy_text}, {quantum}"


ProgressFn = Callable[[str, int, int], None]

_CYCLES = "Completion time in clock cycles"


def _run(
    labelled: list[tuple[str, ExperimentSpec]],
    verify: bool,
    progress: ProgressFn | None,
    runner: SweepRunner | None,
) -> list:
    """Run labelled specs in order, returning their outcomes.

    ``runner`` defaults to a serial in-process one; its index-based
    progress is bridged to the label-based :data:`ProgressFn` the CLI
    renders, flagging cache hits.
    """
    on_point = None
    if progress is not None:
        def on_point(done: int, total: int, index: int, cached: bool) -> None:
            mark = " [cache]" if cached else ""
            progress(labelled[index][0] + mark, done, total)

    runner = runner if runner is not None else SweepRunner()
    return runner.run(
        [spec for _, spec in labelled], verify=verify, progress=on_point
    )


#: One line of a grid sweep: (legend text, quantum in ms, the
#: ExperimentSpec fields that distinguish it).
_Line = tuple[str, float, dict]


def _grid_sweep(
    name: str,
    title: str,
    workloads: Sequence[str],
    lines: Sequence[_Line],
    instances: Iterable[int],
    scale: float,
    seed: int | None,
    verify: bool,
    progress: ProgressFn | None,
    runner: SweepRunner | None,
) -> FigureData:
    """Completion cycles over concurrent instances for every
    workload × line, one labelled series each, in that order."""
    figure = FigureData(
        name=name,
        title=title,
        xlabel="No. concurrent process instances",
        ylabel=_CYCLES,
    )
    specs = [
        (
            _label(workload, text, quantum_ms),
            ExperimentSpec(
                workload=workload,
                instances=n,
                quantum_ms=quantum_ms,
                scale=scale,
                seed=seed,
                **fields,
            ),
        )
        for workload in workloads
        for text, quantum_ms, fields in lines
        for n in instances
    ]
    by_label: dict[str, Series] = {}
    for (label, spec), outcome in zip(
        specs, _run(specs, verify, progress, runner)
    ):
        series = by_label.get(label)
        if series is None:
            series = by_label[label] = Series(label=label)
            figure.series.append(series)
        series.add(
            spec.instances,
            outcome.makespan,
            loads=outcome.cis["loads"],
            evictions=outcome.cis["evictions"],
            mapping_faults=outcome.cis["mapping_faults"],
            soft_deferrals=outcome.cis["soft_deferrals"],
            context_switches=outcome.kernel_stats.context_switches,
        )
    return figure


def figure2(
    scale: float = DEFAULT_SCALE,
    instances: Iterable[int] = range(1, 9),
    workloads: Sequence[str] = ("echo", "alpha", "twofish"),
    quanta: Sequence[float] = (10.0, 1.0),
    policies: Sequence[str] = ("round_robin", "random"),
    seed: int | None = None,
    verify: bool = False,
    progress: ProgressFn | None = None,
    runner: SweepRunner | None = None,
) -> FigureData:
    """Figure 2 — the basic scheduling (circuit switching) test.

    Every run swaps circuits under contention (no software dispatch);
    the axes are exactly the paper's: 1-8 concurrent instances of each
    workload under two replacement policies and two quanta.
    """
    lines = [
        (_POLICY_LABEL[policy], quantum_ms, {"policy": policy})
        for policy in policies
        for quantum_ms in quanta
    ]
    return _grid_sweep(
        "figure2", "Basic Scheduling Test", workloads, lines, instances,
        scale, seed, verify, progress, runner,
    )


def figure3(
    scale: float = DEFAULT_SCALE,
    instances: Iterable[int] = range(1, 9),
    workloads: Sequence[str] = ("echo", "alpha"),
    quanta: Sequence[float] = (10.0, 1.0),
    seed: int | None = None,
    verify: bool = False,
    progress: ProgressFn | None = None,
    runner: SweepRunner | None = None,
) -> FigureData:
    """Figure 3 — the software dispatch test.

    Circuit-switching (round robin) runs against runs where the CIS
    defers to the registered software alternative when the array is
    full.  The paper plots echo and alpha (twofish tracks alpha).
    """
    lines = [
        ("Soft" if soft else "Round Robin", quantum_ms, {"soft": soft})
        for quantum_ms in quanta
        for soft in (False, True)
    ]
    return _grid_sweep(
        "figure3", "Software Dispatch Test", workloads, lines, instances,
        scale, seed, verify, progress, runner,
    )


def speedup_table(
    scale: float = DEFAULT_SCALE,
    workloads: Sequence[str] = ("echo", "alpha", "twofish"),
    seed: int | None = None,
    verify: bool = False,
    progress: ProgressFn | None = None,
    runner: SweepRunner | None = None,
) -> FigureData:
    """§5.1.1's claim: accelerated runs beat unaccelerated by ~10x.

    A "figure" with two one-point series per workload (accelerated and
    software completion cycles for a single instance).
    """
    figure = FigureData(
        name="speedup",
        title="Accelerated vs. unaccelerated (single instance)",
        xlabel="variant (1 = accelerated, 2 = software)",
        ylabel=_CYCLES,
    )
    variants = (WorkloadVariant.ACCELERATED, WorkloadVariant.SOFTWARE)
    specs = [
        (
            f"{workload_name} ({variant.value})",
            ExperimentSpec(
                workload=workload_name,
                instances=1,
                variant=variant,
                register_soft=variant is WorkloadVariant.ACCELERATED,
                scale=scale,
                seed=seed,
            ),
        )
        for workload_name in workloads
        for variant in variants
    ]
    outcomes = _run(specs, verify, progress, runner)
    for workload_name, fast, slow in zip(
        workloads, outcomes[::2], outcomes[1::2]
    ):
        series = Series(label=workload_name)
        series.add(1, fast.makespan, variant=variants[0].value)
        series.add(2, slow.makespan, variant=variants[1].value,
                   speedup=round(slow.makespan / fast.makespan, 2))
        figure.series.append(series)
    return figure


#: The feature ablations :func:`ablation_sweep` runs, keyed by the
#: :class:`ExperimentSpec` field that toggles them: figure name, title,
#: legend text for the "on" series, default workloads, default plan.
_ABLATIONS: dict[str, tuple[str, str, str, tuple[str, ...], type]] = {
    "synthesis": (
        "synthesis", "Profiler-Driven Synthesis Test", "Synthesis",
        ("hash",), SynthesisPlan,
    ),
    "prefetch": (
        "prefetch", "Speculative Configuration Prefetch Test", "Prefetch",
        ("phases", "burst"), PrefetchPlan,
    ),
}


def ablation_sweep(
    feature: str,
    scale: float = DEFAULT_SCALE,
    instances: Iterable[int] = range(1, 9),
    workloads: Sequence[str] | None = None,
    quanta: Sequence[float] = (10.0, 1.0),
    plan: SynthesisPlan | PrefetchPlan | None = None,
    seed: int | None = None,
    verify: bool = False,
    progress: ProgressFn | None = None,
    runner: SweepRunner | None = None,
) -> FigureData:
    """A fig2-style contention sweep with one feature off vs. on.

    ``feature`` names the :class:`ExperimentSpec` field to toggle,
    ``"synthesis"`` or ``"prefetch"``.  The baseline series run the
    images as shipped; the other series run the same images with
    ``plan`` (default: the feature's default plan), so the only
    difference is the feature.  The axes match Figure 2: completion
    cycles over concurrent instances, round robin, two quanta.

    * ``synthesis`` — the §6 "final system": the profiler-driven circuit
      synthesiser on the circuit-free hash workload, so the only
      difference is the mined custom instruction.
    * ``prefetch`` — speculative configuration prefetch on the
      phase-changing and bursty workloads, the circuit-switching
      patterns the transition predictor was built for.
    """
    if feature not in _ABLATIONS:
        raise ExperimentError(
            f"unknown ablation {feature!r}; choose from {tuple(_ABLATIONS)}"
        )
    name, title, mode_text, default_workloads, plan_type = _ABLATIONS[feature]
    if workloads is None:
        workloads = default_workloads
    plan = plan if plan is not None else plan_type()
    lines = [
        (text, quantum_ms, {feature: value})
        for text, value in (("Baseline", None), (mode_text, plan))
        for quantum_ms in quanta
    ]
    return _grid_sweep(
        name, title, workloads, lines, instances, scale, seed, verify,
        progress, runner,
    )


def contention_knees(figure: FigureData) -> dict[str, int | None]:
    """Extract the contention knee per series (paper: 2 for echo, 4 for
    the single-circuit workloads)."""
    return {series.label: series.knee() for series in figure.series}
