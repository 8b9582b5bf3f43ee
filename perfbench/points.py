"""The benchmark's three workloads as lists of experiment points.

Every point is an :class:`~repro.sim.experiment.ExperimentSpec` at
``DEFAULT_SCALE`` with the benchmark seed as ``ExperimentSpec.seed``;
fault injection, prefetch and synthesis stay off.  README.md says why
each workload exists and which layer it loads.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("pre_knee", "post_knee", "fig3_served")

#: Where Figure 2's contention knee falls: the last instance count at
#: which every circuit still has a PFU of its own.
KNEE = {"alpha": 4, "twofish": 4, "echo": 2}

#: Every point runs 1/ITEMS_DIVISOR of its workload's default
#: per-instance item count.  Scale stays at DEFAULT_SCALE, so a quantum
#: holds exactly the interpreter work it holds in ``repro fig2`` and every
#: layer keeps its share of a quantum; only the number of quanta shrinks.
#: At full length one contended 1 ms point takes 14-39 s under the
#: default tier and a pre-knee pass 12 s, so a run would hold two passes.
ITEMS_DIVISOR = 8

#: Slice size of the embedded daemon: ``repro serve``'s default.
SERVE_SLICE_QUANTA = 256
SERVE_WORKERS = 2


@dataclass(frozen=True)
class Point:
    label: str
    spec: object  # ExperimentSpec (imported lazily with the simulator)


def _spec(workload: str, instances: int, seed: int, **fields):
    from repro.sim.experiment import ExperimentSpec

    return ExperimentSpec(
        workload=workload, instances=instances, seed=seed, **fields
    )


def short_items(workload: str) -> int:
    from repro.apps.registry import get_workload
    from repro.sim.scaling import DEFAULT_SCALE

    return get_workload(workload).items_for_scale(DEFAULT_SCALE) // ITEMS_DIVISOR


def _label(spec) -> str:
    policy = "soft" if spec.soft else spec.policy
    variant = "" if spec.variant.value == "accelerated" else "/sw"
    return (
        f"{spec.workload}{variant} n={spec.instances} "
        f"{spec.quantum_ms:g}ms {policy}"
    )


def points(workload: str, seed: int) -> list[Point]:
    """The point list of one benchmark workload, in run order."""
    from repro.apps.workloads import WorkloadVariant

    specs = []
    if workload == "pre_knee":
        for name in ("alpha", "twofish", "echo"):
            items = short_items(name)
            for quantum_ms in (10.0, 1.0):
                for n in range(1, KNEE[name] + 1):
                    specs.append(_spec(
                        name, n, seed, quantum_ms=quantum_ms, items=items,
                    ))
            # §5.1.1 speedup pair: the accelerated image is the n=1
            # 10 ms point above (``speedup_table`` builds the same spec
            # at full length); this is its software-only twin.
            specs.append(_spec(
                name, 1, seed, variant=WorkloadVariant.SOFTWARE,
                register_soft=False, items=items,
            ))
    elif workload == "post_knee":
        for name, policies in (
            ("alpha", ("round_robin", "random")),
            ("twofish", ("round_robin",)),
            ("echo", ("round_robin", "random")),
        ):
            items = short_items(name)
            # The n=1 anchor normalises the contended points' completion.
            specs.append(_spec(name, 1, seed, quantum_ms=1.0, items=items))
            for policy in policies:
                specs.append(_spec(
                    name, KNEE[name] + 1, seed, quantum_ms=1.0,
                    policy=policy, items=items,
                ))
    elif workload == "fig3_served":
        for name, counts in (("echo", (2, 4)), ("alpha", (4, 6))):
            items = short_items(name)
            for soft in (False, True):
                for n in counts:
                    specs.append(_spec(
                        name, n, seed, quantum_ms=1.0, soft=soft, items=items,
                    ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Point(_label(spec), spec) for spec in specs]


def probe(workload: str, seed: int):
    """The point timed under the default tier and under ``block`` for
    ``cpu.default_over_block``: each workload's costliest point."""
    if workload == "pre_knee":
        return _spec(
            "twofish", 4, seed, quantum_ms=1.0, items=short_items("twofish")
        )
    if workload == "post_knee":
        return _spec(
            "twofish", 5, seed, quantum_ms=1.0, items=short_items("twofish")
        )
    return _spec("echo", 4, seed, quantum_ms=1.0, items=short_items("echo"))
