"""Correctness checks on the benchmark's own outcomes.

The paper-shape claims of ROADMAP.md that a workload's points cover,
evaluated on normalised completion: makespan / (n x the matching
single-instance makespan), 1.0 being perfectly linear.
"""

from __future__ import annotations

import json

from points import KNEE

#: Normalised completion stays below this at or before the knee, and is
#: above it (super-linear) past the knee at 1 ms.
LINEAR_CEILING = 1.2

#: Random replacement may exceed round robin by at most this factor.
RANDOM_SLACK = 1.05


def outcome_bytes(outcome) -> str:
    from repro.sim.experiment import outcome_to_dict

    return json.dumps(outcome_to_dict(outcome), sort_keys=True)


def _point_key(spec):
    """A point's identity apart from its replacement policy."""
    return (
        spec.workload, spec.instances, spec.quantum_ms, spec.soft,
        spec.variant, spec.items,
    )


def normalised(specs, outcomes) -> list[float | None]:
    """Normalised completion of every point that has a single-instance
    anchor with the same workload, quantum, variant, items and soft flag
    (None for the others).  The anchor's policy does not matter: one
    instance never evicts."""
    def anchor_key(spec):
        return (spec.workload, spec.quantum_ms, spec.variant, spec.items,
                spec.soft)

    anchors = {
        anchor_key(spec): outcome.makespan
        for spec, outcome in zip(specs, outcomes)
        if spec.instances == 1
    }
    values = []
    for spec, outcome in zip(specs, outcomes):
        base = anchors.get(anchor_key(spec))
        values.append(
            None if base is None
            else outcome.makespan / (spec.instances * base)
        )
    return values


def shape_checks(workload: str, specs, outcomes) -> dict[str, bool]:
    """Named pass/fail results of the shape claims the points cover."""
    norms = normalised(specs, outcomes)
    checks: dict[str, bool] = {}
    if workload == "pre_knee":
        checks["linear_before_knee"] = all(
            norm < LINEAR_CEILING
            for spec, norm in zip(specs, norms)
            if norm is not None and spec.instances <= KNEE[spec.workload]
        )
    if workload == "post_knee":
        contended = [
            (spec, outcome, norm)
            for spec, outcome, norm in zip(specs, outcomes, norms)
            if spec.instances > KNEE[spec.workload]
        ]
        checks["superlinear_past_knee"] = bool(contended) and all(
            norm is not None and norm > LINEAR_CEILING
            for _, _, norm in contended
        )
        round_robin = {
            _point_key(spec): outcome.makespan
            for spec, outcome, _ in contended
            if spec.policy == "round_robin"
        }
        pairs = [
            (outcome.makespan, round_robin.get(_point_key(spec)))
            for spec, outcome, _ in contended
            if spec.policy == "random"
        ]
        checks["random_le_round_robin"] = bool(pairs) and all(
            rr is not None and random <= RANDOM_SLACK * rr
            for random, rr in pairs
        )
    return checks
