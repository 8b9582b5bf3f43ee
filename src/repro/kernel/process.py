"""Processes and their kernel bookkeeping (PCBs).

Each process owns a private address space, an ARM register context, a
saved coprocessor context (FPL register file + operand registers), and a
table of circuit registrations made through ``SWI #1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.circuit import CircuitInstance
from ..cpu.core import CPU, CPUState
from ..cpu.isa import code_address
from ..cpu.memory import Memory
from ..cpu.program import Program
from ..errors import KernelError
from ..trace.counters import ProcessStats  # re-export: the derived view

__all__ = [
    "Process",
    "ProcessState",
    "ProcessStats",
    "Registration",
    "create_process",
]


class ProcessState(enum.Enum):
    """Lifecycle states of a POrSCHE process."""

    READY = "ready"
    RUNNING = "running"
    EXITED = "exited"
    KILLED = "killed"


@dataclass
class Registration:
    """One (CID → custom instruction) registration for a process.

    ``pfu_index`` is the kernel's record of where the instance currently
    resides: ``None`` means swapped out (state held in ``instance``).
    ``soft_address`` is the optional software alternative entry point.
    """

    cid: int
    instance: CircuitInstance
    soft_address: int | None = None
    pfu_index: int | None = None
    #: Index into the program's circuit table, kept so a checkpoint can
    #: rebuild the instance from its spec instead of serialising it.
    table_index: int | None = None
    #: Statistics.
    loads: int = 0
    evictions: int = 0
    soft_mapped: bool = False
    #: Overlap cycles banked by a completed-but-unused prefetch: set when
    #: the transfer engine installs this circuit speculatively, cleared
    #: (and credited as a hit, or written off as wasted) at first use or
    #: eviction.  Zero whenever prefetching is off.
    prefetched: int = 0
    #: For kernel-synthesised circuits (no circuit-table entry): the
    #: mined window descriptor, enough for a checkpoint to re-derive the
    #: spec and program rewrite deterministically (see
    #: :func:`repro.synth.adopt.find_adoption`).
    synth: dict | None = None

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        snap = {
            "cid": self.cid,
            "soft_address": self.soft_address,
            "pfu_index": self.pfu_index,
            "table_index": self.table_index,
            "loads": self.loads,
            "evictions": self.evictions,
            "soft_mapped": self.soft_mapped,
            "instance": {
                "words": self.instance.capture_words(),
                "completions": self.instance.completions,
            },
        }
        if self.synth is not None:
            # Absent when unused: synthesis-free checkpoints keep their
            # pre-synthesis byte layout.
            snap["synth"] = dict(self.synth)
        if self.prefetched:
            # Same discipline: prefetch-free checkpoints are byte-stable.
            snap["prefetched"] = self.prefetched
        return snap


@dataclass
class Process:
    """A POrSCHE process: program image + execution contexts + PCB."""

    pid: int
    program: Program
    memory: Memory
    cpu_state: CPUState
    cpu: CPU
    coproc_context: dict
    state: ProcessState = ProcessState.READY
    registrations: dict[int, Registration] = field(default_factory=dict)
    #: Values emitted through the debug-output syscall.
    output: list[int] = field(default_factory=list)
    #: Simulated clock value when the process finished (exit or kill).
    completion_cycle: int | None = None
    exit_status: int | None = None
    kill_reason: str | None = None
    #: The trace counter sink's per-PID view; the kernel re-points this at
    #: spawn so event-derived attribution lands here.
    stats: ProcessStats = field(default_factory=ProcessStats)
    #: The pristine image before any synthesiser rewrite (``None`` until
    #: a circuit is adopted); checkpoints re-derive adoptions from it.
    base_program: Program | None = None

    @property
    def alive(self) -> bool:
        return self.state in (ProcessState.READY, ProcessState.RUNNING)

    def adopt_program(self, rewritten: Program) -> None:
        """Swap in a synthesiser-rewritten image, keeping the original."""
        if self.base_program is None:
            self.base_program = self.program
        self.program = rewritten
        self.cpu.retarget(rewritten.image.instructions)

    def registration(self, cid: int) -> Registration | None:
        return self.registrations.get(cid)

    def register(self, registration: Registration) -> None:
        if registration.cid in self.registrations:
            raise KernelError(
                f"pid {self.pid}: CID {registration.cid} already registered"
            )
        self.registrations[registration.cid] = registration

    def read_result(self, name: str) -> bytes:
        """Read a named result region from the process's memory."""
        return self.program.read_result(self.memory, name)

    def result_matches(self, name: str, expected: bytes) -> bool:
        """Bulk-compare a named result region against reference bytes."""
        return self.program.result_matches(self.memory, name, expected)

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        """Everything but the program image, which is rebuilt from spec.

        Registrations are stored canonically (``reg.cid`` keys the entry);
        alias CIDs map to the canonical CID so restore can re-share the
        same :class:`Registration` object.
        """
        canonical = []
        aliases = {}
        for cid, reg in sorted(self.registrations.items()):
            if cid == reg.cid:
                canonical.append(reg.snapshot())
            else:
                aliases[str(cid)] = reg.cid
        return {
            "pid": self.pid,
            "state": self.state.value,
            "cpu": self.cpu.snapshot(),
            "coproc_context": {
                "regfile": list(self.coproc_context["regfile"]),
                "operands": list(self.coproc_context["operands"]),
            },
            "registrations": canonical,
            "aliases": aliases,
            "output": list(self.output),
            "completion_cycle": self.completion_cycle,
            "exit_status": self.exit_status,
            "kill_reason": self.kill_reason,
        }

    def restore(self, state: dict, config) -> None:
        """Reinstate PCB state; circuit instances are rebuilt from the
        program's circuit table and their captured CLB words."""
        if state["pid"] != self.pid:
            raise KernelError(
                f"snapshot for pid {state['pid']} restored into "
                f"pid {self.pid}"
            )
        self.state = ProcessState(state["state"])
        self.cpu.restore(state["cpu"])
        self.coproc_context = {
            "regfile": list(state["coproc_context"]["regfile"]),
            "operands": tuple(state["coproc_context"]["operands"][:3])
            + (bool(state["coproc_context"]["operands"][3]),),
        }
        self.registrations = {}
        synth_program: Program | None = None
        for entry in state["registrations"]:
            synth = entry.get("synth")
            if synth is not None:
                # A kernel-synthesised circuit: re-derive the spec and
                # the rewritten image from the pristine program — both
                # are pure functions of (program, config).
                from ..synth.adopt import find_adoption

                adoption, rewritten = find_adoption(
                    self.base_program or self.program, config,
                    cid=entry["cid"],
                    start=synth["start"], end=synth["end"],
                )
                spec = adoption.spec
                synth_program = rewritten
            elif entry["table_index"] is None:
                raise KernelError(
                    f"pid {self.pid}: registration for CID {entry['cid']} "
                    "has no circuit-table index; cannot rebuild instance"
                )
            else:
                spec = self.program.circuit(entry["table_index"])
            instance = spec.instantiate(
                pid=self.pid, config=config, seed=config.seed
            )
            instance.restore_words(entry["instance"]["words"])
            instance.completions = entry["instance"]["completions"]
            registration = Registration(
                cid=entry["cid"],
                instance=instance,
                soft_address=entry["soft_address"],
                pfu_index=entry["pfu_index"],
                table_index=entry["table_index"],
                loads=entry["loads"],
                evictions=entry["evictions"],
                soft_mapped=entry["soft_mapped"],
                prefetched=entry.get("prefetched", 0),
                synth=dict(synth) if synth is not None else None,
            )
            self.registrations[registration.cid] = registration
        if synth_program is not None:
            self.adopt_program(synth_program)
        elif self.base_program is not None:
            # Snapshot predates the adoption: revert to the pristine
            # image so the synthesiser can re-adopt on its own schedule.
            self.program = self.base_program
            self.cpu.retarget(self.base_program.image.instructions)
            self.base_program = None
        for cid, target in state["aliases"].items():
            self.registrations[int(cid)] = self.registrations[target]
        self.output = list(state["output"])
        self.completion_cycle = state["completion_cycle"]
        self.exit_status = state["exit_status"]
        self.kill_reason = state["kill_reason"]


def create_process(pid: int, program: Program, config, coprocessor) -> Process:
    """Build a ready-to-run process from a program image."""
    memory = program.build_memory()
    cpu_state = CPUState(memory=memory)
    cpu_state.pc = code_address(program.image.entry_index)
    cpu = CPU(
        config=config,
        program=program.image.instructions,
        state=cpu_state,
        coprocessor=coprocessor,
        pid=pid,
    )
    return Process(
        pid=pid,
        program=program,
        memory=memory,
        cpu_state=cpu_state,
        cpu=cpu,
        coproc_context=coprocessor.fresh_context(),
    )
