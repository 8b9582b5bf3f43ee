"""The compiled execution tiers: partitioning, three-way tier
equivalence, CDP dispatch under mapping changes, trace compilation,
mapping guards and the shared code cache, and cross-tier checkpoints.

The contract under test is strong: ``jit``, ``block`` and ``step`` are
*bit-identical* — same cycles, same retired counts, same
events, same trace counters, same final memory — on every program and
every burst schedule, including under an active fault plan.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adder_spec
from repro.config import EXEC_TIERS, MachineConfig
from repro.core.circuit import CircuitSpec, FunctionBehaviour
from repro.core.coprocessor import ProteusCoprocessor
from repro.core.dispatch import DispatchKind
from repro.core.tlb import IDTuple
from repro.cpu.assembler import assemble
from repro.cpu import traces
from repro.cpu.blocks import block_leaders, fusible_runs
from repro.cpu.core import CPU, CPUState
from repro.cpu.isa import CODE_BASE, Instruction, Op, code_address
from repro.cpu.memory import Memory
from repro.errors import ConfigurationError, MemoryFault
from repro.faults import FaultPlan
from repro.machine import Machine
from repro.sim.experiment import (
    ExperimentSpec,
    outcome_to_dict,
    run_experiment,
)

CONFIG = MachineConfig(cycles_per_ms=1000)
SCALE = 1 / 8000

#: Every tier that must match the ``step`` reference bit-for-bit.
COMPILED_TIERS = tuple(t for t in EXEC_TIERS if t != "step")


def make_cpu(
    source: str,
    tier: str,
    with_circuit: bool = False,
    software_label: str | None = None,
    pid: int = 1,
    **config_fields,
):
    config = MachineConfig(cycles_per_ms=1000, exec_tier=tier, **config_fields)
    program = assemble(source)
    memory = Memory(size=16 * 1024)
    memory.write_block(program.data_base, program.data)
    state = CPUState(memory=memory)
    state.pc = code_address(program.entry_index)
    coprocessor = ProteusCoprocessor(config=config)
    if with_circuit:
        instance = adder_spec(latency=4).instantiate(pid, config)
        coprocessor.load_circuit(0, instance)
        coprocessor.dispatch.map_hardware(IDTuple(pid, 1), 0)
    if software_label is not None:
        coprocessor.dispatch.map_software(
            IDTuple(pid, 1), program.label_address(software_label)
        )
    return CPU(
        config=config,
        program=program.instructions,
        state=state,
        coprocessor=coprocessor,
        pid=pid,
    )


def burst_log(cpu: CPU, budgets) -> list:
    log = []
    for budget in budgets:
        try:
            result = cpu.run(budget)
        except MemoryFault as fault:
            log.append(("MemoryFault", fault.address))
            break
        log.append(
            (result.cycles, result.instructions, type(result.event).__name__)
        )
        if result.event is not None and cpu.state.halted:
            break
    return log


def tier_state(cpu: CPU) -> dict:
    """Everything observable that the tiers must agree on."""
    dispatch = cpu.coprocessor.dispatch
    return {
        "regs": list(cpu.state.regs),
        "flags": cpu.state.flags.snapshot(),
        "halted": cpu.state.halted,
        "retired": cpu.state.instructions_retired,
        "memory": cpu.state.memory.read_block(0x1000, 512),
        "dispatch_counts": dict(dispatch.trace.counters.dispatch),
        "tlbs": dispatch.snapshot(),
    }


def run_tiers(source: str, budgets, **kwargs) -> None:
    """Run identical bursts on every tier and demand identical results."""
    results = {}
    for tier in EXEC_TIERS:
        cpu = make_cpu(source, tier, **kwargs)
        log = burst_log(cpu, budgets)
        results[tier] = (log, tier_state(cpu))
    reference = results["step"]
    for tier in COMPILED_TIERS:
        assert results[tier][0] == reference[0], tier
        assert results[tier][1] == reference[1], tier
    return results


FIBONACCI = """
.data
out: .space 64
.text
main:
    MOV r0, #0
    MOV r1, #1
    MOV r2, #out
    MOV r3, #12
loop:
    STR r0, [r2], #4
    ADD r4, r0, r1
    MOV r0, r1
    MOV r1, r4
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MOV r0, #0
    HALT
"""

MIXED = """
.data
buf: .word 5, -3, 100, 0x7FFF
.text
main:
    MOV r4, #buf
    LDR r0, [r4], #4
    LDR r1, [r4], #4
    ADD r2, r0, r1
    MUL r3, r2, r0
    LSR r5, r3, #1
    ASR r6, r1, #2
    ROR r7, r3, #5
    CMP r0, r1
    BGT big
    MOV r8, #0
    B done
big:
    MOV r8, #1
done:
    TST r8, #1
    CMN r0, r1
    STRB r8, [r4]
    LDRB r9, [r4]
    MOV r0, #0
    HALT
"""

CDP_LOOP = """
main:
    MOV r0, #1000
    MOV r1, #2345
    MCR f0, r0
    MCR f1, r1
    MOV r3, #8
loop:
    CDP #1, f2, f0, f1
    MRC r2, f2
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MOV r0, #0
    HALT
"""


# ---------------------------------------------------------------------------
# partitioning


def instr(op, rd=0, rn=0, rm=0, imm=0, uses_imm=True):
    return Instruction(op=op, rd=rd, rn=rn, rm=rm, imm=imm, uses_imm=uses_imm)


class TestPartitioning:
    def test_leaders_and_runs_for_fibonacci(self):
        program = assemble(FIBONACCI).instructions
        # Leaders: entry, the loop head (branch target of BNE), and the
        # instruction after the conditional branch.
        assert block_leaders(program) == {0, 4, 11}
        # Runs: the 4-MOV prologue and the 6-instruction loop body (the
        # BNE terminator at index 10 is excluded); the epilogue is a
        # lone MOV before HALT — too short to fuse.
        assert fusible_runs(program) == [(0, 4), (4, 10)]

    def test_terminators_split_runs(self):
        program = assemble(CDP_LOOP).instructions
        runs = fusible_runs(program)
        for start, end in runs:
            for index in range(start, end):
                assert program[index].op not in (
                    Op.CDP, Op.B, Op.BL, Op.BX, Op.SWI, Op.HALT,
                    Op.MCR, Op.MRC,
                )

    def test_pc_writes_are_never_fused(self):
        program = [
            instr(Op.MOV, rd=0, imm=1),
            instr(Op.MOV, rd=1, imm=2),
            instr(Op.MOV, rd=15, imm=0),  # translate-time raiser
            instr(Op.MOV, rd=2, imm=3),
            instr(Op.MOV, rd=3, imm=4),
            instr(Op.HALT),
        ]
        assert fusible_runs(program) == [(0, 2), (3, 5)]

    def test_short_runs_stay_unfused(self):
        program = [
            instr(Op.MOV, rd=0, imm=1),
            instr(Op.SWI, imm=0),
            instr(Op.MOV, rd=1, imm=2),
            instr(Op.HALT),
        ]
        assert fusible_runs(program) == []


# ---------------------------------------------------------------------------
# three-way equivalence


class TestTierEquivalence:
    @pytest.mark.parametrize("source", [FIBONACCI, MIXED], ids=["fib", "mixed"])
    def test_single_burst(self, source):
        run_tiers(source, [1 << 20])

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 7, 13, 29])
    def test_tiny_bursts_hit_budget_guard(self, budget):
        """Bursts smaller than a block's total fall back to stepping."""
        run_tiers(FIBONACCI, [budget] * 300)

    def test_cdp_loop_all_tiers(self):
        for budget in (2, 3, 5, 100, 1 << 20):
            run_tiers(CDP_LOOP, [budget] * 200, with_circuit=True)

    def test_software_dispatch_enters_block_middle(self):
        """A soft routine return (BX lr) lands after the CDP — and the
        CDP's special branch may enter code that sits inside a fused
        region's index range."""
        source = """
        main:
            MOV r0, #5
            MOV r1, #6
            MCR f0, r0
            MCR f1, r1
            CDP #1, f2, f0, f1
            MRC r2, f2
            MOV r0, #0
            HALT
        soft:
            LDO r0, #0
            LDO r1, #1
            MUL r0, r0, r1
            STO r0
            BX lr
        """
        for budget in (3, 7, 1 << 20):
            run_tiers(source, [budget] * 100, software_label="soft")

    def test_memory_fault_mid_block(self):
        """A fault in the middle of a fused run must leave the same pc,
        retired count and register file as the unfused tiers."""
        source = """
        .data
        buf: .space 16
        .text
        main:
            MOV r1, #buf
            MOV r2, #7
            ADD r3, r2, #1
            STR r2, [r1]
            STR r3, [r9]
            MOV r4, #9
            HALT
        """
        states = {}
        for tier in EXEC_TIERS:
            cpu = make_cpu(source, tier)
            with pytest.raises(MemoryFault):
                cpu.run(1 << 20)
            states[tier] = (cpu.state.pc, tier_state(cpu))
        for tier in COMPILED_TIERS:
            assert states[tier] == states["step"], tier
        # The fault left the pc on the faulting STR (index 4).
        assert states["step"][0] == CODE_BASE + 4 * 4
        assert states["step"][1]["retired"] == 4

    def test_post_increment_load_with_same_base_and_dest(self):
        """LDR r4, [r4], #4 — the increment must observe the loaded
        value, exactly as the per-instruction closures do."""
        source = """
        .data
        buf: .word 0x1010, 2, 3
        .text
        main:
            MOV r4, #buf
            MOV r5, #1
            LDR r4, [r4], #4
            ADD r5, r5, r4
            MOV r0, #0
            HALT
        """
        run_tiers(source, [1 << 20])


ALU_OPS = ["ADD", "SUB", "RSB", "AND", "ORR", "EOR", "BIC"]
SCRATCH = [0, 1, 2, 5, 6, 7, 8, 9]  # r3 = loop counter, r4 = buffer base


@st.composite
def looped_program(draw):
    """A random loop of fusible ops with stores/loads into a buffer."""
    lines = [
        f"MOV r{r}, #{draw(st.integers(-1000, 1000))}" for r in SCRATCH[:4]
    ]
    lines.append("MOV r4, #buf")
    lines.append(f"MOV r3, #{draw(st.integers(2, 5))}")
    lines.append("loop:")
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["alu", "mul", "cmp", "shift", "mem"]))
        rd = draw(st.sampled_from(SCRATCH))
        rn = draw(st.sampled_from(SCRATCH + [3, 4]))
        rm = draw(st.sampled_from(SCRATCH + [3, 4]))
        if kind == "alu":
            op = draw(st.sampled_from(ALU_OPS))
            if draw(st.booleans()):
                lines.append(
                    f"{op} r{rd}, r{rn}, #{draw(st.integers(-100, 100))}"
                )
            else:
                lines.append(f"{op} r{rd}, r{rn}, r{rm}")
        elif kind == "mul":
            lines.append(f"MUL r{rd}, r{rn}, r{rm}")
        elif kind == "cmp":
            op = draw(st.sampled_from(["CMP", "CMN", "TST"]))
            lines.append(f"{op} r{rn}, r{rm}")
        elif kind == "shift":
            op = draw(st.sampled_from(["LSL", "LSR", "ASR", "ROR"]))
            lines.append(f"{op} r{rd}, r{rn}, #{draw(st.integers(0, 40))}")
        else:
            offset = 4 * draw(st.integers(0, 7))
            if draw(st.booleans()):
                lines.append(f"STR r{rd}, [r4, #{offset}]")
            else:
                lines.append(f"LDR r{rd}, [r4, #{offset}]")
    lines.append("SUB r3, r3, #1")
    lines.append("CMP r3, #0")
    lines.append("BNE loop")
    lines.append("MOV r0, #0")
    lines.append("HALT")
    return ".data\nbuf: .space 64\n.text\nmain:\n" + "\n".join(lines)


class TestRandomPrograms:
    @given(source=looped_program(), burst=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_equivalence(self, source, burst):
        run_tiers(source, [burst] * 120)


# ---------------------------------------------------------------------------
# CDP dispatch through the TLBs


def subtractor_spec():
    """A second circuit whose result differs from the adder's and the
    soft routine's, so a CDP's result names the path that served it."""
    return CircuitSpec(
        name="subtractor",
        behaviour=FunctionBehaviour(
            fn=lambda a, b, state: (a - b) & 0xFFFFFFFF, fixed_latency=3
        ),
        clb_count=100,
    )


#: One mapping change between bursts: (action, argument).
DISPATCH_ACTIONS = st.one_of(
    st.tuples(st.just("map_hardware"), st.integers(0, 1)),
    st.tuples(st.just("map_software"), st.just(0)),
    st.tuples(st.just("unmap"), st.just(0)),
    st.tuples(st.just("unmap_pfu"), st.integers(0, 1)),
    st.tuples(st.just("restore"), st.integers(0, 15)),
    # Another process's tuple: pushes (1, 1) out of the 2-entry TLB.
    st.tuples(st.just("map_other"), st.integers(1, 3)),
)


def run_dispatch_schedule(tier: str, schedule) -> tuple[list, dict]:
    """Bursts of REMAP_LOOP with a mapping change before each one; the
    tuple (1, 1) may name the adder (PFU 0), the subtractor (PFU 1),
    the soft routine, or nothing."""
    cpu = make_cpu(REMAP_LOOP, tier, with_circuit=True, tlb_entries=2)
    cpu.coprocessor.load_circuit(1, subtractor_spec().instantiate(1, CONFIG))
    dispatch = cpu.coprocessor.dispatch
    soft_address = assemble(REMAP_LOOP).label_address("soft")
    snapshots = [dispatch.snapshot()]
    log = []
    for (action, argument), budget in schedule:
        if action == "map_hardware":
            dispatch.map_hardware(IDTuple(1, 1), argument)
        elif action == "map_software":
            dispatch.map_software(IDTuple(1, 1), soft_address)
        elif action == "unmap":
            dispatch.unmap(IDTuple(1, 1))
        elif action == "unmap_pfu":
            dispatch.unmap_pfu(argument)
        elif action == "restore":
            dispatch.restore(snapshots[argument % len(snapshots)])
        else:
            dispatch.map_hardware(IDTuple(2, argument), 0)
        snapshots.append(dispatch.snapshot())
        log += burst_log(cpu, [budget])
        if cpu.state.halted:
            break
    # Drain: the soft routine always resolves, so the loop finishes.
    dispatch.map_software(IDTuple(1, 1), soft_address)
    while not cpu.state.halted:
        log += burst_log(cpu, [1 << 20])
    return log, tier_state(cpu)


class TestDispatchMemoization:
    """Compiled CDP sites read the dispatch TLBs on every execution, so
    any mapping change or restore is seen at once, in every tier."""

    def test_steady_state_counts_every_resolution(self):
        """The trace counters record every resolution of a hot site."""
        for tier in COMPILED_TIERS:
            cpu = make_cpu(CDP_LOOP, tier, with_circuit=True)
            dispatch = cpu.coprocessor.dispatch
            while not cpu.state.halted:
                cpu.run(1 << 20)
            assert dispatch.trace.counters.dispatch["hit"] == 8, tier
            assert dispatch.resolutions[DispatchKind.HARDWARE] == 8, tier

    def test_remap_between_hardware_software_fault(self):
        """The acceptance scenario: the *same* CDP site is re-executed
        after its CID is remapped hardware → software → unmapped
        mid-run, and must observe each new mapping — a stale resolution
        would compute 7 + 5 where 7 * 5 is expected."""
        source = """
        main:
            MOV r0, #7
            MOV r1, #5
            MCR f0, r0
            MCR f1, r1
            MOV r3, #3
        loop:
            CDP #1, f2, f0, f1
            MRC r2, f2
            SWI #42
            SUB r3, r3, #1
            CMP r3, #0
            BNE loop
            HALT
        soft:
            LDO r0, #0
            LDO r1, #1
            MUL r0, r0, r1
            STO r0
            BX lr
        """
        for tier in COMPILED_TIERS:
            cpu = make_cpu(source, tier, with_circuit=True)
            dispatch = cpu.coprocessor.dispatch
            soft_address = assemble(source).label_address("soft")

            result = cpu.run(1 << 20)  # iteration 1: hardware
            assert type(result.event).__name__ == "SyscallTrap"
            assert cpu.state.regs[2] == 12  # adder circuit: 7 + 5

            dispatch.map_software(IDTuple(1, 1), soft_address)
            result = cpu.run(1 << 20)  # iteration 2: same site, software
            assert type(result.event).__name__ == "SyscallTrap"
            assert cpu.state.regs[2] == 35  # soft routine: 7 * 5

            dispatch.unmap(IDTuple(1, 1))
            result = cpu.run(1 << 20)  # iteration 3: same site, fault
            assert type(result.event).__name__ == "CustomInstructionFault"

            counts = dispatch.trace.counters.dispatch
            assert counts == {"hit": 1, "soft": 1, "fault": 1}, tier

    def test_tlb_restore_remaps_compiled_site(self):
        """``DispatchUnit.restore`` replaces the TLBs' RAM lists and CAM
        indices wholesale.  A compiled site must read the restored
        mapping set — here the tuple moves from the adder to the
        subtractor in another PFU, then to nothing — not the one it
        executed against before."""
        for tier in EXEC_TIERS:
            cpu = make_cpu(REMAP_LOOP, tier, with_circuit=True)
            cpu.coprocessor.load_circuit(
                1, subtractor_spec().instantiate(1, CONFIG)
            )
            dispatch = cpu.coprocessor.dispatch
            adder_mapping = dispatch.snapshot()
            dispatch.map_hardware(IDTuple(1, 1), 1)
            subtractor_mapping = dispatch.snapshot()
            dispatch.unmap(IDTuple(1, 1))
            no_mapping = dispatch.snapshot()

            dispatch.restore(adder_mapping)
            cpu.run(70)  # hot: the jit has a trace through the CDP
            assert cpu.state.regs[2] == 12, tier  # 7 + 5
            if tier == "jit":
                assert cpu._ops.manager.installs >= 1
            dispatch.restore(subtractor_mapping)
            cpu.run(30)
            assert cpu.state.regs[2] == 2, tier  # 7 - 5
            dispatch.restore(no_mapping)
            result = cpu.run(1 << 20)
            assert type(result.event).__name__ == "CustomInstructionFault"
            assert dispatch.trace.counters.dispatch["fault"] == 1, tier

    @given(
        schedule=st.lists(
            st.tuples(DISPATCH_ACTIONS, st.integers(1, 120)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_generated_mapping_schedules_agree_across_tiers(self, schedule):
        """Any schedule of map/unmap/evict/restore between bursts gives
        identical registers, events and dispatch counters in every
        tier."""
        reference = run_dispatch_schedule("step", schedule)
        for tier in COMPILED_TIERS:
            assert run_dispatch_schedule(tier, schedule) == reference, tier


# ---------------------------------------------------------------------------
# cross-tier snapshots (CPU level)


class TestCrossTierSnapshots:
    @pytest.mark.parametrize(
        "first,second",
        [
            ("step", "block"),
            ("block", "step"),
            ("jit", "block"),
            ("block", "jit"),
            ("jit", "step"),
            ("step", "jit"),
        ],
    )
    def test_snapshot_round_trip_switches_tier(self, first, second):
        reference = make_cpu(FIBONACCI, "step")
        burst_log(reference, [17] * 300)

        cpu_a = make_cpu(FIBONACCI, first)
        partial = burst_log(cpu_a, [17] * 3)
        snap = json.loads(json.dumps(cpu_a.snapshot()))

        cpu_b = make_cpu(FIBONACCI, second)
        cpu_b.restore(snap)
        resumed = burst_log(cpu_b, [17] * 297)

        full = burst_log(make_cpu(FIBONACCI, first), [17] * 300)
        assert partial + resumed == full
        assert tier_state(cpu_b) == tier_state(reference)


# ---------------------------------------------------------------------------
# trace compilation, mapping guards and the shared code cache (jit tier)


@pytest.fixture
def cold_code_cache(monkeypatch):
    """An empty process-wide code cache for the test; every entry it
    gains is one distinct compile."""
    cache: dict = {}
    monkeypatch.setattr(traces, "_CODE_CACHE", cache)
    return cache


def generated_ops(ops, prefix: str) -> dict:
    """Index -> installed generated function whose name has ``prefix``."""
    return {
        index: op
        for index, op in enumerate(ops)
        if getattr(op, "__name__", "").startswith(prefix)
    }


REMAP_LOOP = """
main:
    MOV r0, #7
    MOV r1, #5
    MCR f0, r0
    MCR f1, r1
    MOV r3, #12
    MOV r5, #0
loop:
    CDP #1, f2, f0, f1
    MRC r2, f2
    ADD r5, r5, r2
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MOV r0, #0
    HALT
soft:
    LDO r0, #0
    LDO r1, #1
    MUL r0, r0, r1
    STO r0
    BX lr
"""


class TestTraceCompiler:
    def test_hot_loop_compiles_trace(self):
        """The fibonacci loop crosses HOT_THRESHOLD in one burst, gets a
        compiled trace, and still matches the step reference exactly."""
        reference = make_cpu(FIBONACCI, "step")
        burst_log(reference, [1 << 20])

        cpu = make_cpu(FIBONACCI, "jit")
        burst_log(cpu, [1 << 20])
        manager = cpu._ops.manager
        assert manager.installs >= 1
        assert manager.invalidations == 0
        assert tier_state(cpu) == tier_state(reference)

    def test_cold_code_never_compiles(self):
        """Straight-line code entered fewer than HOT_THRESHOLD times
        stays on the block tier (no trace, no profiling residue)."""
        cpu = make_cpu(MIXED, "jit")
        burst_log(cpu, [1 << 20])
        assert cpu._ops.manager.installs == 0

    def test_remap_evicts_hot_trace(self):
        """A hardware->software remap mid-run makes the hot CDP trace's
        mapping guard miss; since the tuple now resolves in the software
        TLB the trace must evict itself instead of side-exiting forever
        (and must never replay 7 + 5 where 7 * 5 is now expected).  All
        three tiers agree on the final state either way."""
        soft_address = assemble(REMAP_LOOP).label_address("soft")
        states = {}
        managers = {}
        for tier in EXEC_TIERS:
            cpu = make_cpu(REMAP_LOOP, tier, with_circuit=True)
            # Phase 1 (hardware adder): enough budget for the loop head
            # to cross HOT_THRESHOLD, not enough to finish the loop.
            cpu.run(100)
            assert not cpu.state.halted
            if tier == "jit":
                managers[tier] = cpu._ops.manager
                assert managers[tier].installs >= 1
                assert managers[tier].invalidations == 0
            cpu.coprocessor.dispatch.map_software(IDTuple(1, 1),
                                                  soft_address)
            while not cpu.state.halted:
                cpu.run(1 << 20)
            states[tier] = tier_state(cpu)
        # The stale trace was evicted, not silently reused ...
        assert managers["jit"].invalidations >= 1
        # ... and every tier saw the same phase split and results.
        for tier in COMPILED_TIERS:
            assert states[tier] == states["step"], tier
        counts = states["step"]["dispatch_counts"]
        hw, soft = counts["hit"], counts["soft"]
        assert hw >= 4 and soft >= 1 and hw + soft == 12
        assert states["step"]["regs"][5] == 12 * hw + 35 * soft

    def test_circuit_reloaded_into_another_pfu_keeps_trace(
        self, cold_code_cache
    ):
        """Evicting the adder makes the trace's mapping guard miss (the
        CDP faults through the block-tier closure); reloading it into a
        different PFU makes the guard hit again.  The installed trace
        survives both, reads the new PFU at run time, never recompiles,
        and matches the ``step`` reference exactly."""
        results = {}
        for tier in EXEC_TIERS:
            cpu = make_cpu(REMAP_LOOP, tier, with_circuit=True)
            log = burst_log(cpu, [100])
            if tier == "jit":
                jit_ops = cpu._ops
                hot = generated_ops(jit_ops, "_trace_")
                assert jit_ops.manager.installs >= 1 and hot
                compiles = len(cold_code_cache)
            instance, _ = cpu.coprocessor.unload_circuit(0)
            log += burst_log(cpu, [1 << 20])
            assert log[-1][2] == "CustomInstructionFault"
            cpu.coprocessor.load_circuit(1, instance)
            cpu.coprocessor.dispatch.map_hardware(IDTuple(1, 1), 1)
            while not cpu.state.halted:
                log += burst_log(cpu, [1 << 20])
            results[tier] = (log, tier_state(cpu))
        assert generated_ops(jit_ops, "_trace_") == hot
        assert jit_ops.manager.invalidations == 0
        assert len(cold_code_cache) == compiles
        for tier in COMPILED_TIERS:
            assert results[tier] == results["step"], tier
        assert results["step"][1]["dispatch_counts"]["hit"] == 12

    def test_code_cache_evicts_oldest_at_bound(self, monkeypatch,
                                               cold_code_cache):
        monkeypatch.setattr(traces, "CODE_CACHE_ENTRIES", 2)
        compiled = []

        def compile_source(text):
            compiled.append(text)
            return compile(text, "<test>", "exec")

        for text in ("a = 1", "b = 2", "a = 1", "c = 3", "a = 1"):
            traces.shared_code(text, compile_source)
        assert compiled == ["a = 1", "b = 2", "c = 3", "a = 1"]
        assert list(cold_code_cache) == ["c = 3", "a = 1"]

    def test_two_pids_share_generated_code(self, cold_code_cache):
        """The PID is an environment binding, not part of the source:
        two processes running one image bind the same code objects for
        their traces and fused blocks, and each still dispatches under
        its own (PID, CID) tuple."""
        for tier, prefix in (("jit", "_trace_"), ("block", "_block_")):
            cpus = [
                make_cpu(CDP_LOOP, tier, with_circuit=True, pid=pid)
                for pid in (1, 2)
            ]
            for cpu in cpus:
                burst_log(cpu, [1 << 20])
                assert tier_state(cpu)["dispatch_counts"]["hit"] == 8
            first, second = (generated_ops(cpu._ops, prefix) for cpu in cpus)
            assert first and first.keys() == second.keys(), tier
            for index, fn in first.items():
                assert fn is not second[index]
                assert fn.__code__ is second[index].__code__, tier


# ---------------------------------------------------------------------------
# machine-level equivalence and cross-tier checkpoints


def tier_spec(workload: str, **kwargs) -> ExperimentSpec:
    defaults = dict(instances=2, quantum_ms=5.0, scale=SCALE)
    defaults.update(kwargs)
    return ExperimentSpec(workload=workload, **defaults)


def outcome_bytes(spec: ExperimentSpec) -> bytes:
    return json.dumps(outcome_to_dict(run_experiment(spec, verify=True)),
                      sort_keys=True).encode()


def outcome_fields(outcome) -> tuple:
    return (
        outcome.makespan,
        outcome.completions,
        outcome.kernel_stats,
        outcome.cis,
        outcome.process_cycles,
        outcome.verified,
    )


class TestMachineTierEquivalence:
    @pytest.mark.parametrize("workload", ["echo", "alpha", "twofish"])
    def test_workloads_identical_across_tiers(self, workload, monkeypatch):
        results = {}
        for tier in EXEC_TIERS:
            monkeypatch.setenv("REPRO_EXEC_TIER", tier)
            spec = tier_spec(workload)
            assert spec.build_config().exec_tier == tier
            results[tier] = outcome_fields(run_experiment(spec, verify=True))
        for tier in COMPILED_TIERS:
            assert results[tier] == results["step"], tier

    @pytest.mark.parametrize("architecture", ["proteus", "prisc", "memmap"])
    def test_architectures_identical_across_tiers(self, architecture,
                                                  monkeypatch):
        """The tier guarantee holds for the baselines too: the PRISC
        kernel's exception-based dispatch and the memory-mapped
        baseline's slow config port run through the same CPU."""
        results = {}
        for tier in EXEC_TIERS:
            monkeypatch.setenv("REPRO_EXEC_TIER", tier)
            spec = tier_spec("alpha", architecture=architecture)
            results[tier] = outcome_fields(run_experiment(spec, verify=True))
        for tier in COMPILED_TIERS:
            assert results[tier] == results["step"], tier

    def test_fault_campaign_identical_across_tiers(self, monkeypatch):
        """The bit-identical contract holds under an active fault plan:
        injection draws, detections, recoveries and kill decisions land
        on the same quanta in every tier.  (Under a plan the jit refuses
        to trace CDP sites — a FabricFault mid-trace would discard
        committed cycles — but ALU loops still compile.)"""
        plan = FaultPlan(
            seed=9,
            config_upset_rate=0.05,
            datapath_error_rate=0.05,
            transfer_error_rate=0.1,
            state_upset_rate=0.1,
            scrub_interval_quanta=8,
        )
        results = {}
        for tier in EXEC_TIERS:
            monkeypatch.setenv("REPRO_EXEC_TIER", tier)
            spec = tier_spec("alpha", instances=3, quantum_ms=1.0,
                             seed=2, fault_plan=plan)
            outcome = run_experiment(spec)
            results[tier] = (outcome_fields(outcome), outcome.faults)
        # The campaign actually exercised the injector ...
        assert sum(results["step"][1]["injected"].values()) > 0
        # ... and every tier reproduced it event-for-event.
        for tier in COMPILED_TIERS:
            assert results[tier] == results["step"], tier

    def test_post_knee_point_compiles_no_storm(self, monkeypatch,
                                               cold_code_cache):
        """twofish x5 at 1 ms swaps a circuit nearly every quantum.  The
        jit must match ``step`` byte for byte, and doubling the run must
        not add a single compile: traces key on their source, never on
        mapping state, so every reload reuses the code already built."""
        compiles = []
        for items in (32, 64):
            spec = tier_spec("twofish", instances=5, quantum_ms=1.0,
                             items=items)
            monkeypatch.setenv("REPRO_EXEC_TIER", "step")
            reference = outcome_bytes(spec)
            cold_code_cache.clear()
            monkeypatch.setenv("REPRO_EXEC_TIER", "jit")
            assert outcome_bytes(spec) == reference, items
            compiles.append(len(cold_code_cache))
        assert compiles[0] == compiles[1] < 20

    @pytest.mark.parametrize("tier", ["block", "jit"])
    def test_warm_code_cache_matches_cold(self, tier, monkeypatch,
                                          cold_code_cache):
        monkeypatch.setenv("REPRO_EXEC_TIER", tier)
        spec = tier_spec("echo", instances=3, quantum_ms=1.0)
        cold = outcome_bytes(spec)
        compiles = len(cold_code_cache)
        assert compiles >= 1
        assert outcome_bytes(spec) == cold
        assert len(cold_code_cache) == compiles

    def test_closure_tier_is_not_selectable(self, monkeypatch):
        """Per-instruction closures survive only as the block tier's
        fallback; naming them as a tier is a configuration error."""
        monkeypatch.setenv("REPRO_EXEC_TIER", "closure")
        with pytest.raises(ConfigurationError, match="closure"):
            MachineConfig()

    def test_spec_key_ignores_exec_tier(self, monkeypatch):
        keys = set()
        for tier in EXEC_TIERS:
            monkeypatch.setenv("REPRO_EXEC_TIER", tier)
            keys.add(tier_spec("alpha").spec_key())
        assert len(keys) == 1

    @pytest.mark.parametrize(
        "first,second",
        [
            ("block", "step"),
            ("step", "block"),
            ("jit", "block"),
            ("block", "jit"),
            ("jit", "step"),
        ],
    )
    def test_mid_run_checkpoint_crosses_tiers(self, first, second,
                                              monkeypatch):
        """A checkpoint taken mid-run under one tier resumes under the
        other and finishes bit-identically."""
        spec = tier_spec("alpha")

        monkeypatch.setenv("REPRO_EXEC_TIER", first)
        reference = run_experiment(spec)

        monkeypatch.setenv("REPRO_EXEC_TIER", first)
        machine = Machine.from_spec(spec)
        machine.spawn_instances()
        quanta = machine.run_quanta(7)
        assert quanta == 7 and not machine.finished
        checkpoint = json.loads(json.dumps(machine.checkpoint()))

        monkeypatch.setenv("REPRO_EXEC_TIER", second)
        resumed = Machine.resume(checkpoint)
        assert resumed.exec_tier == second
        resumed.run()
        assert outcome_fields(resumed.outcome()) == outcome_fields(reference)
