"""Trace-JIT compiler — the ``jit`` execution tier.

The ``block`` tier (:mod:`repro.cpu.blocks`) fuses straight-line runs
into superinstruction closures, but a burst still dispatches once per
basic block and every register access is a list subscript.  This module
adds a fourth tier on top of it: when a block leader gets hot (a counted
block-entry / back-edge threshold), the recorder walks the program along
the *predicted* path — through fused runs, across branches (backward
taken, forward not taken), through coprocessor transfers, and through
hardware-resolved CDPs — and emits one straight-line Python function for
the whole trace:

* **registers as locals** — every core register the trace touches is
  loaded into a Python local once on entry and spilled back at every
  exit, so the hot path runs on ``LOAD_FAST``/``STORE_FAST`` instead of
  list subscripts;
* **bulk cycle accounting** — each fused segment charges its precomputed
  cycle total in one addition, exactly like a block superinstruction;
* **loop closure** — a trace whose path returns to its own entry becomes
  a ``while True`` loop, so one ``run()`` dispatch executes as many
  iterations as the burst budget allows.

**Why the tier stays bit-identical.**  Every guard in a generated trace
re-states the commit condition of :meth:`repro.cpu.core.CPU.run`'s
dispatch loop in accumulated-cycle arithmetic (``_u`` consumed so far
against the burst budget ``_b``), and every side exit restores the exact
observable state — ``ctx.idx`` on the next instruction, ``ctx.retired``
flushed, modified registers spilled — before returning the exact cycles
consumed.  From that point the proven block/closure machinery continues
the burst, so a trace can exit *anywhere* (budget shortfall, branch
leaving the path, CDP mapping-guard miss, interrupted CDP, memory
fault) without perturbing cycle counts, burst boundaries, counters or
checkpoints.  Bulk-committing a fused segment is identical to stepping
it because every per-instruction cost is positive: remaining budget
``>=`` the segment total commits the same instructions either way, and a
shortfall hands back to per-instruction stepping exactly where the block
tier's own budget guard would.

**What is traceable.**  Fused-run ops (see
:data:`~repro.cpu.isa.FUSIBLE_OPS`), in-range B/BL, and — as single
components — MCR/MRC/LDO/STO.  A CDP joins a trace only when no fault
plan is active (a :class:`~repro.cpu.exceptions.FabricFault` raised
mid-trace would discard committed cycles) and the recorder's
side-effect-free TLB peek resolves it in hardware; the generated code
then inlines the hardware branch of the :mod:`repro.cpu.translate` CDP
closure — CAM match, RAM read, ``dispatch_resolved`` event — behind a
mapping guard.  Everything else (SWI, HALT, BX, software/faulting CDPs,
translation-time raisers) ends the trace at the preceding instruction.

**Invalidation.**  Generated code depends only on the program image,
the trace entry and the config, never on mapping state, so it is
shared: one process-wide code cache keyed on the source text
(:func:`shared_code`, also used by the block tier) serves every CPU
running the same image, and each manager merely binds the shared code
object to its own environment.  The mapping is checked where it is
read, as the paper's dispatch TLB does (§4.2): each traced CDP matches
its ``(PID, CID)`` tuple in the hardware TLB's CAM and reads the PFU
from the TLB's RAM at run time, so a circuit evicted and reloaded into
another PFU keeps its trace.  A CAM miss side-exits at the CDP into the
block-tier closure, which resolves it for real (faulting to the CIS if
unmapped).  Only when the tuple now resolves in the *software* TLB — the
CIS chose the software alternative — does the trace evict itself and
re-profile, since its path would otherwise side-exit at that CDP on
every iteration; a re-heat records a path that stops before it.
"""

from __future__ import annotations

import os
import threading
from types import CodeType
from typing import Callable

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..core.tlb import IDTuple
from ..errors import MemoryFault
from .blocks import (
    _ENV_NAMES,
    _emit_instruction,
    _fusible,
    block_leaders,
    translate_blocks,
)
from .isa import CODE_BASE, Cond, Flags, Instruction, Op
from .memory import Memory
from .translate import OpClosure, RunContext, _SHIFTERS

__all__ = [
    "translate_traces",
    "TraceManager",
    "HOT_THRESHOLD",
    "shared_code",
]

#: Block-leader entries before a trace is recorded.  Low enough that the
#: short loops in the equivalence suite compile mid-run; recording a
#: trace that never re-heats costs one ``compile()`` of a small string.
HOT_THRESHOLD = 4

#: Entries kept in the process-wide code cache (:func:`shared_code`)
#: before the oldest is evicted.  A sweep needs a few dozen: one block
#: module per program image and config, plus its distinct traces.
CODE_CACHE_ENTRIES = 256

#: Upper bound on instructions consumed by one trace (runaway guard).
MAX_TRACE_INSTRUCTIONS = 512

#: Ops traced as single components (budget-guarded, effects via bound
#: coprocessor methods).  CDP is handled separately.
_SIMPLE_OPS = (Op.MCR, Op.MRC, Op.LDO, Op.STO)

#: Condition -> inline predicate over the bound flags object ``_fl`` —
#: exactly :meth:`repro.cpu.isa.Flags.passes`, without the call.
_COND_EXPR = {
    Cond.EQ: "_fl.z",
    Cond.NE: "not _fl.z",
    Cond.LT: "_fl.n != _fl.v",
    Cond.LE: "_fl.z or _fl.n != _fl.v",
    Cond.GT: "not _fl.z and _fl.n == _fl.v",
    Cond.GE: "_fl.n == _fl.v",
    Cond.CC: "not _fl.c",
    Cond.CS: "_fl.c",
    Cond.HI: "_fl.c and not _fl.z",
    Cond.LS: "not _fl.c or _fl.z",
    Cond.MI: "_fl.n",
    Cond.PL: "not _fl.n",
}

#: Parameter name -> environment key for trace codegen, extending the
#: block compiler's table with the trace-only bindings.
_TRACE_ENV_NAMES = dict(
    _ENV_NAMES,
    _fl="_FL",
    _pid="_PID",
    _cm="_CM",
    _swm="_SWM",
    _hwt="_HWT",
    _dtr="_DTR",
    _exec="_EXEC",
    _wrf="_WRF",
    _rdf="_RDF",
    _rdo="_RDO",
    _sto="_STO",
    _max="_MAX",
    _fb="_FB",
    _ivd="_IVD",
)


#: Generated source text -> compiled code, in insertion (FIFO) order.
_CODE_CACHE: dict[str, CodeType] = {}
#: Serialises insert-and-evict: an inline scheduler thread may build
#: CPUs alongside the main thread.
_CODE_CACHE_LOCK = threading.Lock()
# Held across fork(): a pool worker forked while another thread holds it
# would inherit it held and hang at its first cache miss.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_CODE_CACHE_LOCK.acquire,
                        after_in_parent=_CODE_CACHE_LOCK.release,
                        after_in_child=_CODE_CACHE_LOCK.release)


def shared_code(
    source: str, compile_source: Callable[[str], CodeType]
) -> CodeType:
    """The code object for generated ``source``, compiled on a miss only.

    Both code-generating tiers bind every per-CPU object (registers,
    memory accessors, coprocessor, PID, fallback closures) through the
    ``exec`` environment, so equal source text means interchangeable
    code: every CPU, instance and resumed slice in the process running
    the same image shares one code object.
    """
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile_source(source)
        with _CODE_CACHE_LOCK:
            if len(_CODE_CACHE) >= CODE_CACHE_ENTRIES:
                del _CODE_CACHE[next(iter(_CODE_CACHE))]
            _CODE_CACHE[source] = code
    return code


class OpList(list):
    """The ops list with its :class:`TraceManager` attached (the list is
    what :meth:`CPU._compile` hands back; tests and tooling reach the
    manager through it)."""

    __slots__ = ("manager",)


def translate_traces(
    program: list[Instruction],
    ctx: RunContext,
    regs: list[int],
    flags: Flags,
    memory: Memory,
    coprocessor: ProteusCoprocessor,
    config: MachineConfig,
    pid: int,
    state,
) -> list[OpClosure]:
    """Compile a program block-tier style, then arm trace profiling.

    Drop-in replacement for :func:`repro.cpu.blocks.translate_blocks`:
    the returned list holds one callable per instruction index.  Block
    leaders start under a counting wrapper that records and installs a
    compiled trace once hot; every other index keeps its block/closure
    behaviour, which is also what every trace side-exit falls back on.
    """
    base = translate_blocks(
        program, ctx, regs, flags, memory, coprocessor, config, pid, state
    )
    ops = OpList(base)
    ops.manager = TraceManager(
        program, ops, ctx, regs, flags, memory, coprocessor, config, pid
    )
    return ops


class TraceManager:
    """Per-CPU trace recorder, compiler and invalidation bookkeeper."""

    def __init__(
        self,
        program: list[Instruction],
        ops: list[OpClosure],
        ctx: RunContext,
        regs: list[int],
        flags: Flags,
        memory: Memory,
        coprocessor: ProteusCoprocessor,
        config: MachineConfig,
        pid: int,
    ) -> None:
        self.program = program
        self.ops = ops
        self.ctx = ctx
        self.config = config
        self.pid = pid
        self.dispatch = coprocessor.dispatch
        #: Ops as compiled by the block tier — the fallback every trace
        #: side-exits into, and what a dead entry unwraps back to.
        self._base: list[OpClosure] = list(ops)
        #: Lifetime counters (asserted by the eviction tests): traces
        #: installed (compiled or bound from the shared code cache) and
        #: traces evicted by a software remap.
        self.installs = 0
        self.invalidations = 0
        self._env: dict[str, object] = {
            "__builtins__": {},
            "_REGS": regs,
            "_CTX": ctx,
            "_LW": memory.load_word,
            "_SW": memory.store_word,
            "_LB": memory.load_byte,
            "_SB": memory.store_byte,
            "_MFAULT": MemoryFault,
            "_FSUB": flags.set_from_sub,
            "_FADD": flags.set_from_add,
            "_FLOG": flags.set_from_logical,
            "_LSL": _SHIFTERS[Op.LSL],
            "_LSR": _SHIFTERS[Op.LSR],
            "_ASR": _SHIFTERS[Op.ASR],
            "_ROR": _SHIFTERS[Op.ROR],
            "_FL": flags,
            "_PID": pid,
            "_CM": self.dispatch.hardware_tlb.cam.match,
            "_SWM": self.dispatch.software_tlb.cam.match,
            "_HWT": self.dispatch.hardware_tlb,
            "_DTR": self.dispatch.trace,
            "_EXEC": coprocessor.execute,
            "_WRF": coprocessor.regfile.write,
            "_RDF": coprocessor.regfile.read,
            "_RDO": coprocessor.operand_regs.read_operand,
            "_STO": coprocessor.store_soft_result,
            "_MAX": max,
        }
        for leader in block_leaders(program):
            ops[leader] = self._profile(leader)

    # ---- profiling ---------------------------------------------------------
    def _profile(self, entry: int) -> OpClosure:
        """A counting wrapper that turns ``entry`` hot after
        :data:`HOT_THRESHOLD` dispatches."""
        inner = self._base[entry]
        remaining = HOT_THRESHOLD

        def profiling(_b: int) -> int:
            nonlocal remaining
            remaining -= 1
            if remaining <= 0:
                return self._go_hot(entry, inner)(_b)
            return inner(_b)

        return profiling

    def _go_hot(self, entry: int, inner: OpClosure) -> OpClosure:
        components, continuation, cyclic = self._record(entry)
        # A trace that covers no more than one fused stretch buys
        # nothing over the block tier: unwrap and stop profiling.
        if not cyclic and len(components) < 2:
            self.ops[entry] = inner
            return inner
        source = self._source(entry, components, continuation, cyclic)
        code = shared_code(source, lambda text: self._compile(entry, text))
        env = dict(self._env)
        env["_FB"] = self._base[entry]
        env["_IVD"] = lambda: self._invalidate(entry)
        exec(code, env)
        fn = env[f"_trace_{entry}"]
        self.installs += 1
        self.ops[entry] = fn
        return fn  # type: ignore[return-value]

    def _compile(self, entry: int, source: str) -> CodeType:
        """Code-cache miss: compile one trace's generated source."""
        return compile(source, f"<trace entry={entry}>", "exec")

    def _invalidate(self, entry: int) -> None:
        """Software-remap eviction: drop the installed trace and start
        re-profiling (a re-heat records a path ending before the CDP)."""
        self.invalidations += 1
        self.ops[entry] = self._profile(entry)

    # ---- recording ---------------------------------------------------------
    def _record(self, entry: int):
        """Walk the predicted path from ``entry``.

        Returns ``(components, continuation, cyclic)`` where components
        are ``("run", start, end)`` fused stretches, ``("branch", index,
        taken, target)`` decisions, ``("simple", index)`` coprocessor
        transfers and ``("cdp", index)`` hardware custom instructions.
        The walk is state-independent apart from the TLB peek, which only
        decides where the path ends: the PFU is read at run time.
        """
        program = self.program
        length = len(program)
        components: list[tuple] = []
        visited: set[int] = set()
        count = 0
        idx = entry
        while True:
            if idx == entry and components:
                return components, entry, True
            if idx in visited or not 0 <= idx < length:
                break
            if count >= MAX_TRACE_INSTRUCTIONS:
                break
            instruction = program[idx]
            op = instruction.op
            if _fusible(instruction):
                start = idx
                while (
                    idx < length
                    and _fusible(program[idx])
                    and idx not in visited
                    and (idx == start or idx != entry)
                    and count < MAX_TRACE_INSTRUCTIONS
                ):
                    visited.add(idx)
                    count += 1
                    idx += 1
                components.append(("run", start, idx))
            elif op is Op.B or op is Op.BL:
                target = idx + 1 + instruction.imm
                if not 0 <= target < length:
                    break  # translate emits a raiser; end before it
                # Static prediction: unconditional and backward branches
                # taken, forward conditionals fall through.
                taken = instruction.cond is Cond.AL or target <= idx
                visited.add(idx)
                count += 1
                components.append(("branch", idx, taken, target))
                idx = target if taken else idx + 1
            elif op in _SIMPLE_OPS:
                visited.add(idx)
                count += 1
                components.append(("simple", idx))
                idx += 1
            elif op is Op.CDP and self.config.fault_plan is None:
                if not self._in_hardware(instruction.imm):
                    break  # software, faulting or unmapped: untraceable
                visited.add(idx)
                count += 1
                components.append(("cdp", idx))
                idx += 1
            else:
                break
        return components, idx, False

    def _in_hardware(self, cid: int) -> bool:
        """Side-effect-free hardware-TLB probe."""
        key = IDTuple(self.pid, cid)
        return self.dispatch.hardware_tlb.lookup(key) is not None

    # ---- code generation ---------------------------------------------------
    def _source(
        self,
        entry: int,
        components: list[tuple],
        continuation: int,
        cyclic: bool,
    ) -> str:
        """The generated source of the trace recorded from ``entry``: a
        pure function of (program, entry, config) plus the recorded
        path, with no per-CPU value in it."""
        program = self.program
        config = self.config
        referenced, written = _register_sets(program, components)
        spill = [f"_r[{reg}] = _g{reg}" for reg in sorted(written)]
        needs: set[str] = set()
        body: list[str] = []
        # Retired instructions accumulate in the local ``_n`` and flush
        # to ``ctx.retired`` at every exit (nothing reads the counter
        # mid-burst), saving an attribute read-modify-write per
        # component per loop iteration.
        flush = "_ctx.retired += _n"

        def exit_to(index: int, extra: int = 0) -> list[str]:
            retired = f"{flush} + {extra}" if extra else flush
            return [*spill, retired, f"_ctx.idx = {index}", "return _u"]

        for position, component in enumerate(components):
            kind = component[0]
            if kind == "run":
                _, start, end = component
                lines: list[str] = []
                total = 0
                for offset, index in enumerate(range(start, end)):
                    emitted, cycles = _emit_instruction(
                        index, program[index], offset, config, needs,
                        reg=_local, fault_extra=[flush, *spill],
                    )
                    lines.extend(emitted)
                    total += cycles
                guard = [f"if _b - _u < {total}:"]
                if position == 0:
                    # The entry guard must make progress when nothing is
                    # committed yet: delegate the whole burst remainder
                    # to the pre-trace closure instead of re-dispatching
                    # this trace forever.
                    needs.add("_fb")
                    guard += ["    if _u:"]
                    guard += ["        " + line for line in exit_to(start)]
                    guard += ["    return _fb(_b)"]
                else:
                    guard += ["    " + line for line in exit_to(start)]
                body += guard
                body += lines
                body.append(f"_u += {total}")
                body.append(f"_n += {end - start}")
            elif kind == "branch":
                _, index, taken, target = component
                instruction = program[index]
                link = instruction.op is Op.BL
                return_address = CODE_BASE + 4 * (index + 1)
                conditional = instruction.cond is not Cond.AL
                body.append("if _u >= _b:")
                body += ["    " + line for line in exit_to(index)]
                if conditional:
                    needs.add("_fl")
                    predicate = _COND_EXPR[instruction.cond]
                if taken:
                    if conditional:
                        body.append(f"if not ({predicate}):")
                        body += [
                            "    " + line
                            for line in [
                                *spill,
                                f"{flush} + 1",
                                f"_ctx.idx = {index + 1}",
                                f"return _u + {config.alu_cycles}",
                            ]
                        ]
                    if link:
                        body.append(f"_g14 = {return_address}")
                    body.append("_n += 1")
                    body.append(f"_u += {config.branch_cycles}")
                else:
                    body.append(f"if {predicate}:")
                    off_trace = []
                    if link:
                        off_trace.append(f"_g14 = {return_address}")
                    off_trace += [
                        *spill,
                        f"{flush} + 1",
                        f"_ctx.idx = {target}",
                        f"return _u + {config.branch_cycles}",
                    ]
                    body += ["    " + line for line in off_trace]
                    body.append("_n += 1")
                    body.append(f"_u += {config.alu_cycles}")
            elif kind == "simple":
                _, index = component
                instruction = program[index]
                # Pin the cursor first so even a fatal coprocessor error
                # propagates with the same pc as the unfused closures.
                body.append(f"_ctx.idx = {index}")
                body.append("if _u >= _b:")
                body += [
                    "    " + line for line in [*spill, flush, "return _u"]
                ]
                effect, cost = _simple_effect(instruction, config, needs)
                body.append(effect)
                body.append("_n += 1")
                body.append(f"_u += {cost}")
            else:  # cdp
                _, index = component
                instruction = program[index]
                cid = instruction.imm
                needs.update(("_pid", "_cm", "_swm", "_hwt", "_dtr",
                              "_exec", "_max", "_ivd"))
                issue = config.cdp_issue_cycles
                leave = [*spill, flush, "return _u"]
                body.append(f"_ctx.idx = {index}")
                body.append("if _u >= _b:")
                body += ["    " + line for line in leave]
                # Mapping guard: the (PID, CID) tuple must still match in
                # the hardware TLB's CAM.  On a miss the closure at this
                # index resolves it for real; a software resolution means
                # the CIS chose the software path, so evict this trace.
                body.append(f"_s = _cm((_pid, {cid}))")
                body.append("if _s is None:")
                body.append(f"    if _swm((_pid, {cid})) is not None:")
                body.append("        _ivd()")
                if position == 0:
                    # As at the entry guard: with nothing committed,
                    # delegate rather than re-dispatch this trace.
                    needs.add("_fb")
                    body.append("    if _u:")
                    body += ["        " + line for line in leave]
                    body.append("    return _fb(_b)")
                else:
                    body += ["    " + line for line in leave]
                # The hardware branch of translate.py's CDP closure.
                body.append(f"_dtr.dispatch_resolved(_pid, {cid}, 'hit')")
                body.append(
                    f"_o = _exec(_hwt.ram[_s], {instruction.rd}, "
                    f"{instruction.rn}, {instruction.rm}, "
                    f"_max(1, _b - _u - {issue}))"
                )
                body.append("if _o.completed:")
                body.append("    _n += 1")
                body.append(f"    _u += {issue} + _o.cycles")
                body.append("else:")
                body += [
                    "    " + line
                    for line in [
                        *spill,
                        flush,
                        "_ctx.interrupted = True",
                        f"return _u + {issue} + _o.cycles",
                    ]
                ]
        if not cyclic:
            body += [*spill, flush, f"_ctx.idx = {continuation}",
                     "return _u"]

        name = f"_trace_{entry}"
        params = ["_b", "_r=_REGS", "_ctx=_CTX"] + [
            f"{param}={_TRACE_ENV_NAMES[param]}"
            for param in sorted(needs)
        ]
        out = [f"def {name}({', '.join(params)}):", "    _u = 0",
               "    _n = 0"]
        out += [f"    _g{reg} = _r[{reg}]" for reg in sorted(referenced)]
        if cyclic:
            out.append("    while True:")
            out += ["        " + line for line in body]
        else:
            out += ["    " + line for line in body]
        return "\n".join(out)


# ---------------------------------------------------------------------------
# codegen helpers


def _local(index: int) -> str:
    return f"_g{index}"


def _simple_effect(
    instruction: Instruction, config: MachineConfig, needs: set[str]
) -> tuple[str, int]:
    """Source line + cycle cost for one MCR/MRC/LDO/STO component."""
    op = instruction.op
    if op is Op.MCR:
        needs.add("_wrf")
        return (
            f"_wrf({instruction.rd}, _g{instruction.rn})",
            config.coproc_transfer_cycles,
        )
    if op is Op.MRC:
        needs.add("_rdf")
        return (
            f"_g{instruction.rd} = _rdf({instruction.rn})",
            config.coproc_transfer_cycles,
        )
    if op is Op.LDO:
        needs.add("_rdo")
        return (
            f"_g{instruction.rd} = _rdo({instruction.imm})",
            config.operand_reg_cycles,
        )
    needs.add("_sto")  # STO
    return f"_sto(_g{instruction.rn})", config.operand_reg_cycles


def _register_sets(
    program: list[Instruction], components: list[tuple]
) -> tuple[set[int], set[int]]:
    """(referenced, written) core-register sets over a trace."""
    referenced: set[int] = set()
    written: set[int] = set()

    def note(instruction: Instruction) -> None:
        op = instruction.op
        if op is Op.NOP:
            return
        if op is Op.B or op is Op.BL:
            if op is Op.BL:
                referenced.add(14)
                written.add(14)
            return
        if op is Op.MCR:
            referenced.add(instruction.rn)
            return
        if op is Op.MRC or op is Op.LDO:
            referenced.add(instruction.rd)
            written.add(instruction.rd)
            return
        if op is Op.STO:
            referenced.add(instruction.rn)
            return
        uses_rm = not instruction.uses_imm
        if op in (Op.MOV, Op.MVN):
            referenced.add(instruction.rd)
            written.add(instruction.rd)
            if uses_rm:
                referenced.add(instruction.rm)
            return
        if op in (Op.CMP, Op.CMN, Op.TST):
            referenced.add(instruction.rn)
            if uses_rm:
                referenced.add(instruction.rm)
            return
        if op in (Op.LDR, Op.LDRB):
            referenced.update((instruction.rd, instruction.rn))
            written.add(instruction.rd)
            if instruction.post_inc and instruction.imm:
                written.add(instruction.rn)
            return
        if op in (Op.STR, Op.STRB):
            referenced.update((instruction.rd, instruction.rn))
            if instruction.post_inc and instruction.imm:
                written.add(instruction.rn)
            return
        if op is Op.MUL:
            referenced.update(
                (instruction.rd, instruction.rn, instruction.rm)
            )
            written.add(instruction.rd)
            return
        # Remaining data-processing: rd = rn <op> op2.
        referenced.update((instruction.rd, instruction.rn))
        written.add(instruction.rd)
        if uses_rm:
            referenced.add(instruction.rm)

    for component in components:
        kind = component[0]
        if kind == "run":
            for index in range(component[1], component[2]):
                note(program[index])
        else:
            note(program[component[1]])
    return referenced, written
