"""End-to-end integration: the architectural behaviours of §4 observed
through whole-system runs."""

import pytest

from repro.apps.registry import get_workload
from repro.config import MachineConfig
from repro.kernel.porsche import Porsche
from repro.kernel.process import ProcessState
from repro.kernel.replacement import make_policy
from repro.sim.experiment import ExperimentSpec, run_experiment

SCALE = 1 / 8000

#: Random replacement may exceed round robin by at most this factor —
#: the ``RANDOM_SLACK`` of perfbench/checks.py, restated because the
#: tests do not import the benchmark harness.
RANDOM_SLACK = 1.05

FAST = MachineConfig(
    cycles_per_ms=1000, quantum_ms=0.5, config_bus_bytes_per_cycle=512
)


class TestLongInstructionInterruption:
    def test_twofish_encrypt_spans_quanta_transparently(self):
        """With an 18-cycle encrypt phase and a tiny quantum, CDPs are
        regularly cut by the timer; results must still be exact (§4.4)."""
        config = FAST.derive(quantum_ms=0.025)  # 25-cycle quanta
        kernel = Porsche(config)
        workload = get_workload("twofish")
        a = kernel.spawn(workload.build(items=4, seed=7))
        b = kernel.spawn(workload.build(items=4, seed=7))
        kernel.run()
        expected = workload.expected(4, seed=7)
        assert a.read_result("dst") == expected
        assert b.read_result("dst") == expected
        assert kernel.stats.timer_interrupts > 10

    def test_mid_instruction_eviction_and_resume(self):
        """A circuit evicted while an invocation is in flight must finish
        correctly after reload (state section carries the context)."""
        config = FAST.derive(pfu_count=1, quantum_ms=0.02)
        kernel = Porsche(config, make_policy("round_robin"))
        workload = get_workload("twofish")
        a = kernel.spawn(workload.build(items=3, seed=1, register_soft=False))
        b = kernel.spawn(workload.build(items=3, seed=1, register_soft=False))
        kernel.run()
        expected = workload.expected(3, seed=1)
        assert a.read_result("dst") == expected
        assert b.read_result("dst") == expected
        assert kernel.cis.stats.evictions > 0


class TestContextSwitchTransparency:
    def test_no_mapping_faults_without_contention(self):
        """The PID-tagged TLB means context switches alone never cost a
        dispatch fault — the paper's core claim vs. PRISC."""
        kernel = Porsche(FAST)
        workload = get_workload("alpha")
        for __ in range(3):  # 3 processes, 4 PFUs: no contention
            kernel.spawn(workload.build(items=48, seed=0))
        kernel.run()
        assert kernel.stats.context_switches > 3
        assert kernel.cis.stats.mapping_faults == 0
        assert kernel.cis.stats.loads == 3  # one per process, ever

    def test_fpl_registers_are_per_process(self):
        """Two processes interleave MCR/CDP/MRC sequences; the saved
        coprocessor context keeps their register files apart."""
        kernel = Porsche(FAST.derive(quantum_ms=0.05))
        workload = get_workload("alpha")
        a = kernel.spawn(workload.build(items=64, seed=3))
        b = kernel.spawn(workload.build(items=64, seed=3))
        kernel.run()
        expected = workload.expected(64, seed=3)
        assert a.read_result("dst") == expected
        assert b.read_result("dst") == expected


class TestMixedWorkloads:
    def test_all_three_applications_concurrently(self):
        kernel = Porsche(FAST.derive(quantum_ms=0.2))
        processes = {}
        for name, items in (("alpha", 24), ("echo", 24), ("twofish", 3)):
            workload = get_workload(name)
            processes[name] = (
                kernel.spawn(workload.build(items=items, seed=2)),
                workload.expected(items, seed=2),
                workload,
            )
        kernel.run()
        for name, (process, expected, workload) in processes.items():
            assert process.state is ProcessState.EXITED, name
            assert process.read_result(workload.result_name) == expected, name

    def test_four_circuits_fill_the_array(self):
        """alpha (1) + echo (2) + twofish (1) = exactly 4 PFUs: all
        loaded, nothing evicted."""
        kernel = Porsche(FAST.derive(quantum_ms=0.2))
        for name, items in (("alpha", 24), ("echo", 24), ("twofish", 3)):
            kernel.spawn(get_workload(name).build(items=items, seed=2))
        kernel.run()
        assert kernel.cis.stats.loads == 4
        assert kernel.cis.stats.evictions == 0

    def test_fifth_circuit_forces_management(self):
        # Workloads sized so that all four processes overlap for many
        # quanta: the fifth circuit must steal a PFU from someone.
        kernel = Porsche(FAST.derive(quantum_ms=0.2))
        for name, items in (("alpha", 192), ("echo", 192), ("twofish", 24)):
            kernel.spawn(get_workload(name).build(items=items, seed=2))
        kernel.spawn(get_workload("alpha").build(items=192, seed=2))
        kernel.run()
        assert kernel.cis.stats.evictions > 0


class TestPaperShapes:
    """The qualitative findings of §5.1, asserted at tiny scale."""

    def run_series(self, workload, instances, quantum_ms, soft=False,
                   policy="round_robin"):
        return [
            run_experiment(
                ExperimentSpec(
                    workload=workload,
                    instances=n,
                    quantum_ms=quantum_ms,
                    policy=policy,
                    soft=soft,
                    scale=SCALE,
                ),
                verify=False,
            ).makespan
            for n in instances
        ]

    def test_linear_until_knee_alpha(self):
        ys = self.run_series("alpha", range(1, 6), 10.0)
        base = ys[0]
        for n in range(1, 4):  # 2..4 instances: linear
            assert ys[n] / (base * (n + 1)) < 1.12
        assert ys[4] / (base * 5) > ys[3] / (base * 4)

    def test_echo_knee_at_two(self):
        ys = self.run_series("echo", range(1, 5), 1.0)
        base = ys[0]
        assert ys[1] / (2 * base) < 1.15  # two instances fit
        assert ys[2] / (3 * base) > 1.3   # three do not

    def test_small_quantum_hurts_more_under_contention(self):
        slow = self.run_series("alpha", [6], 1.0)[0]
        fast = self.run_series("alpha", [6], 10.0)[0]
        assert slow > fast * 1.1

    def test_soft_dispatch_quantum_insensitive(self):
        at_10ms = self.run_series("alpha", [6], 10.0, soft=True)[0]
        at_1ms = self.run_series("alpha", [6], 1.0, soft=True)[0]
        assert abs(at_10ms - at_1ms) / at_10ms < 0.15

    @pytest.mark.parametrize("workload,instances", [("alpha", 5),
                                                    ("echo", 3)])
    def test_random_replacement_no_worse_than_round_robin(
        self, workload, instances
    ):
        """§5.1: round robin "generally performs worse than the random
        policy" — past the knee at 1 ms, random is never worse by more
        than the benchmark's slack."""
        round_robin = self.run_series(workload, [instances], 1.0)[0]
        random = self.run_series(workload, [instances], 1.0,
                                 policy="random")[0]
        assert random <= RANDOM_SLACK * round_robin

    def test_soft_dispatch_beats_switching_for_echo_at_1ms(self):
        """§5.1.2: for the thrash-prone two-circuit workload at small
        quanta, deferring to software wins.  Run at a finer scale than
        the other shape tests: with only a dozen cycles per quantum the
        comparison degenerates."""
        def makespan(soft):
            return run_experiment(
                ExperimentSpec(
                    workload="echo", instances=4, quantum_ms=1.0,
                    soft=soft, scale=1 / 2000,
                ),
                verify=False,
            ).makespan

        assert makespan(True) < makespan(False)
