"""The (PID, CID)-keyed dispatch TLB of §4.2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tlb import DispatchTLB, IDTuple


def key(pid: int, cid: int) -> IDTuple:
    return IDTuple(pid=pid, cid=cid)


class TestBasics:
    def test_miss(self):
        tlb = DispatchTLB(entries=4)
        assert tlb.lookup(key(1, 1)) is None

    def test_insert_lookup(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 3)
        assert tlb.lookup(key(1, 1)) == 3

    def test_pid_distinguishes_tuples(self):
        """Same CID under different PIDs resolves independently — the
        globally unique ID tuple of §4.2."""
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 7), 0)
        tlb.insert(key(2, 7), 1)
        assert tlb.lookup(key(1, 7)) == 0
        assert tlb.lookup(key(2, 7)) == 1

    def test_many_tuples_one_value(self):
        """Multiple ID tuples can map to one circuit (sharing, §4.2)."""
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 2)
        tlb.insert(key(2, 5), 2)
        assert tlb.contents() == {key(1, 1): 2, key(2, 5): 2}

    def test_reinsert_updates_value(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 0)
        evicted = tlb.insert(key(1, 1), 3)
        assert evicted is None
        assert tlb.lookup(key(1, 1)) == 3
        assert tlb.occupied == 1

    def test_remove(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 0)
        assert tlb.remove(key(1, 1))
        assert tlb.lookup(key(1, 1)) is None
        assert not tlb.remove(key(1, 1))


class TestCapacity:
    def test_fifo_eviction_when_full(self):
        tlb = DispatchTLB(entries=2)
        tlb.insert(key(1, 1), 0)
        tlb.insert(key(1, 2), 1)
        evicted = tlb.insert(key(1, 3), 2)
        assert evicted == key(1, 1)
        assert tlb.lookup(key(1, 1)) is None
        assert tlb.lookup(key(1, 3)) == 2

    def test_loaded_circuit_can_lose_its_mapping(self):
        """§4.2: more mappings may be needed than fit, so a loaded
        circuit may fault purely on its mapping."""
        tlb = DispatchTLB(entries=2)
        tlb.insert(key(1, 1), 0)  # circuit in PFU 0
        tlb.insert(key(2, 1), 1)
        tlb.insert(key(3, 1), 2)  # pushes out (1,1)
        assert tlb.lookup(key(1, 1)) is None  # mapping fault, PFU 0 intact

    def test_eviction_counts(self):
        """An insert into a full TLB reports the one tuple it pushed
        out, and only that tuple is gone."""
        tlb = DispatchTLB(entries=1)
        assert tlb.insert(key(1, 1), 0) is None
        assert tlb.insert(key(1, 2), 0) == key(1, 1)
        assert tlb.contents() == {key(1, 2): 0}


class TestBulkInvalidation:
    def test_remove_pid(self):
        tlb = DispatchTLB(entries=8)
        tlb.insert(key(1, 1), 0)
        tlb.insert(key(1, 2), 1)
        tlb.insert(key(2, 1), 2)
        assert tlb.remove_pid(1) == 2
        assert tlb.lookup(key(2, 1)) == 2

    def test_remove_value(self):
        """Evicting a circuit from PFU n drops every tuple naming it."""
        tlb = DispatchTLB(entries=8)
        tlb.insert(key(1, 1), 3)
        tlb.insert(key(2, 9), 3)
        tlb.insert(key(2, 1), 0)
        assert tlb.remove_value(3) == 2
        assert tlb.lookup(key(2, 1)) == 0

    def test_flush(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 0)
        tlb.insert(key(2, 2), 1)
        assert tlb.flush() == 2
        assert tlb.occupied == 0


class TestSnapshot:
    def test_snapshot_holds_mappings_only(self):
        """A snapshot is the CAM, the RAM and the FIFO hand; resolution
        statistics live in the trace bus's CounterSink."""
        tlb = DispatchTLB(entries=2)
        tlb.insert(key(1, 1), 3)
        tlb.lookup(key(1, 1))
        assert set(tlb.snapshot()) == {"cam", "ram", "fifo_hand"}

    def test_restore_ignores_legacy_statistics(self):
        """Checkpoints written while the TLB kept its own lookup/hit/
        insertion/eviction counters still restore."""
        tlb = DispatchTLB(entries=2)
        tlb.insert(key(1, 1), 3)
        tlb.insert(key(2, 1), 0)
        legacy = dict(tlb.snapshot(), lookups=9, hits=7, insertions=2,
                      evictions=1)
        restored = DispatchTLB(entries=2)
        restored.restore(legacy)
        assert restored.contents() == tlb.contents()
        assert restored.snapshot() == tlb.snapshot()


@given(
    inserts=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),   # pid
            st.integers(min_value=0, max_value=5),   # cid
            st.integers(min_value=0, max_value=3),   # value
        ),
        max_size=30,
    )
)
@settings(max_examples=60)
def test_contents_never_exceed_capacity_and_are_consistent(inserts):
    tlb = DispatchTLB(entries=4)
    for pid, cid, value in inserts:
        tlb.insert(key(pid, cid), value)
        contents = tlb.contents()
        assert len(contents) <= 4
        for k, v in contents.items():
            assert tlb.lookup(k) == v
