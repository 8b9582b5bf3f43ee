"""The CAM+RAM dispatch TLB keyed by (PID, CID) tuples (paper §4.2).

The globally unique ID tuple combines the application's process-unique
Circuit ID with the Process ID the processor already tracks.  Because the
key includes the PID, *nothing needs flushing on a context switch* — the
central contrast with PRISC's per-PFU ID registers.  An ID tuple names a
*mapping*, not a circuit: several tuples may map to the same PFU or
software routine, which is how circuits are shared.

The TLB is finite, so a mapping can be pushed out while its circuit is
still loaded in a PFU; the resulting fault is a *mapping fault* that the
CIS repairs without any configuration transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .cam import CAM


class IDTuple(NamedTuple):
    """The system-unique name of a custom-instruction mapping."""

    pid: int
    cid: int


@dataclass
class DispatchTLB:
    """One translation buffer: CAM of ID tuples + RAM of integer targets.

    For the hardware TLB the target is a PFU number; for the software TLB
    it is the memory address of the alternative routine.  Replacement of
    TLB entries themselves is FIFO over the entry indices, standing in for
    the simple hardware pointer a real implementation would use.
    """

    entries: int
    cam: CAM[IDTuple] = field(init=False)
    ram: list[int] = field(init=False)
    _fifo_hand: int = 0

    def __post_init__(self) -> None:
        self.cam = CAM(entries=self.entries)
        self.ram = [0] * self.entries

    # ---- datapath-side -----------------------------------------------------
    def lookup(self, key: IDTuple) -> int | None:
        """Single-cycle lookup: the RAM word for ``key``, or ``None``."""
        entry = self.cam.match(key)
        if entry is None:
            return None
        return self.ram[entry]

    # ---- OS-side -------------------------------------------------------------
    def insert(self, key: IDTuple, value: int) -> IDTuple | None:
        """Install a mapping; returns the evicted tuple, if any.

        Re-inserting an existing key simply rewrites its RAM word.
        """
        existing = self.cam.match(key)
        if existing is not None:
            self.ram[existing] = value
            return None
        entry = self.cam.free_entry()
        evicted: IDTuple | None = None
        if entry is None:
            entry = self._fifo_hand
            self._fifo_hand = (self._fifo_hand + 1) % self.entries
            evicted = self.cam.key_at(entry)
        self.cam.write(entry, key)
        self.ram[entry] = value
        return evicted

    def remove(self, key: IDTuple) -> bool:
        """Invalidate one mapping; True if it was present."""
        return self.cam.invalidate_key(key)

    def remove_pid(self, pid: int) -> int:
        """Invalidate every mapping belonging to ``pid`` (process exit)."""
        removed = 0
        for entry in self.cam.valid_entries():
            key = self.cam.key_at(entry)
            if key is not None and key.pid == pid:
                self.cam.invalidate_entry(entry)
                removed += 1
        return removed

    def remove_value(self, value: int) -> int:
        """Invalidate every mapping pointing at ``value``.

        Used when a circuit is evicted from a PFU: all tuples naming that
        PFU must fault until the CIS reinstalls them.
        """
        removed = 0
        for entry in self.cam.valid_entries():
            if self.ram[entry] == value:
                self.cam.invalidate_entry(entry)
                removed += 1
        return removed

    def flush(self) -> int:
        """Invalidate everything (PRISC baseline behaviour, not Proteus)."""
        removed = 0
        for entry in self.cam.valid_entries():
            self.cam.invalidate_entry(entry)
            removed += 1
        return removed

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        return {
            "cam": self.cam.snapshot(),
            "ram": list(self.ram),
            "fifo_hand": self._fifo_hand,
        }

    def restore(self, state: dict) -> None:
        # Checkpoints written before the TLB statistics were dropped
        # still carry "lookups"/"hits"/"insertions"/"evictions"; they
        # are ignored, so those checkpoints resume unchanged.
        self.cam.restore(state["cam"], lambda fields: IDTuple(*fields))
        self.ram = list(state["ram"])
        self._fifo_hand = state["fifo_hand"]

    # ---- introspection ----------------------------------------------------
    def contents(self) -> dict[IDTuple, int]:
        out: dict[IDTuple, int] = {}
        for entry in self.cam.valid_entries():
            key = self.cam.key_at(entry)
            if key is not None:
                out[key] = self.ram[entry]
        return out

    @property
    def occupied(self) -> int:
        return self.cam.occupied
