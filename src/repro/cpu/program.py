"""Executable program images for POrSCHE processes.

A :class:`Program` bundles everything the kernel needs to start a
process: the assembled code, the initial data image, the circuit table
(the :class:`~repro.core.circuit.CircuitSpec` objects the program's
``SWI #1`` registrations refer to by index), and named result regions so
tests and examples can inspect outputs after completion.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..core.circuit import CircuitSpec
from ..errors import WorkloadError
from .assembler import AssembledProgram, assemble
from .memory import DEFAULT_SIZE, Memory


@dataclass(frozen=True)
class ResultRegion:
    """A named span of data memory holding a program output."""

    address: int
    length: int


@dataclass
class Program:
    """A loadable program image."""

    name: str
    image: AssembledProgram
    #: Circuit specs referenced by index from ``SWI #1`` registrations.
    circuit_table: list[CircuitSpec] = field(default_factory=list)
    memory_size: int = DEFAULT_SIZE
    result_regions: dict[str, ResultRegion] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls,
        name: str,
        source: str,
        circuit_table: list[CircuitSpec] | None = None,
        memory_size: int = DEFAULT_SIZE,
        result_labels: dict[str, int] | None = None,
    ) -> "Program":
        """Assemble ``source`` and build a program image.

        ``result_labels`` maps a region name to its byte length; the
        address comes from the identically named assembly label.
        """
        image = assemble(source)
        regions: dict[str, ResultRegion] = {}
        for label, length in (result_labels or {}).items():
            regions[label] = ResultRegion(
                address=image.label_address(label), length=length
            )
        program = cls(
            name=name,
            image=image,
            circuit_table=list(circuit_table or []),
            memory_size=memory_size,
            result_regions=regions,
        )
        program.validate()
        return program

    def validate(self) -> None:
        """Sanity-check the image against the memory layout."""
        if not self.image.instructions:
            raise WorkloadError(f"{self.name}: program has no instructions")
        data_end = self.image.data_base + len(self.image.data)
        if data_end > self.memory_size:
            raise WorkloadError(
                f"{self.name}: data section ends at {data_end:#x}, beyond "
                f"the {self.memory_size}-byte address space"
            )
        names = [spec.name for spec in self.circuit_table]
        if len(set(names)) != len(names):
            raise WorkloadError(
                f"{self.name}: duplicate circuit names in table"
            )

    def build_memory(self) -> Memory:
        """Create and initialise a fresh address space for one process."""
        memory = Memory(size=self.memory_size)
        memory.write_block(self.image.data_base, self.image.data)
        return memory

    def circuit(self, index: int) -> CircuitSpec:
        if not 0 <= index < len(self.circuit_table):
            raise WorkloadError(
                f"{self.name}: circuit table index {index} out of range"
            )
        return self.circuit_table[index]

    def read_result(self, memory: Memory, name: str) -> bytes:
        return memory.read_block(*self._region(name))

    def result_matches(self, memory: Memory, name: str, expected: bytes) -> bool:
        """Compare a result region against reference bytes.

        Word-shaped regions (the common case — every built-in workload
        emits whole words) go through :meth:`Memory.read_words`, one
        bounds check and a bulk unpack; ragged regions fall back to a
        byte compare.
        """
        address, length = self._region(name)
        if len(expected) != length:
            return False
        if address % 4 == 0 and length % 4 == 0:
            count = length // 4
            return memory.read_words(address, count) == list(
                struct.unpack(f"<{count}I", expected)
            )
        return memory.read_block(address, length) == expected

    def _region(self, name: str) -> tuple[int, int]:
        region = self.result_regions.get(name)
        if region is None:
            raise WorkloadError(f"{self.name}: no result region {name!r}")
        return region.address, region.length
