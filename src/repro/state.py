"""The uniform machine-state protocol.

Every stateful component of the simulated machine — CPU contexts,
coprocessor structures, kernel bookkeeping, trace counters — implements
the same two-method protocol:

* ``snapshot() -> dict`` — capture the component's mutable state as a
  JSON-serialisable dictionary (plain ints, strings, bools, lists and
  dicts only; byte blobs go through :func:`encode_bytes`);
* ``restore(state)`` — reinstate a snapshot **in place**, mutating the
  existing object rather than rebinding it.  In-place restoration is
  load-bearing: the translated CPU closures capture the register list,
  flags and memory objects by reference, so a restore must never replace
  them.

Components that reference other live objects (the scheduler's ready
queue holds :class:`~repro.kernel.process.Process` objects, a PFU holds
a :class:`~repro.core.circuit.CircuitInstance`) serialise stable *keys*
(PIDs, (pid, cid) tuples) and take a resolver argument on ``restore``;
the :class:`~repro.machine.Machine` facade owns the cross-component
wiring.

The paper's state-section mechanism (§4.4) is the hardware seed of this
idea — circuit state is explicitly save/restorable so the OS can manage
it; here the whole machine gets the same treatment so experiments can be
checkpointed at any quantum boundary and resumed deterministically.
"""

from __future__ import annotations

import base64
import os
import tempfile
import zlib
from pathlib import Path
from typing import IO, Any, Callable, Protocol, runtime_checkable

__all__ = ["Snapshotable", "encode_bytes", "decode_bytes", "write_atomic"]


@runtime_checkable
class Snapshotable(Protocol):
    """The uniform capture/reinstate protocol for machine components."""

    def snapshot(self) -> dict:
        """Capture mutable state as a JSON-serialisable dictionary."""
        ...

    def restore(self, state: dict, *args: Any, **kwargs: Any) -> None:
        """Reinstate a snapshot in place."""
        ...


def encode_bytes(data: bytes) -> str:
    """Encode a byte blob for a JSON snapshot (zlib + base64).

    Process memories are dominated by zero pages, so compression keeps
    whole-machine checkpoints small enough to ship through JSON.
    """
    return base64.b64encode(zlib.compress(bytes(data), level=6)).decode("ascii")


def decode_bytes(text: str) -> bytes:
    """Inverse of :func:`encode_bytes`."""
    return zlib.decompress(base64.b64decode(text.encode("ascii")))


def write_atomic(
    path, dump: Callable[[IO], None], binary: bool = False
) -> None:
    """Publish ``path`` whole or not at all.

    ``dump`` fills a temporary file in the same directory, which then
    replaces ``path`` in one rename: a concurrent reader or an
    interrupted writer never sees a truncated file.  On any failure the
    temporary file is removed and the error propagates.
    """
    fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    try:
        if binary:
            handle = os.fdopen(fd, "wb")
        else:
            handle = os.fdopen(fd, "w", encoding="utf-8")
        with handle:
            dump(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
