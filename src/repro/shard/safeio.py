"""Crash-safe file I/O: atomic writes, checksums, fault injection.

Every artifact the runtime persists — spill files and progress log
lines (:mod:`repro.runtime.progress`) — goes through this module, which provides exactly three guarantees:

* **atomicity** — :func:`atomic_write_bytes` writes a sibling temp
  file, flushes and ``fsync``\\ s it, then ``os.replace``\\ s into place
  and fsyncs the directory entry, so a crash leaves either the old
  artifact or the new one, never a half-written file under the real
  name;
* **integrity** — every write returns the sha256 content checksum of
  the *intended* bytes; :func:`verify_file` recomputes it on read and
  raises :class:`~repro.errors.IOIntegrityError` on mismatch (the only
  way a torn-but-renamed write can be observed);
* **determinism under faults** — when a
  :class:`~repro.runtime.faults.FaultPlan` is supplied, each write and
  each verification advances the plan's I/O op counters and consumes
  any due ``io_*`` spec, so CI can place a partial write, a corrupt
  read, or an ``ENOSPC`` at an exactly-reproducible operation.

Fault semantics (mirroring what real disks do):

``io_partial_write``
    the payload is truncated to half before the write, but the rename
    still lands and the *intended* checksum is returned — the writer
    believes it succeeded; only checksum verification on a later read
    can detect the tear.
``io_corrupt_read``
    :func:`verify_file` poisons the computed digest once, so a
    byte-identical file fails verification — bit-rot without touching
    the file.
``io_enospc``
    the write raises ``OSError(ENOSPC)`` before any bytes land.
"""

from __future__ import annotations

import errno
import hashlib
import os

from repro.errors import IOIntegrityError

__all__ = [
    "checksum_bytes",
    "checksum_file",
    "atomic_write_bytes",
    "atomic_write_text",
    "append_text",
    "verify_file",
    "quarantine",
    "CORRUPT_SUFFIX",
]

#: Suffix appended to artifacts that failed checksum verification.
CORRUPT_SUFFIX = ".corrupt"

_CHUNK = 1 << 20


def checksum_bytes(data: bytes) -> str:
    """sha256 content checksum, truncated to 16 hex chars (the same
    width as :func:`repro.runtime.progress.graph_fingerprint`)."""
    return hashlib.sha256(data).hexdigest()[:16]


def checksum_file(path: str | os.PathLike[str]) -> str:
    """Chunked :func:`checksum_bytes` of a file's current contents."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_CHUNK)
            if not block:
                break
            h.update(block)
    return h.hexdigest()[:16]


def _fsync_dir(path: str) -> None:
    # Directory fsync makes the rename itself durable; some platforms
    # (and some filesystems) refuse O_RDONLY dir fds — best-effort.
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | os.PathLike[str],
    data: bytes,
    *,
    faults=None,
    fsync: bool = True,
) -> str:
    """Atomically write ``data`` to ``path``; return its checksum.

    The returned checksum is always that of the *intended* payload —
    under an injected ``io_partial_write`` the file on disk is shorter,
    which is exactly how a torn write looks to a resuming process.
    """
    path = os.fspath(path)
    spec = faults.take_io_fault("write") if faults is not None else None
    if spec is not None and spec.kind == "io_enospc":
        raise OSError(
            errno.ENOSPC, f"injected ENOSPC at write op {faults.io_writes}", path
        )
    payload = data
    if spec is not None and spec.kind == "io_partial_write":
        payload = data[: len(data) // 2]
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(path)
    return checksum_bytes(data)


def atomic_write_text(
    path: str | os.PathLike[str], text: str, *, faults=None, fsync: bool = True
) -> str:
    """UTF-8 wrapper around :func:`atomic_write_bytes`."""
    return atomic_write_bytes(
        path, text.encode("utf-8"), faults=faults, fsync=fsync
    )


def append_text(
    path: str | os.PathLike[str], text: str, *, faults=None, fsync: bool = True
) -> None:
    """Append ``text`` (one progress log line) with fsync;
    fault-injectable.

    Appends are not atomic — a crash (or an injected partial write) can
    leave a torn trailing line, which is why every log line carries its
    own checksum and replay truncates the file back to the last valid
    line (see :mod:`repro.runtime.progress`).
    """
    path = os.fspath(path)
    spec = faults.take_io_fault("write") if faults is not None else None
    if spec is not None and spec.kind == "io_enospc":
        raise OSError(
            errno.ENOSPC, f"injected ENOSPC at write op {faults.io_writes}", path
        )
    payload = text.encode("utf-8")
    if spec is not None and spec.kind == "io_partial_write":
        payload = payload[: len(payload) // 2]
    with open(path, "ab") as fh:
        fh.write(payload)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())


def verify_file(
    path: str | os.PathLike[str], expected: str, *, faults=None
) -> None:
    """Verify ``path`` hashes to ``expected``; raise on mismatch.

    The read-side fault seam: an armed ``io_corrupt_read`` poisons the
    computed digest, so verification fails even though the bytes on
    disk are intact.  Raises :class:`~repro.errors.IOIntegrityError`
    carrying the path; the caller decides whether to quarantine.
    """
    path = os.fspath(path)
    spec = faults.take_io_fault("read") if faults is not None else None
    try:
        computed = checksum_file(path)
    except OSError as exc:
        raise IOIntegrityError(
            f"{path}: cannot read for verification: {exc}", path=path
        ) from exc
    if spec is not None and spec.kind == "io_corrupt_read":
        computed = checksum_bytes(b"io_corrupt_read:" + computed.encode())
    if computed != expected:
        raise IOIntegrityError(
            f"{path}: checksum mismatch (stored {expected}, computed "
            f"{computed}) — artifact is torn or corrupt",
            path=path,
        )


def quarantine(path: str | os.PathLike[str]) -> str:
    """Move a corrupt artifact aside as ``<path>.corrupt``; return the
    new name.  Never raises: quarantine is best-effort cleanup on an
    error path (a vanished file is already out of the way)."""
    path = os.fspath(path)
    target = f"{path}{CORRUPT_SUFFIX}"
    try:
        os.replace(path, target)
    except OSError:  # pragma: no cover - already gone / unwritable dir
        pass
    return target
