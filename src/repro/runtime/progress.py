"""The progress log: one append-only record of a run's fold inputs.

Every engine here is a map over independent roots (or chunks of roots,
or shards) followed by an exact fold (Finocchi et al., "Clique counting
in MapReduce"), so a run's progress is just the fold inputs it has
consumed so far.  A progress log stores those and nothing else:

* line 1 is a **header** carrying the format version and the run's
  descriptor (engine, k, structure, kernel, graph/DAG fingerprints and
  any plan fingerprint), so a resume against other inputs is refused;
* every later line is one JSON object with its own content checksum,
  written by one fsync'd append.

Appends are not atomic, so a kill mid-append leaves a torn last line.
:meth:`ProgressLog.replay` reads the lines in order, stops at the first
one that fails to parse or verify, and truncates the file there: what a
replay returns is always a prefix of what was appended, and the next
append starts on a clean line.

The :class:`~repro.runtime.RunController` writes one line per save
point, holding the records folded since the last line that landed and
the budget meter (``{"records": [[key, record], ...], "spent": {...},
"complete": bool}``); an engine's :class:`Codec` turns its fold input
into JSON and back.  The shard executor writes its ``spill`` and
``done`` lines through the same class.  Counts are native JSON
integers and floats ``repr`` round-trip exactly, so a record folds
after a replay exactly as it did when it was appended.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.errors import CheckpointError

__all__ = [
    "PROGRESS_VERSION",
    "Codec",
    "ProgressLog",
    "graph_fingerprint",
    "array_fingerprint",
]

#: The one progress format.  Version 1 was the shard ledger; the
#: whole-state JSON checkpoints before it had their own version 1.
PROGRESS_VERSION = 2


def graph_fingerprint(g) -> str:
    """Stable identity of a CSR graph (structure, not object).

    Delegates to :meth:`CSRGraph.fingerprint
    <repro.graph.csr.CSRGraph.fingerprint>` when available (memoized
    on the immutable arrays, mutation-safe); the inline fallback keeps
    duck-typed graph stand-ins working.
    """
    fp = getattr(g, "fingerprint", None)
    if fp is not None:
        return fp()
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(g.indptr).tobytes())
    h.update(np.ascontiguousarray(g.indices).tobytes())
    h.update(b"directed" if g.directed else b"undirected")
    return h.hexdigest()[:16]


def array_fingerprint(arr) -> str:
    """Stable identity of an ordering's rank array (or any array)."""
    return hashlib.sha256(
        np.ascontiguousarray(np.asarray(arr)).tobytes()
    ).hexdigest()[:16]


class Codec(NamedTuple):
    """How one engine's fold input crosses a progress log:
    ``encode(record)`` returns it JSON-ready and ``decode`` inverts
    that, so the decoded record folds exactly like the original."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def _checksum(line: dict) -> str:
    """Checksum over a line's canonical encoding (every key but
    ``checksum``, sorted)."""
    body = json.dumps(
        {k: v for k, v in line.items() if k != "checksum"}, sort_keys=True
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def _stamped(line: dict) -> str:
    return json.dumps(dict(line, checksum=_checksum(line))) + "\n"


class ProgressLog:
    """An open progress log at ``path``: :meth:`create` starts one,
    :meth:`replay` reopens one, :meth:`append` adds a line."""

    def __init__(self, path: str | os.PathLike[str], *, faults=None) -> None:
        self.path = os.fspath(path)
        self.faults = faults

    @classmethod
    def create(
        cls, path: str | os.PathLike[str], descriptor: dict, *, faults=None
    ) -> "ProgressLog":
        """Start a fresh log (replacing any file at ``path``) whose
        header pins ``descriptor``.  A header that cannot be written
        raises :class:`~repro.errors.CheckpointError`."""
        from repro.shard import safeio

        log = cls(path, faults=faults)
        header = {"type": "header", "version": PROGRESS_VERSION,
                  "descriptor": descriptor}
        try:
            safeio.atomic_write_text(log.path, _stamped(header), faults=faults)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create progress log {log.path}: {exc}"
            ) from exc
        return log

    @classmethod
    def replay(
        cls, path: str | os.PathLike[str], descriptor: dict, *, faults=None
    ) -> tuple["ProgressLog", list[dict]]:
        """Reopen the log at ``path`` and return it with its lines after
        the header, in append order.

        A missing file, a header that fails to verify, another format
        version or a descriptor that differs from ``descriptor`` in any
        key raises :class:`~repro.errors.CheckpointError`.  Replay stops
        at the first line that fails to parse or verify, and truncates
        the file there.
        """
        log = cls(path, faults=faults)
        try:
            with open(log.path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read progress log {log.path}: {exc}"
            ) from exc
        lines: list[dict] = []
        end = 0
        while True:
            stop = raw.find(b"\n", end)
            if stop < 0:
                break  # no newline after it: a torn last line
            try:
                line = json.loads(raw[end:stop].decode("utf-8"))
            except ValueError:  # UnicodeDecodeError is one
                break
            if not isinstance(line, dict) or line.get("checksum") != _checksum(
                line
            ):
                break
            lines.append(line)
            end = stop + 1
        if not lines or lines[0].get("type") != "header":
            raise CheckpointError(_not_a_log(log.path, raw))
        version = lines[0].get("version")
        if version != PROGRESS_VERSION:
            raise CheckpointError(
                f"{log.path}: progress log version {version!r} (a shard "
                f"ledger from an older release); this release reads "
                f"version {PROGRESS_VERSION} only"
            )
        stored = lines[0].get("descriptor") or {}
        for key, want in descriptor.items():
            got = stored.get(key)
            if got != want:
                raise CheckpointError(
                    f"progress log {log.path} was written for {key}={got!r}, "
                    f"this run has {key}={want!r}"
                )
        if end < len(raw):
            with open(log.path, "r+b") as fh:
                fh.truncate(end)
        return log, lines[1:]

    def append(self, line: dict) -> None:
        """Append ``line`` with its checksum in one fsync'd write.  An
        ``OSError`` (such as an injected ``io_enospc``) propagates: the
        writer decides what a lost line costs."""
        from repro.shard import safeio

        safeio.append_text(self.path, _stamped(line), faults=self.faults)


def _not_a_log(path: str, raw: bytes) -> str:
    """The refusal for a file whose first line is no progress header,
    naming a whole-state JSON checkpoint from an older release."""
    try:
        old = json.loads(raw.decode("utf-8"))
    except ValueError:
        old = None
    if isinstance(old, dict) and "state" in old:
        return (
            f"{path} is a whole-state JSON checkpoint (version "
            f"{old.get('version')!r}) from an older release; this release "
            f"reads version {PROGRESS_VERSION} progress logs only"
        )
    return f"{path}: line 1: missing or corrupt progress log header"
