"""Shared-memory publication of the encoded reference.

Shipping a *pickled copy* of the encoded reference to every worker costs
O(N) payload transfer in the worker count — the dominant cost after
process spawn itself.  This module publishes the reference **once** into
a POSIX shared-memory segment (:mod:`multiprocessing.shared_memory`);
workers attach read-only and get zero-copy NumPy views, so payload
transfer is O(1) regardless of how many workers the pool runs.

Layout: all encoded records are concatenated into one segment; the
picklable :class:`SharedReferenceMeta` carries the segment name plus a
``(name, offset, length)`` table, which is all a worker needs to rebuild
per-record views.  The parent keeps the owning :class:`SharedSegment`
handle and is the only side that ever ``unlink``\\ s.

Resource-tracker hygiene: on Python < 3.13 *attaching* to a segment
registers it with the ``resource_tracker`` (no ``track=False`` yet), but
pool workers are always children of the publishing parent and children
inherit the parent's tracker fd under every start method — so the
attach-side registration is a duplicate add to the *same* shared name
set, and the parent's ``unlink()`` removes the single entry.  Nothing to
work around, and crucially nothing to ``unregister`` on the worker side:
an attach-side unregister would strip the parent's own registration and
make its later unlink trip a KeyError in the tracker daemon.  Exactly
one owner — the parent — is responsible for the ``/dev/shm`` entry.
Segment names are prefixed ``repro-shard-`` so tests can assert no entry
leaks.
"""

from __future__ import annotations

import hashlib
import os
import secrets
from dataclasses import dataclass

import numpy as np

from repro.util.checks import ReproError

__all__ = [
    "SEGMENT_PREFIX",
    "SharedReferenceMeta",
    "SharedSegment",
    "attach_segment",
    "fingerprint_records",
    "publish_records",
]

#: Every segment this module creates is named ``repro-shard-<pid>-<hex>``
#: — recognisable in ``/dev/shm`` so leak tests can assert cleanup.
SEGMENT_PREFIX = "repro-shard"


def _shared_memory(**kwargs):
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(**kwargs)


@dataclass(frozen=True)
class SharedReferenceMeta:
    """Picklable description of one published reference segment.

    ``records`` is a ``(name, offset, length)`` tuple per encoded record,
    offsets into the segment's single uint8 buffer; ``fingerprint`` is a
    content hash so pool owners can tell whether a database argument is
    the one already resident (reuse) or a new one (swap).
    """

    segment: str
    size: int
    records: tuple  # ((name, offset, length), ...)
    fingerprint: str


class SharedSegment:
    """Parent-side owning handle: close() detaches, unlink() destroys.

    Both are idempotent, and :meth:`destroy` does both — double-close
    must be safe because pool teardown can race worker-crash cleanup.
    """

    def __init__(self, shm, meta: SharedReferenceMeta):
        self._shm = shm
        self.meta = meta
        self._closed = False
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.meta.segment

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:  # a view still exported; mapping dies with us
            pass

    def unlink(self) -> None:
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass  # already gone (e.g. crash-path cleanup beat us)

    def destroy(self) -> None:
        """Unlink the name, then detach (idempotent)."""
        self.unlink()
        self.close()

    def __repr__(self):
        return (
            f"SharedSegment({self.meta.segment!r}, {self.meta.size} bytes, "
            f"{len(self.meta.records)} records)"
        )


def fingerprint_records(records) -> str:
    """Content hash of ``((name, uint8 codes), ...)`` encoded records.

    Every field is length-prefixed so the encoding is injective — without
    the prefixes, ``("ab", [1, 2])`` and ``("a", [0x62, 1, 2])`` would
    hash identically, and a collision here makes a pool skip a needed
    swap and serve the wrong resident reference.
    """
    h = hashlib.blake2b(digest_size=16)
    for name, codes in records:
        name_bytes = str(name).encode()
        code_bytes = np.ascontiguousarray(codes, dtype=np.uint8).tobytes()
        h.update(len(name_bytes).to_bytes(8, "little"))
        h.update(name_bytes)
        h.update(len(code_bytes).to_bytes(8, "little"))
        h.update(code_bytes)
    return h.hexdigest()


def publish_records(records) -> SharedSegment:
    """Copy encoded records into a fresh shared-memory segment.

    ``records`` is ``((name, uint8 codes), ...)`` — already encoded and
    validated by the caller, so attach-side windowing never re-validates.
    Returns the owning :class:`SharedSegment`; its picklable ``.meta`` is
    what crosses to workers.
    """
    table = []
    offset = 0
    for name, codes in records:
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        table.append((str(name), offset, int(codes.size)))
        offset += int(codes.size)
    size = max(1, offset)  # SharedMemory refuses zero-byte segments
    name = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(6)}"
    shm = _shared_memory(name=name, create=True, size=size)
    buf = np.frombuffer(shm.buf, dtype=np.uint8)
    for (_, off, length), (_, codes) in zip(table, records):
        if length:
            buf[off : off + length] = np.ascontiguousarray(codes, dtype=np.uint8)
    del buf  # drop the exported view so close() can succeed later
    meta = SharedReferenceMeta(
        segment=name,
        size=size,
        records=tuple(table),
        fingerprint=fingerprint_records(records),
    )
    return SharedSegment(shm, meta)


class AttachedReference:
    """Worker-side attachment: zero-copy record views over the segment.

    Not picklable — built *inside* the worker from a
    :class:`SharedReferenceMeta`.  ``close()`` drops the views and
    detaches; it never unlinks (the parent owns the name).
    """

    def __init__(self, meta: SharedReferenceMeta):
        try:
            self._shm = _shared_memory(name=meta.segment, create=False)
        except FileNotFoundError as exc:
            raise ReproError(
                f"shared reference segment {meta.segment!r} is gone "
                "(pool closed or reference swapped away?)"
            ) from exc
        self.meta = meta
        base = np.frombuffer(self._shm.buf, dtype=np.uint8)
        base.flags.writeable = False  # read-only: workers must not mutate
        self._views = tuple(
            (name, base[off : off + length]) for name, off, length in meta.records
        )
        self._closed = False

    def records(self) -> tuple:
        """``(name, uint8 view)`` pairs, zero-copy into the segment."""
        return self._views

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._views = ()
        try:
            self._shm.close()
        except BufferError:
            # A view escaped into a cache; the mapping lives until the
            # worker exits, but the name is still the parent's to unlink.
            pass


def attach_segment(meta: SharedReferenceMeta) -> AttachedReference:
    """Attach to a published segment (worker side, resource-tracker safe)."""
    return AttachedReference(meta)
