"""Streaming reference chunking for database search.

Long references (genomes, assembled contigs) are windowed into overlapping
chunks so the search pipeline (:mod:`repro.search`) can treat a multi-Mbp
database as a stream of fixed-extent candidate subjects.  The iterators
are lazy: chunks are NumPy *views* into the source sequence, so scanning a
50 Mbp genome allocates nothing per chunk.

Stitching guarantee: consecutive chunks of one sequence share ``overlap``
bases, so any interval of length ≤ ``overlap + 1`` lies entirely inside at
least one chunk — choose ``overlap ≥ max query length + expected indel
drift`` and no hit can be lost at a window boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.util.checks import ValidationError, check_positive
from repro.util.encoding import encode

__all__ = [
    "Chunk",
    "chunk_sequence",
    "chunk_records",
    "chunk_encoded_records",
    "check_windowing",
    "shard_of",
    "partition_chunks",
]


@dataclass(slots=True)
class Chunk:
    """One reference window: a view into the source sequence.

    ``id`` is the global chunk ordinal within one scan (stable across
    records); ``start`` is the 0-based offset of the window in its record.
    """

    id: int
    record: str
    start: int
    sequence: np.ndarray  # uint8 codes (a view, do not mutate)

    def __len__(self) -> int:
        return int(self.sequence.size)

    @property
    def end(self) -> int:
        """Exclusive end offset of the window in its record."""
        return self.start + int(self.sequence.size)


def check_windowing(window: int, overlap: int) -> None:
    """Require ``window > 0`` and ``0 ≤ overlap < window``."""
    check_positive(window, "window")
    if not 0 <= overlap < window:
        raise ValidationError(
            f"overlap must be in [0, window), got overlap={overlap} window={window}"
        )


def chunk_sequence(
    sequence,
    window: int,
    overlap: int = 0,
    *,
    name: str = "ref",
    start_id: int = 0,
) -> Iterator[Chunk]:
    """Window one sequence into overlapping chunks (lazy).

    Chunks start every ``window − overlap`` bases and are ``window`` long,
    except the final chunk which may be shorter (it always reaches the end
    of the sequence, so every base is covered).  ``overlap`` must be
    smaller than ``window``.
    """
    check_windowing(window, overlap)
    yield from _windows(encode(sequence), window, overlap, name, start_id)


def _windows(
    seq: np.ndarray, window: int, overlap: int, name: str, start_id: int
) -> Iterator[Chunk]:
    """Core windowing loop over an already-encoded array (zero-copy views)."""
    n = seq.size
    if n == 0:
        return
    stride = window - overlap
    cid = start_id
    pos = 0
    while True:
        end = min(n, pos + window)
        yield Chunk(id=cid, record=name, start=pos, sequence=seq[pos:end])
        if end >= n:
            return
        pos += stride
        cid += 1


def shard_of(chunk_id: int, num_shards: int) -> int:
    """Deterministic chunk → shard assignment: round-robin on the global id.

    A pure function of the chunk ordinal, so every process that windows the
    same reference with the same parameters agrees on ownership without any
    coordination — the invariant the sharded search subsystem
    (:mod:`repro.shard`) rests on.  Round-robin also balances load when
    admission density varies along the reference: neighbouring windows
    (which tend to admit together) land on different shards.
    """
    check_positive(num_shards, "num_shards")
    return chunk_id % num_shards


def partition_chunks(chunks: Iterable[Chunk], num_shards: int) -> list[list[Chunk]]:
    """Materialize a chunk stream into per-shard lists (same assignment).

    Used when the database is already windowed (a chunk iterator cannot be
    regenerated inside workers); each shard's list preserves scan order.
    """
    check_positive(num_shards, "num_shards")
    parts: list[list[Chunk]] = [[] for _ in range(num_shards)]
    for chunk in chunks:
        parts[shard_of(chunk.id, num_shards)].append(chunk)
    return parts


def chunk_encoded_records(
    records: Iterable, window: int, overlap: int = 0
) -> Iterator[Chunk]:
    """:func:`chunk_records` over *pre-encoded* ``(name, uint8 codes)`` pairs.

    The shared-memory reference path (:mod:`repro.shard.shm`) publishes
    records already encoded and validated, so re-running :func:`encode`'s
    per-call validation scan on every search would be pure waste.  This
    variant windows the arrays as given — every chunk is a zero-copy view
    into the caller's buffer (for a shared segment, directly into the
    mapped memory) — while producing exactly the global chunk ordinals of
    :func:`chunk_records` on the equivalent record stream, the invariant
    the sharded merge rests on.
    """
    check_windowing(window, overlap)
    next_id = 0
    for name, codes in records:
        if codes is None or codes.size == 0:
            continue
        chunk = None
        for chunk in _windows(codes, window, overlap, name, next_id):
            yield chunk
        if chunk is not None:
            next_id = chunk.id + 1


def chunk_records(records: Iterable, window: int, overlap: int = 0) -> Iterator[Chunk]:
    """Chain :func:`chunk_sequence` over FASTA records with global chunk ids.

    ``records`` is an iterable of :class:`~repro.workloads.fasta.FastaRecord`
    (or any object with ``name`` and ``sequence`` attributes); records with
    empty sequences are skipped.
    """
    next_id = 0
    for rec in records:
        seq = rec.sequence
        if seq is None or len(seq) == 0:
            continue
        for chunk in chunk_sequence(
            seq, window, overlap, name=rec.name, start_id=next_id
        ):
            yield chunk
            next_id = chunk.id + 1
