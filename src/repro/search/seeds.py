"""K-mer seeding: the cheap rejection stage of seed-and-verify.

Exact full-DP scoring of every query against every reference window is
quadratic waste — real database search (BLAST-family, read mappers) first
requires a handful of shared exact k-mers.  Two indexes meet here:

* :class:`QueryIndex` — the sorted distinct k-mers of one query set, with
  their owner queries and every (query, position) occurrence.  Built per
  search call.  :meth:`QueryIndex.hits` finds a sequence's k-mers that
  occur in the query set in one masked pass: k-mer codes in blocks of
  :data:`PASS_BLOCK` bases, every code whose low bits miss a membership
  mask of the query k-mers dropped, one ``searchsorted`` confirming the
  rest.
* :class:`ReferenceIndex` — a reference prepared once for many searches:
  its records encoded and validated once, plus one sorted k-mer table per
  k, built on first use (the layout of minimap2's reference index, Li
  2018).  Windowing is not part of it: windows follow each call's longest
  query, so every call maps its k-mer hits onto its own windows.
  :class:`ReferenceShard` is one pool worker's share of a reference
  already encoded in shared memory: it owns the windows
  :func:`~repro.workloads.chunks.shard_of` assigns it and finds its hits
  with the masked pass instead of a table (a table per worker, or one
  shared by all, would cost more resident memory than the pool's budget).

:class:`SeedPrefilter` adapts seeding to the pipeline's Prefilter protocol
and seeds from either kind of source:

* a :class:`ReferenceIndex` or :class:`ReferenceShard`
  (:meth:`SeedPrefilter.lookup`) — the k-mer hits come from the table
  (one ``searchsorted`` of the query k-mers, O(query + hits)) or from the
  masked pass, and :meth:`ReferenceIndex.seed` maps each onto the windows
  that hold it.  Only windows that admit a query are yielded; the others
  are accounted arithmetically.
* pre-windowed :class:`~repro.workloads.chunks.Chunk` streams — each window
  is scanned against the query index (:meth:`QueryIndex.seed_scan`).

Both compute the per-(window, query) distinct-seed count and seed-diagonal
envelope in one function (:meth:`QueryIndex.window_seeds`) and share one
admission and accounting path: a window expands into candidate
:class:`~repro.engine.stages.Request` objects for exactly the queries
sharing at least ``min_seeds`` distinct k-mers with it, and every rejected
(query, window) pair is counted with the cells the verify stage never has
to relax.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.engine.stages import Request
from repro.util.checks import ValidationError, check_positive
from repro.util.encoding import encode
from repro.workloads.chunks import Chunk, check_windowing, chunk_encoded_records, shard_of

__all__ = [
    "kmer_codes",
    "classify_database",
    "KmerTable",
    "QueryIndex",
    "ReferenceIndex",
    "ReferenceShard",
    "SeedPrefilter",
]

#: 4^k must stay inside int64: k ≤ 31.
MAX_K = 31

#: The masked pass (:meth:`QueryIndex.hits`) codes this many k-mers at a
#: time, keeping its int64 scratch at 512 KiB whatever the sequence length.
PASS_BLOCK = 1 << 16

#: The membership mask covers a code's low ``min(2k, MASK_BITS)`` bits: a
#: 1 MiB boolean array.
MASK_BITS = 20

#: Envelope sentinels: a (window, query) pair without seeds keeps
#: ``diag_lo > diag_hi``.
_BIG = np.int64(2**62)


def kmer_codes(sequence: np.ndarray, k: int) -> np.ndarray:
    """All overlapping k-mers of an encoded sequence as base-4 integers.

    One rolling code: each of the ``k`` passes shifts the next base in, so
    memory stays O(n) int64 whatever ``k`` is.
    """
    if not 1 <= k <= MAX_K:
        raise ValidationError(f"k must be in [1, {MAX_K}], got {k}")
    seq = np.asarray(sequence, dtype=np.uint8)
    n = seq.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    codes = seq[:n].astype(np.int64)
    for j in range(1, k):
        codes <<= 2
        codes |= seq[j : j + n]
    return codes


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` for every ``(s, c)``: CSR expansion."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total)


def classify_database(database, *, materialize: bool = False):
    """Tag a database argument: the one place its accepted shapes live.

    Returns ``(kind, value)`` where ``kind`` is ``"index"`` (a prepared
    :class:`ReferenceIndex`), ``"chunks"`` (pre-windowed — an iterator or
    list of :class:`~repro.workloads.chunks.Chunk`), ``"records"`` (a list
    of objects with ``name``/``sequence``), or ``"sequence"`` (a raw
    encoded array / string).  Every consumer of a ``database`` argument —
    :func:`~repro.search.pipeline.search`, :class:`ReferenceIndex` and the
    shard payload builders — classifies through here, so they cannot
    drift on what "anything search accepts" means.

    By contract an *iterator* database yields chunks; with
    ``materialize=False`` (the streaming default) it is passed through
    lazily, while ``materialize=True`` lists it out for consumers that
    must partition or replay it.
    """
    if isinstance(database, ReferenceIndex):
        return "index", database
    if hasattr(database, "__next__"):
        if not materialize:
            return "chunks", database  # lazy pre-windowed stream
        database = list(database)
    if isinstance(database, Chunk):
        return "chunks", [database]
    if isinstance(database, (list, tuple)) and database:
        if isinstance(database[0], Chunk):  # pre-windowed chunk list
            return "chunks", database
        if hasattr(database[0], "sequence"):  # FastaRecord list
            return "records", database
    if hasattr(database, "sequence"):  # single FastaRecord
        return "records", [database]
    return "sequence", database


class QueryIndex:
    """Inverted k-mer index over a query set.

    ``kmers`` is the sorted array of every distinct k-mer occurring in any
    query.  Its occurrences form a CSR table aligned with it: those of
    ``kmers[i]`` are ``occ_q`` / ``occ_pos`` over
    ``occ_ptr[i]:occ_ptr[i + 1]``, in (query, position) order.
    """

    def __init__(self, queries, k: int = 11):
        self.k = k
        self.queries = [encode(q) for q in queries]
        for qid, q in enumerate(self.queries):
            if q.size < k:
                raise ValidationError(
                    f"query {qid} is shorter ({q.size}) than the seed size k={k}"
                )
        self.lengths = np.array([q.size for q in self.queries], dtype=np.int64)
        per_query = [kmer_codes(q, k) for q in self.queries]
        sizes = np.array([c.size for c in per_query], dtype=np.int64)
        codes = np.concatenate(per_query) if per_query else np.empty(0, np.int64)
        qids = np.repeat(np.arange(sizes.size), sizes)
        pos = np.arange(codes.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # Stable: each k-mer's occurrences keep their (query, position) order.
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        self.occ_q = qids[order]
        self.occ_pos = pos[order]
        first = np.ones(codes.size, dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        self.kmers = codes[first]
        self.occ_ptr = np.append(np.flatnonzero(first), codes.size)
        self._mask = None  # built by the first masked pass

    def _membership(self) -> tuple[np.ndarray, int]:
        """Boolean mask over the low bits of every query k-mer's code."""
        low = (1 << min(2 * self.k, MASK_BITS)) - 1
        if self._mask is None:
            mask = np.zeros(low + 1, dtype=bool)
            mask[self.kmers & low] = True
            self._mask = mask
        return self._mask, low

    def __len__(self) -> int:
        return len(self.queries)

    def window_seeds(self, pos: np.ndarray, kidx: np.ndarray):
        """Seed counts and seed-diagonal envelopes of one window.

        ``pos`` and ``kidx`` list the window's k-mer hits: each hit's
        position inside the window and its index into ``kmers``.  Returns
        ``(counts, diag_lo, diag_hi)``, one entry per query: ``counts`` is
        the number of distinct k-mers the query shares with the window, and
        ``[diag_lo, diag_hi]`` spans the diagonals ``d = window position −
        query position`` of every shared-k-mer occurrence — the anchor the
        verify stage centres its band on.  Queries without seeds keep
        ``diag_lo > diag_hi`` sentinels.
        """
        nq, nk = len(self.queries), self.kmers.size
        counts = np.zeros(nq, dtype=np.int64)
        diag_lo = np.full(nq, _BIG)
        diag_hi = np.full(nq, -_BIG)
        if not kidx.size:
            return counts, diag_lo, diag_hi
        n_occ = self.occ_ptr[kidx + 1] - self.occ_ptr[kidx]
        occ = _ranges(self.occ_ptr[kidx], n_occ)
        q = self.occ_q[occ]
        diag = np.repeat(pos, n_occ) - self.occ_pos[occ]
        np.minimum.at(diag_lo, q, diag)
        np.maximum.at(diag_hi, q, diag)
        # Distinct shared k-mers: each (query, k-mer) pair counts once.
        pairs = np.unique(q * nk + np.repeat(kidx, n_occ))
        counts += np.bincount(pairs // nk, minlength=nq)
        return counts, diag_lo, diag_hi

    def hits(self, sequence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every k-mer of ``sequence`` that some query holds, in one masked pass.

        Returns ``(pos, kidx)`` in position order: each hit's offset in
        ``sequence`` and its index into ``kmers``.  Codes are computed
        :data:`PASS_BLOCK` at a time; a code whose low bits miss the
        membership mask cannot be a query k-mer and is dropped before the
        ``searchsorted`` that confirms the rest.
        """
        k, seq = self.k, np.asarray(sequence, dtype=np.uint8)
        n = seq.size - k + 1
        if n <= 0 or not self.kmers.size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        mask, low = self._membership()
        pos, kidx = [], []
        for start in range(0, n, PASS_BLOCK):
            codes = kmer_codes(seq[start : start + PASS_BLOCK + k - 1], k)
            keep = np.flatnonzero(mask[codes & low])
            codes = codes[keep]
            idx = np.minimum(np.searchsorted(self.kmers, codes), self.kmers.size - 1)
            found = self.kmers[idx] == codes
            pos.append(keep[found] + start)
            kidx.append(idx[found])
        return np.concatenate(pos), np.concatenate(kidx)

    def seed_scan(self, sequence: np.ndarray):
        """:meth:`window_seeds` of one window, its hits found by :meth:`hits`."""
        return self.window_seeds(*self.hits(sequence))


@dataclass(frozen=True)
class KmerTable:
    """Every k-mer of a reference, sorted by code.

    Ties keep (record, position) order.  ``codes`` is uint32 for k ≤ 16 and
    int64 above; ``record`` and ``pos`` are int32 — 12 bytes per reference
    base for k ≤ 16.
    """

    k: int
    codes: np.ndarray
    record: np.ndarray
    pos: np.ndarray


def _kmer_table(records, k: int) -> KmerTable:
    dtype = np.uint32 if k <= 16 else np.int64
    codes, rec, pos = [], [], []
    for rid, (_, seq) in enumerate(records):
        c = kmer_codes(seq, k)
        codes.append(c.astype(dtype))
        rec.append(np.full(c.size, rid, dtype=np.int32))
        pos.append(np.arange(c.size, dtype=np.int32))
    codes = np.concatenate(codes)
    order = np.argsort(codes, kind="stable")
    return KmerTable(
        k, codes[order], np.concatenate(rec)[order], np.concatenate(pos)[order]
    )


def _admitted(seeds, min_seeds: int):
    """The queries a window admits: ``(qids, counts, diag_lo, diag_hi)``.

    ``seeds`` is :meth:`QueryIndex.window_seeds`'s per-query triple; only
    the queries sharing at least ``min_seeds`` distinct k-mers with the
    window are kept, so a candidate window holds a few entries, not one
    per query.
    """
    counts, diag_lo, diag_hi = seeds
    qids = np.flatnonzero(counts >= min_seeds)
    return qids, counts[qids], diag_lo[qids], diag_hi[qids]


def _encode_record(name: str, sequence) -> np.ndarray:
    if sequence is None:
        return np.empty(0, dtype=np.uint8)
    try:
        return encode(sequence)
    except ValueError as exc:
        raise ValidationError(f"reference record {name!r}: {exc}") from exc


class ReferenceIndex:
    """A reference prepared once for many searches.

    ``records`` holds ``(name, uint8 codes)`` pairs, encoded and validated
    at construction (an invalid base raises :class:`ValidationError` here,
    not on every search).  :meth:`table` builds one :class:`KmerTable` per
    k-mer size on first use, under a lock, because ``kmer`` can be
    overridden per search.  Pass the index anywhere a ``database`` is
    accepted; :func:`~repro.search.pipeline.search` seeds through it with
    :meth:`seed` instead of scanning every window.
    """

    #: Shard ``shard_id`` of ``num_shards`` owns the windows
    #: :func:`~repro.workloads.chunks.shard_of` assigns it: all of them here.
    num_shards, shard_id = 1, 0

    def __init__(self, database):
        kind, value = classify_database(database, materialize=True)
        if kind in ("chunks", "index"):
            raise ValidationError(
                f"a ReferenceIndex is built from records or a sequence, not {kind}"
            )
        if kind == "records":
            pairs = [(rec.name, rec.sequence) for rec in value]
        else:
            pairs = [("ref", value)]
        self.records = tuple((name, _encode_record(name, seq)) for name, seq in pairs)
        self._tables: dict[int, KmerTable] = {}
        self._lock = threading.Lock()

    def table(self, k: int) -> KmerTable:
        """The sorted k-mer table for ``k`` (built once, on first use)."""
        with self._lock:
            table = self._tables.get(k)
            if table is None:
                table = self._tables[k] = _kmer_table(self.records, k)
        return table

    def hits(self, index: QueryIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every reference occurrence of a query k-mer: ``(record, pos, kidx)``.

        Looked up in the table: one ``searchsorted`` of the query k-mers.
        """
        table = self.table(index.k)
        keys = index.kmers.astype(table.codes.dtype)
        lo = np.searchsorted(table.codes, keys, side="left")
        n = np.searchsorted(table.codes, keys, side="right") - lo
        hit = _ranges(lo, n)
        kidx = np.repeat(np.arange(keys.size), n)
        return table.record[hit], table.pos[hit].astype(np.int64), kidx

    def chunks(self, window: int, overlap: int):
        """The windows this index seeds, cut as
        :func:`~repro.workloads.chunks.chunk_encoded_records` cuts them."""
        return (
            chunk
            for chunk in chunk_encoded_records(self.records, window, overlap)
            if shard_of(chunk.id, self.num_shards) == self.shard_id
        )

    def seed(self, index: QueryIndex, window: int, overlap: int, min_seeds: int):
        """Seed tables of the candidate windows of one windowing.

        The windows are those :meth:`chunks` yields — same ids, starts and
        extents; a candidate shares at least ``min_seeds`` distinct k-mers
        with some query.  Returns ``(candidates, windows, bases)``:
        ``candidates`` lists ``(chunk, qids, counts, diag_lo, diag_hi)``
        per candidate in id order, for the queries it admits only (see
        :func:`_admitted`); ``windows`` and ``bases`` count all the windows
        and their bases.
        """
        check_windowing(window, overlap)
        k, n, s = index.k, self.num_shards, self.shard_id
        stride = window - overlap
        lengths = np.array([codes.size for _, codes in self.records], dtype=np.int64)
        # Windows per record: starts every stride until one reaches the end.
        count = np.where(lengths > 0, np.maximum(0, -((window - lengths) // stride)) + 1, 0)
        first_id = np.cumsum(count) - count
        # Owned windows, and their bases: every window is full except the
        # last of each record.
        owned = int(count.sum() - s + n - 1) // n
        last = first_id + count - 1
        short = (count > 0) & (last % n == s)
        tail = window - (lengths - (count - 1) * stride)
        bases = owned * window - int(np.sum(tail[short]))
        rec, pos, kidx = self.hits(index)
        # A hit lies in window j of its record iff j·stride ≤ pos and
        # pos + k ≤ j·stride + window (the last window reaches the end).
        j_lo = np.maximum(0, -((window - k - pos) // stride))
        j_hi = np.minimum(pos // stride, count[rec] - 1)
        m = np.maximum(j_hi - j_lo + 1, 0)
        j = _ranges(j_lo, m)
        rec, kidx = np.repeat(rec, m), np.repeat(kidx, m)
        pos = np.repeat(pos, m) - j * stride  # now relative to the window
        wid = first_id[rec] + j
        mine = wid % n == s
        # Group this shard's hits by window id, ascending.
        order = np.flatnonzero(mine)[np.argsort(wid[mine], kind="stable")]
        wid, j, rec, pos, kidx = (a[order] for a in (wid, j, rec, pos, kidx))
        first = np.flatnonzero(np.diff(wid, prepend=-1))
        candidates = []
        for a, b in zip(first, np.append(first[1:], wid.size)):
            if b - a < min_seeds:  # too few hits to admit any query
                continue
            admitted = _admitted(index.window_seeds(pos[a:b], kidx[a:b]), min_seeds)
            if not admitted[0].size:
                continue
            name, codes = self.records[rec[a]]
            start = int(j[a]) * stride
            chunk = Chunk(
                id=int(wid[a]), record=name, start=start, sequence=codes[start : start + window]
            )
            candidates.append((chunk, *admitted))
        return candidates, owned, bases


class ReferenceShard(ReferenceIndex):
    """One shard's share of an encoded reference: no table, a masked pass.

    ``records`` are ``(name, uint8 codes)`` pairs already encoded and
    validated — in a pool worker, zero-copy views into the published
    shared-memory segment.  The shard owns the windows with
    ``shard_of(id, num_shards) == shard_id``; :meth:`hits` runs
    :meth:`QueryIndex.hits` over every record, so seeding costs one pass
    over the reference per call and no resident memory.  Drop the shard
    before detaching the segment its records view.
    """

    def __init__(self, records, num_shards: int, shard_id: int):
        check_positive(num_shards, "num_shards")
        if not 0 <= shard_id < num_shards:
            raise ValidationError(
                f"shard_id must be in [0, {num_shards}), got {shard_id}"
            )
        self.records = tuple(records)
        self.num_shards, self.shard_id = num_shards, shard_id

    def hits(self, index: QueryIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every reference occurrence of a query k-mer, by :meth:`QueryIndex.hits`."""
        empty = np.empty(0, dtype=np.int64)
        rec, pos, kidx = [empty], [empty], [empty]
        for rid, (_, codes) in enumerate(self.records):
            p, kx = index.hits(codes)
            rec.append(np.full(p.size, rid, dtype=np.int64))
            pos.append(p)
            kidx.append(kx)
        return np.concatenate(rec), np.concatenate(pos), np.concatenate(kidx)


@dataclass
class _Lookup:
    """First item of :meth:`SeedPrefilter.lookup`: expanding it runs the lookup."""

    reference: ReferenceIndex
    window: int
    overlap: int
    candidates: list = field(default_factory=list)


class SeedPrefilter:
    """Prefilter stage: a reference window → candidate Requests for seed-sharing queries.

    Satisfies the :class:`repro.engine.stages.Prefilter` protocol; the
    rejection counters feed the pipeline's cells-skipped accounting.
    Items are pre-windowed :class:`~repro.workloads.chunks.Chunk` objects
    (scanned one by one) or the items of :meth:`lookup`.
    """

    def __init__(self, index: QueryIndex, min_seeds: int = 2):
        self.index = index
        self.min_seeds = check_positive(min_seeds, "min_seeds")
        self.candidates = 0
        self.admitted = 0
        self.rejected = 0
        self.rejected_cells = 0

    def lookup(self, reference: ReferenceIndex, window: int, overlap: int):
        """Source over a :class:`ReferenceIndex`: the candidate windows only.

        Its first item is the lookup itself: expanding it runs
        :meth:`ReferenceIndex.seed`, so the pipeline times and traces the
        lookup as seeding, and accounts every window that admits no query.
        The windows that admit at least one query follow, in id order, one
        item each — the pipeline keeps reducing verified batches between
        them as it does between scanned windows.
        """
        item = _Lookup(reference, window, overlap)
        yield item
        yield from item.candidates

    def expand(self, item) -> list[Request]:
        if isinstance(item, Chunk):
            seeds = self.index.seed_scan(item.sequence)
            return self._admit(item, *_admitted(seeds, self.min_seeds))
        if isinstance(item, _Lookup):
            item.candidates = self._run_lookup(item)
            return []
        return self._admit(*item)

    def _run_lookup(self, item: _Lookup) -> list:
        candidates, windows, bases = item.reference.seed(
            self.index, item.window, item.overlap, self.min_seeds
        )
        rejected_bases = bases - sum(len(chunk) for chunk, *_ in candidates)
        self._count(windows - len(candidates), 0, self.index.lengths.sum() * rejected_bases)
        return candidates

    def _admit(self, chunk: Chunk, qids, counts, diag_lo, diag_hi) -> list[Request]:
        lengths = self.index.lengths
        self._count(1, qids.size, (lengths.sum() - lengths[qids].sum()) * len(chunk))
        return [
            Request(
                key=(int(qid), chunk.id),
                query=self.index.queries[qid],
                subject=chunk.sequence,
                meta={
                    "query_id": int(qid),
                    "chunk": chunk,
                    "seeds": int(n),
                    # Seed-diagonal envelope: an admitted query always has
                    # ≥ min_seeds ≥ 1 seeds, so the envelope is real.
                    "diag_lo": int(lo),
                    "diag_hi": int(hi),
                },
            )
            for qid, n, lo, hi in zip(qids, counts, diag_lo, diag_hi)
        ]

    def _count(self, windows: int, admitted: int, rejected_cells) -> None:
        """Fold ``windows`` windows' (query, window) dispositions into the counters."""
        candidates = windows * len(self.index)
        self.candidates += candidates
        self.admitted += int(admitted)
        self.rejected += candidates - int(admitted)
        self.rejected_cells += int(rejected_cells)
