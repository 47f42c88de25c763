"""Simulated-I/O external sort engine.

One replacement-selection core runs over each segment of tuples that share
their first k key positions.  Segments that fit in memory are sorted and
emitted with no simulated I/O; larger ones form runs (roughly twice memory on
random input, one run on sorted input) that are merged.  The heap is emptied
at every segment boundary, so output starts after the first segment.

* ``sort_mrs``: k is the known prefix length of input already sorted on it.
  The heap left at the end of a segment stays in memory as one unwritten run
  that joins the final merge.
* ``sort_srs``: standard replacement selection, the same core with k = 0.
  The only difference is the end-of-input policy: the heap is drained into
  written runs, so every tuple of a spilled input is written and read back.

I/O is counted in blocks against "runs", held in lists or, with
``SortSpec.file_backed``, in real temporary files; the counters are the same
either way.  Comparison counts are logical key comparisons; the number of key
positions actually inspected is tracked separately.  Both are counted exactly,
by one key class built per sort (``_counted_key``): every comparison that
``sorted`` or ``heapq`` makes calls its ``__lt__``, which takes a short path
when the keys differ at the first sorted position.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
import struct
import tempfile
from dataclasses import dataclass

from .catalog_stats import BlockConfig
from .errors import ConfigError, UnsortedPrefix, ValidationError


@dataclass(frozen=True, slots=True)
class Record:
    """A sort tuple: fixed integer key vector plus a simulated byte width."""

    keys: tuple[int, ...]
    payload_bytes: int


@dataclass(frozen=True)
class SortSpec:
    target_order_len: int
    known_prefix_len: int
    cfg: BlockConfig
    file_backed: bool = False  # spill runs to real temp files instead of lists

    def __post_init__(self) -> None:
        if self.target_order_len < 1:
            raise ValidationError("target_order_len must be >= 1")
        if not (0 <= self.known_prefix_len < self.target_order_len):
            raise ValidationError("known_prefix_len must be in [0, target_order_len)")


@dataclass
class SortMetrics:
    run_blocks_written: int = 0
    run_blocks_read: int = 0
    comparisons: int = 0
    positions_inspected: int = 0
    tuples_in_before_first_out: int = 0
    runs_generated: int = 0


class _Source:
    """One-slot lookahead over the input; only take() counts as consumed, and
    it consumes the tuple the last peek() returned."""

    __slots__ = ("_it", "_head", "_has_head", "taken")

    def __init__(self, it):
        self._it = iter(it)
        self._head = None
        self._has_head = False
        self.taken = 0

    def peek(self, k: int = 0, prefix: tuple = ()):
        """The next tuple if its first k keys equal prefix, else None."""
        if not self._has_head:
            self._head = next(self._it, None)
            self._has_head = True
        r = self._head
        if r is None:
            return None
        keys = r.keys
        i = 0
        while i < k:  # position by position: a slice would make a tuple per tuple
            if keys[i] != prefix[i]:
                return None
            i += 1
        return r

    def take(self):
        self._has_head = False
        self.taken += 1
        return self._head


def _counted_key(met: SortMetrics, lo: int, hi: int):
    """The key class of one sort.

    ``Key(a) < Key(b)`` orders records a and b by run tag, then by key
    positions [lo, hi).  Only a comparison of keys with equal tags counts:
    one in ``met.comparisons``, and each position it inspects in
    ``met.positions_inspected``.  Heaps hold keys themselves, not tuples of
    them: a tuple tests its items for equality first, and for a class with
    ``__lt__`` that default identity test costs more than the ``__lt__``
    call.  Key defines no ``__eq__``; nothing compares keys for equality.
    ``src`` holds the stream of a merge's key.
    """

    class Key:
        __slots__ = ("rec", "run", "src")

        def __init__(self, rec: Record, run: int = 0):
            self.rec = rec
            self.run = run

        def __lt__(self, other: "Key") -> bool:
            if self.run != other.run:
                return self.run < other.run
            a = self.rec.keys
            b = other.rec.keys
            met.comparisons += 1
            x = a[lo]
            y = b[lo]
            if x != y:
                met.positions_inspected += 1
                return x < y
            i = lo + 1
            while i < hi:
                x = a[i]
                y = b[i]
                if x != y:
                    met.positions_inspected += i - lo + 1
                    return x < y
                i += 1
            met.positions_inspected += hi - lo
            return False

    return Key


def _run_blocks(records, block_bytes: int) -> int:
    total = sum(r.payload_bytes for r in records)
    return math.ceil(total / block_bytes) if total else 0


def _fanin(cfg: BlockConfig) -> int:
    if cfg.memory_blocks < 3:
        raise ConfigError("external merging needs memory_blocks >= 3")
    return cfg.memory_blocks - 1


#: The 32-bit key count that starts each record of a file-backed run.
_KEY_COUNT = struct.Struct("<I")


@functools.lru_cache(maxsize=16)
def _record_layouts(n: int) -> tuple[struct.Struct, struct.Struct]:
    """The layout of a file-backed run record with n keys (a 32-bit key
    count, the keys, the payload width) and of its part after the count.
    Built once per key count, not once per record."""
    return struct.Struct(f"<I{n}qq"), struct.Struct(f"<{n}qq")


class _Run:
    """One sorted run: an in-memory list, or a real temp file when the sort
    is file-backed."""

    __slots__ = ("blocks", "count", "_records", "_file")

    def __init__(self, records: list[Record], block_bytes: int, file_backed: bool):
        self.blocks = _run_blocks(records, block_bytes)
        self.count = len(records)
        if file_backed:
            self._records = None
            self._file = tempfile.TemporaryFile()
            write = self._file.write
            for r in records:
                keys = r.keys
                n = len(keys)
                write(_record_layouts(n)[0].pack(n, *keys, r.payload_bytes))
            self._file.flush()
        else:
            self._records = records
            self._file = None

    def stream(self):
        """The run's records, once: a file-backed run's file closes after."""
        if self._records is not None:
            yield from self._records
            return
        try:
            self._file.seek(0)
            read = self._file.read
            while True:
                raw = read(_KEY_COUNT.size)
                if not raw:
                    return
                (n,) = _KEY_COUNT.unpack(raw)
                body = _record_layouts(n)[1]
                vals = body.unpack(read(body.size))
                yield Record(vals[:n], vals[n])
        finally:
            self._file.close()


def _merge_streams(streams, key):
    """K-way merge of sorted record iterators, compared through the counted
    key class ``key``; each stream's key is reused for its next record."""
    heap = []
    for s in streams:
        it = iter(s)
        first = next(it, None)
        if first is not None:
            k = key(first)
            k.src = it
            heap.append(k)
    heapq.heapify(heap)
    while heap:
        top = heapq.heappop(heap)
        yield top.rec
        nxt = next(top.src, None)
        if nxt is not None:
            top.rec = nxt
            heapq.heappush(heap, top)


def _write_run(records: list[Record], spec: SortSpec, met: SortMetrics) -> _Run:
    """Spill one sorted run, counting the blocks it writes."""
    run = _Run(records, spec.cfg.block_bytes, spec.file_backed)
    met.run_blocks_written += run.blocks
    return run


def _read_runs(runs: list[_Run], met: SortMetrics) -> list:
    """Open every run for merging, counting the blocks it reads."""
    met.run_blocks_read += sum(r.blocks for r in runs)
    return [r.stream() for r in runs]


def _reduce_runs(runs: list[_Run], keep_slots: int, met: SortMetrics, key, spec: SortSpec) -> None:
    """Merge the smallest runs together until at most keep_slots remain.

    Intermediate merges read their inputs and write the merged run; only the
    final merge (done by the caller) streams without writing.
    """
    fanin = _fanin(spec.cfg)
    while len(runs) > keep_slots:
        runs.sort(key=lambda r: (r.blocks, r.count))
        chosen = runs[: min(fanin, len(runs))]
        del runs[: len(chosen)]
        merged = list(_merge_streams(_read_runs(chosen, met), key))
        runs.append(_write_run(merged, spec, met))


def sort_srs(records, spec: SortSpec):
    """Standard replacement selection; returns (output stream, metrics).

    This is the sort_mrs core with no known prefix, so the whole input is one
    segment; unlike sort_mrs, it drains the heap into written runs at end of
    input.  Metrics are complete once the stream is exhausted.
    """
    met = SortMetrics()
    return _replacement_selection(records, spec, met, 0, drain=True), met


def sort_mrs(records, spec: SortSpec):
    """Segment-aware replacement selection; returns (output stream, metrics).

    The input must already be sorted on its first known_prefix_len key
    positions; each maximal group of tuples sharing a prefix value is sorted
    independently and emitted as soon as the next segment starts.  The heap
    left at the end of a spilled segment stays in memory as one unwritten run
    that joins the segment's final merge.
    """
    met = SortMetrics()
    return _replacement_selection(records, spec, met, spec.known_prefix_len, drain=False), met


def _replacement_selection(records, spec: SortSpec, met: SortMetrics, k: int, drain: bool):
    """Replacement selection over each segment of equal first-k keys.

    A segment that fits in memory is sorted there, with no simulated I/O.  A
    larger one is spilled as runs; at its end the heap is either drained into
    more written runs (``drain``) or kept as an in-memory run, and everything
    is merged.  The heap is popped only when an input tuple of the segment is
    waiting, or while draining.
    """
    cfg = spec.cfg
    key = _counted_key(met, k, spec.target_order_len)
    src = _Source(records)
    capacity = cfg.memory_bytes
    prev_prefix = None

    while (head := src.peek()) is not None:
        prefix = head.keys[:k]
        if prev_prefix is not None and not prev_prefix < prefix:
            raise UnsortedPrefix(
                f"prefix {prefix} arrived after {prev_prefix}; input is not "
                f"sorted on the first {k} key positions"
            )
        prev_prefix = prefix

        memory: list[Record] = []
        used = 0
        while (r := src.peek(k, prefix)) is not None and (not memory or used + r.payload_bytes <= capacity):
            memory.append(src.take())
            used += r.payload_bytes

        runs: list[_Run] = []
        if r is not None:
            # The segment overflows memory: form runs tagged by run number.
            heap = [key(m) for m in memory]
            heapq.heapify(heap)
            current: list[Record] = []
            current_run = 0
            while (r := src.peek(k, prefix)) is not None or (drain and heap):
                top = heapq.heappop(heap)
                run = top.run
                if run != current_run:
                    runs.append(_write_run(current, spec, met))
                    current = []
                    current_run = run
                current.append(top.rec)
                if r is not None:
                    src.take()
                    new = key(r, current_run)
                    if new < top:
                        new.run = current_run + 1
                    heapq.heappush(heap, new)
            runs.append(_write_run(current, spec, met))
            memory = [h.rec for h in heap]
        met.runs_generated += len(runs) or 1

        # Whatever stays in memory (a segment that fit, or the residual heap)
        # is sorted once and, next to any written runs, merged without a write.
        in_memory = sorted(memory, key=key)
        out = in_memory
        if runs:
            _reduce_runs(runs, _fanin(cfg) - (1 if in_memory else 0), met, key, spec)
            streams = _read_runs(runs, met) + ([iter(in_memory)] if in_memory else [])
            assert len(streams) <= _fanin(cfg)
            out = _merge_streams(streams, key)
        if not met.tuples_in_before_first_out:  # every segment emits a tuple
            met.tuples_in_before_first_out = src.taken
        yield from out


def gen_segmented_input(rows: int, segment_rows: int, key_positions: int, payload_bytes: int, seed: int):
    """Deterministic pseudo-random stream: the first key position is constant
    within a segment and increases across segments; the rest are uniform."""
    if rows < 0 or segment_rows < 1 or key_positions < 1 or payload_bytes < 1:
        raise ValidationError("rows >= 0, segment_rows/key_positions/payload_bytes >= 1")
    rng = random.Random(seed)
    for i in range(rows):
        keys = (i // segment_rows,) + tuple(
            rng.randrange(2**31) for _ in range(key_positions - 1)
        )
        yield Record(keys, payload_bytes)
