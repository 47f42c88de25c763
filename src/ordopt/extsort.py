"""Simulated-I/O external sort engine.

One replacement-selection core runs over each segment of tuples that share
their first k key positions; ``itertools.groupby`` splits the input into
segments, one at a time.  Segments that fit in memory are sorted and
emitted with no simulated I/O; larger ones form runs (roughly twice memory on
random input, one run on sorted input) that are merged.  The heap is emptied
at every segment boundary, so output starts after the first segment.

* ``sort_mrs``: k is the known prefix length of input already sorted on it.
  The heap left at the end of a segment stays in memory as one unwritten run
  that joins the final merge.
* ``sort_srs``: standard replacement selection, the same core with k = 0.
  The only difference is the end-of-input policy: the heap is drained into
  written runs, so every tuple of a spilled input is written and read back.

I/O is counted in blocks by ``_Run``, the one place that stores runs: in lists
or, with ``SortSpec.file_backed``, streamed into one temporary file per
spilled segment, so memory stays near the sort memory; the counters are the
same either way.  Comparison counts are logical key comparisons; the number of
key positions actually inspected is tracked separately.  Both are counted
exactly, by the key classes built per sort (``_counted_key``): every
comparison that ``list.sort`` or ``heapq`` makes calls a key's ``__lt__``.  A
key caches its record's key tuple and first sorted position, and settles keys
that differ there on a short path.  Only the run-formation heap's keys carry
run tags; the in-memory sort and the merges compare untagged keys.

Keys are refilled, not built per record.  Run formation refills the key it
pops with the next incoming record; each in-memory sort refills the first
keys of one pool of untagged keys per sort, growing it only for a larger
sort; a merge refills each stream's key with the stream's next record.  A
sort thus builds keys for its largest in-memory sort (a lone record is not
keyed), the heap of each spilling segment and each merge stream.  Pool keys
keep their last records until refilled: at most as many as the largest
in-memory sort.

A record is checked once, where ``groupby`` reads it, by its segment key:
it needs every key position the sort compares, then an int payload_bytes >= 1.

``Record`` is a plain slotted class, not a frozen one.  Every input tuple,
and every record read back from a spill file, is built once, and a frozen
dataclass stores each field through ``object.__setattr__``, which more than
doubles the cost of building one.  Nothing in ordopt mutates a Record.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import math
import os
import random
import struct
import tempfile
from dataclasses import dataclass

from .catalog_stats import BlockConfig
from .errors import ConfigError, UnsortedPrefix, ValidationError


@dataclass(slots=True)
class Record:
    """A sort tuple: fixed integer key vector plus a simulated byte width.

    Equal by value, not hashable, and not frozen, so that building one costs
    two plain slot stores; ordopt never mutates a Record once built.
    Sorts compare keys with `<`: lists mode takes any mutually comparable
    values (a `str` met by an `int` raises `TypeError`); a file-backed sort
    that spills stores keys and payload_bytes as int64s and rejects others.
    """

    keys: tuple[int, ...]
    payload_bytes: int


@dataclass(frozen=True)
class SortSpec:
    target_order_len: int
    known_prefix_len: int
    cfg: BlockConfig
    file_backed: bool = False  # spill runs to a real temp file instead of lists

    def __post_init__(self) -> None:
        for name in ("target_order_len", "known_prefix_len"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is not an int here
                raise ValidationError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.cfg, BlockConfig):
            raise ValidationError(f"cfg must be a BlockConfig, got {self.cfg!r}")
        if type(self.file_backed) is not bool:
            raise ValidationError(f"file_backed must be a bool, got {self.file_backed!r}")
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


def _counted_key(met: SortMetrics, lo: int, hi: int):
    """The key classes of one sort: ``Key``, and ``RunKey`` for run formation.

    ``Key(a) < Key(b)`` orders records a and b by key positions [lo, hi); it
    counts one in ``met.comparisons`` and each position it inspects in
    ``met.positions_inspected``.  A key caches its record's key tuple
    (``keys``) and position lo (``head``), so keys that differ at ``head`` are
    settled with no tuple load.  Three sites refill a built key for another
    record instead, setting ``rec``, ``keys`` and ``head`` together:
    ``_merge_streams`` for a stream's next record (``src`` holds the stream),
    and ``_replacement_selection`` for the record entering run formation (a
    ``RunKey``, whose ``run`` it sets before comparing) and for the records of
    each in-memory sort (its pool of ``Key``s).

    ``RunKey(rec, run)`` orders by run tag first; a comparison across runs
    counts nothing.  Its ``__lt__`` repeats ``Key.__lt__`` instead of calling
    it, which would add a Python call to every same-run comparison.

    Heaps hold keys themselves, not tuples of them: a tuple tests its items
    for equality first, and for a class with ``__lt__`` that default identity
    test costs more than the ``__lt__`` call.  Keys define no ``__eq__``;
    nothing compares keys for equality.
    """

    class Key:
        __slots__ = ("rec", "keys", "head", "src")
        head_at = lo  # the position that head caches

        def __init__(self, rec: Record):
            self.rec = rec
            self.keys = keys = rec.keys
            self.head = keys[lo]

        def __lt__(self, other: "Key") -> bool:
            met.comparisons += 1
            x = self.head
            y = other.head
            if x != y:
                met.positions_inspected += 1
                return x < y
            a = self.keys
            b = other.keys
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

    class RunKey(Key):
        __slots__ = ("run",)

        def __init__(self, rec: Record, run: int = 0):
            Key.__init__(self, rec)
            self.run = run

        def __lt__(self, other: "RunKey") -> bool:
            if self.run != other.run:
                return self.run < other.run
            met.comparisons += 1
            x = self.head
            y = other.head
            if x != y:
                met.positions_inspected += 1
                return x < y
            a = self.keys
            b = other.keys
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

    return Key, RunKey


def _fanin(cfg: BlockConfig) -> int:
    if cfg.memory_blocks < 3:
        raise ConfigError("external merging needs memory_blocks >= 3")
    return cfg.memory_blocks - 1


_KEY_COUNT = struct.Struct("<I")  # starts each record of a file-backed run


@functools.lru_cache(maxsize=16)
def _record_layout(n: int) -> struct.Struct:
    """A file-backed record with n keys: the key count, keys, payload width."""
    return struct.Struct(f"<I{n}qq")


class _Run:
    """One sorted run: written record by record as it forms (``add``), then
    ``close``d, which counts its blocks written; read back once by ``stream``,
    which counts them read.  In memory it is a list, ``add`` its append;
    file-backed, a stretch of its segment's spill file, read back by offset."""

    __slots__ = ("add", "blocks", "count", "_bytes", "_met", "_block_bytes", "_records", "_file", "_start", "_end")

    def __init__(self, met: SortMetrics, block_bytes: int, spill=None):
        self._met, self._block_bytes, self._file = met, block_bytes, spill
        self.count = self._bytes = 0
        if spill is None:
            self._records = []
            self.add = self._records.append
        else:
            self._start, self.add = spill.tell(), self._write

    def _write(self, r: Record) -> None:
        n = len(r.keys)
        try:
            packed = _record_layout(n).pack(n, *r.keys, r.payload_bytes)
        except struct.error:
            raise ValidationError(
                f"keys: {r.keys}: file-backed runs store keys and payload_bytes as 64-bit integers"
            ) from None
        self._file.write(packed)
        self.count += 1
        self._bytes += r.payload_bytes

    def close(self) -> "_Run":
        if self._file is None:
            self.count = len(self._records)
            self._bytes = sum(r.payload_bytes for r in self._records)
        else:
            self._file.flush()
            self._end = self._file.tell()
        self.blocks = math.ceil(self._bytes / self._block_bytes)
        self._met.run_blocks_written += self.blocks
        return self

    def stream(self):
        """The run's records, once."""
        self._met.run_blocks_read += self.blocks
        return iter(self._records) if self._file is None else self._read()

    def _read(self):
        """Unpack the run's stretch of the spill file, about a block at a time."""
        fd, pos, end = self._file.fileno(), self._start, self._end
        buf, want = b"", self._block_bytes
        while pos < end:
            more = os.pread(fd, min(want, end - pos), pos)
            pos += len(more)
            buf, at, want = buf + more, 0, self._block_bytes
            while len(buf) - at >= _KEY_COUNT.size:
                (n,) = _KEY_COUNT.unpack_from(buf, at)
                layout = _record_layout(n)
                if len(buf) - at < layout.size:  # read the rest of it next
                    want = max(want, layout.size - (len(buf) - at))
                    break
                vals = layout.unpack_from(buf, at)
                at += layout.size
                yield Record(vals[1 : n + 1], vals[n + 1])
            buf = buf[at:]


def _merge_streams(streams, key):
    """K-way merge of sorted record iterators, compared through the counted
    key class ``key``; each stream's key is reused for its next record."""
    lo = key.head_at
    heap = []
    for it in streams:
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
            top.keys = keys = nxt.keys
            top.head = keys[lo]
            heapq.heappush(heap, top)


def _reduce_runs(runs: list[_Run], fanin: int, keep_slots: int, key, new_run) -> None:
    """Merge the smallest runs into new ones until at most keep_slots remain.
    These intermediate merges read and write; only the caller's final merge
    streams without writing."""
    while len(runs) > keep_slots:
        runs.sort(key=lambda r: (r.blocks, r.count))
        chosen = runs[:fanin]
        del runs[: len(chosen)]
        merged = new_run()
        for r in _merge_streams([c.stream() for c in chosen], key):
            merged.add(r)
        runs.append(merged.close())


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

    ``itertools.groupby`` yields the segments, checking each record as it
    reads it; like any lookahead, it reads one record past a segment, so a
    malformed record that opens a segment stops the sort before the previous
    segment's output.  A segment that fits in memory is sorted there, with no
    simulated I/O.  A larger one is spilled as runs; at its end the heap is
    either drained into more written runs (``drain``) or kept as an in-memory
    run, and everything is merged.  The heap is popped only when an input
    tuple of the segment is waiting, or while draining.
    """
    cfg = spec.cfg
    hi = spec.target_order_len
    key, run_key = _counted_key(met, k, hi)
    capacity = cfg.memory_bytes
    pool: list = []  # untagged keys, refilled by each in-memory sort
    prev_prefix = None

    def checked_prefix(r: Record) -> tuple:
        keys = r.keys
        if len(keys) < hi:  # first: the prefix reads the keys
            raise ValidationError(f"keys: {keys} has fewer than the {hi} positions the sort compares")
        p = r.payload_bytes
        if type(p) is not int or p < 1:  # a bool is not an int here
            raise ValidationError(f"payload_bytes: {p!r} of keys {keys} is not an int >= 1")
        return keys[:k]

    for prefix, segment in itertools.groupby(records, checked_prefix):
        if prev_prefix is not None and not prev_prefix < prefix:
            raise UnsortedPrefix(
                f"prefix {prefix} arrived after {prev_prefix}; input is not "
                f"sorted on the first {k} key positions"
            )
        prev_prefix = prefix

        # Fill memory; r is left as the first record that did not fit, if any.
        memory, used = [], 0
        for r in segment:
            if memory and used + r.payload_bytes > capacity:
                break
            memory.append(r)
            used += r.payload_bytes
        else:
            r = None

        # A segment that overflows memory forms runs tagged by run number,
        # file-backed in one temp file that closes when its output ends.
        spills = r is not None and spec.file_backed
        with tempfile.TemporaryFile() if spills else contextlib.nullcontext() as spill:
            new_run = functools.partial(_Run, met, cfg.block_bytes, spill)
            runs: list[_Run] = []
            if r is not None:
                heap = [run_key(m) for m in memory]
                heapq.heapify(heap)
                new = run_key(r)  # r's key; the key each pop frees is refilled for the next r
                run = new_run()
                current_run = 0
                while r is not None or (drain and heap):
                    top = heapq.heappop(heap)
                    if top.run != current_run:
                        runs.append(run.close())
                        run = new_run()
                        current_run = top.run
                    run.add(top.rec)
                    if r is not None:
                        new.run = current_run
                        if new < top:
                            new.run = current_run + 1
                        heapq.heappush(heap, new)
                        r = next(segment, None)
                        if r is not None:
                            new = top
                            new.rec = r
                            new.keys = keys = r.keys
                            new.head = keys[k]
                runs.append(run.close())
                memory = [h.rec for h in heap]
            met.runs_generated += len(runs) or 1

            # Whatever stays in memory (a segment that fit, or the residual heap)
            # is sorted once and, next to any written runs, merged without a write.
            # The pool's first keys are refilled in memory's order, so list.sort
            # compares them exactly as sorted(memory, key=key) would (a whole
            # pool is sorted in place, saving a copy when segments are equal);
            # a lone record needs no sort and is not keyed.
            in_memory = memory
            if len(memory) > 1:
                for pk, m in zip(pool, memory):
                    pk.rec = m
                    pk.keys = keys = m.keys
                    pk.head = keys[k]
                if len(memory) > len(pool):
                    pool += map(key, memory[len(pool) :])
                keyed = pool if len(memory) == len(pool) else pool[: len(memory)]
                keyed.sort()
                in_memory = [pk.rec for pk in keyed]
            out = in_memory
            if runs:
                fanin = _fanin(cfg)
                _reduce_runs(runs, fanin, fanin - (1 if in_memory else 0), key, new_run)
                streams = [run.stream() for run in runs] + ([iter(in_memory)] if in_memory else [])
                assert len(streams) <= fanin
                out = _merge_streams(streams, key)
            if not met.tuples_in_before_first_out:  # the first segment, read whole
                met.tuples_in_before_first_out = len(in_memory) + sum(run.count for run in runs)
            yield from out


def gen_segmented_input(rows: int, segment_rows: int, key_positions: int, payload_bytes: int, seed: int):
    """Deterministic pseudo-random stream: the first key position is constant
    within a segment and increases across segments; the rest are uniform.
    The arguments are checked at the call, not at the first record."""
    if rows < 0 or segment_rows < 1 or key_positions < 1 or payload_bytes < 1:
        raise ValidationError("rows >= 0, segment_rows/key_positions/payload_bytes >= 1")

    def records():
        draw = random.Random(seed).getrandbits
        for i in range(rows):
            keys = [i // segment_rows]
            for _ in range(key_positions - 1):
                # randrange(2**31), inlined: it rejects 32-bit draws >= 2**31
                r = draw(32)
                while r >= 2**31:
                    r = draw(32)
                keys.append(r)
            yield Record(tuple(keys), payload_bytes)

    return records()
