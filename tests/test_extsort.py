import dataclasses
import gc
import hashlib
import json
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordopt import extsort
from ordopt import (
    BlockConfig,
    ConfigError,
    Record,
    SortMetrics,
    SortSpec,
    UnsortedPrefix,
    ValidationError,
    gen_segmented_input,
    reference_sort,
    sort_mrs,
    sort_srs,
)

from conftest import child_env


def _spec(mem=64, block=4096, keys=2, prefix=1):
    return SortSpec(keys, prefix, BlockConfig(block_bytes=block, memory_blocks=mem))


def _srs_spec(mem=64, block=4096, keys=2):
    return SortSpec(keys, 0, BlockConfig(block_bytes=block, memory_blocks=mem))


def _run(fn, stream, spec):
    out, met = fn(stream, spec)
    return list(out), met


def test_sorted_input_single_run_any_size():
    sorted_small = [Record((i, 0), 100) for i in range(50)]
    _, met = _run(sort_srs, sorted_small, _srs_spec(mem=64))
    assert met.runs_generated == 1
    assert met.run_blocks_written == 0  # fits in memory
    sorted_big = [Record((i, 0), 100) for i in range(20000)]
    out, met = _run(sort_srs, sorted_big, _srs_spec(mem=4, block=1024))
    assert met.runs_generated == 1
    assert met.run_blocks_written > 0
    assert [r.keys for r in out] == [r.keys for r in sorted_big]


def test_in_memory_random_input_no_io():
    stream = list(gen_segmented_input(500, 50, 2, 100, 3))
    out, met = _run(sort_srs, stream, _srs_spec(mem=64))
    assert met.run_blocks_written == met.run_blocks_read == 0
    assert [r.keys for r in out] == [r.keys for r in reference_sort(stream)]


def test_external_matches_reference():
    stream = list(gen_segmented_input(5000, 5000, 2, 100, 4))
    out, met = _run(sort_srs, stream, _srs_spec(mem=4, block=1024))
    assert met.run_blocks_written > 0
    assert [r.keys for r in out] == [r.keys for r in reference_sort(stream)]


def test_mrs_zero_io_when_segments_fit():
    stream = list(gen_segmented_input(2000, 100, 2, 100, 5))
    out, met = _run(sort_mrs, stream, _spec(mem=4, block=4096))
    assert met.run_blocks_written == met.run_blocks_read == 0
    assert [r.keys for r in out] == [r.keys for r in reference_sort(stream)]


def test_mrs_first_output_after_one_segment():
    out, met = _run(sort_mrs, gen_segmented_input(5000, 500, 2, 100, 6), _spec(mem=64))
    assert met.tuples_in_before_first_out == 500
    _, met_srs = _run(sort_srs, gen_segmented_input(5000, 500, 2, 100, 6), _srs_spec(mem=64))
    assert met_srs.tuples_in_before_first_out == 5000


@pytest.mark.parametrize(
    "fn, spec, segment_rows, pulled, before_first_out",
    [
        (sort_mrs, _spec(mem=64), 500, 501, 500),  # first segment fits in memory
        (sort_mrs, _spec(mem=4, block=1024), 3000, 3001, 3000),  # first segment spills
        (sort_mrs, SortSpec(2, 1, BlockConfig(1024, 4), file_backed=True), 3000, 3001, 3000),
        (sort_srs, _srs_spec(mem=64), 500, 10000, 10000),  # one segment: the whole input
    ],
    ids=["mrs_fits", "mrs_spills", "mrs_spills_file_backed", "srs"],
)
def test_first_output_reads_one_record_past_the_first_segment(fn, spec, segment_rows, pulled, before_first_out):
    pulls = 0

    def counted():
        nonlocal pulls
        for r in gen_segmented_input(10000, segment_rows, 2, 100, 15):
            pulls += 1
            yield r

    out, met = fn(counted(), spec)
    next(out)
    assert pulls == pulled
    assert met.tuples_in_before_first_out == before_first_out


def test_mrs_spilling_segments_match_reference():
    stream = list(gen_segmented_input(4000, 1000, 2, 100, 7))
    spec = _spec(mem=4, block=1024)  # segment of 1000*100B far exceeds 4KiB memory
    out, met = _run(sort_mrs, stream, spec)
    assert met.run_blocks_written > 0
    assert [r.keys for r in out] == [r.keys for r in reference_sort(stream)]


def test_mrs_rejects_unsorted_prefix():
    bad = [Record((5, 1), 10), Record((5, 0), 10), Record((3, 2), 10)]
    out, _ = sort_mrs(bad, _spec(mem=8))
    with pytest.raises(UnsortedPrefix):
        list(out)
    # reappearance after a different value is the classic case
    bad = [Record((1, 0), 10), Record((2, 0), 10), Record((1, 1), 10)]
    out, _ = sort_mrs(bad, _spec(mem=8))
    with pytest.raises(UnsortedPrefix):
        list(out)


def test_mrs_degenerate_cases():
    # singleton segments: trivially no I/O
    stream = list(gen_segmented_input(300, 1, 2, 100, 8))
    _, met = _run(sort_mrs, stream, _spec(mem=4))
    assert met.run_blocks_written == 0
    # single-segment input, single merge pass: metrics match plain
    # replacement selection up to the residual memory load that the
    # segment-aware variant streams instead of spilling
    stream = list(gen_segmented_input(3000, 3000, 2, 100, 9))
    _, m_mrs = _run(sort_mrs, stream, _spec(mem=64, block=1024))
    _, m_srs = _run(sort_srs, stream, _srs_spec(mem=64, block=1024))
    # one memory-load of blocks plus per-run rounding
    assert abs(m_mrs.run_blocks_written - m_srs.run_blocks_written) <= 64 + m_srs.runs_generated
    heap_tuples = 64 * 1024 // 100
    rebuild = heap_tuples * 16  # generous bound for one heap rebuild
    assert abs(m_mrs.comparisons - m_srs.comparisons) <= rebuild


def test_merge_fan_in_respected_with_many_runs():
    stream = list(gen_segmented_input(3000, 3000, 2, 100, 10))
    spec = _srs_spec(mem=3, block=512)  # fan-in 2 forces multiple merge passes
    out, met = _run(sort_srs, stream, spec)
    assert [r.keys for r in out] == [r.keys for r in reference_sort(stream)]
    assert met.run_blocks_read > met.run_blocks_written - met.run_blocks_read  # multi-pass


def test_external_merge_requires_three_blocks():
    stream = list(gen_segmented_input(1000, 1000, 2, 100, 11))
    out, _ = sort_srs(stream, _srs_spec(mem=2, block=512))
    with pytest.raises(ConfigError):
        list(out)


def test_fewer_comparisons_with_segments():
    # the whole input exceeds memory (replacement selection with a full
    # heap), while each of the k segments fits comfortably
    n, k = 20000, 100
    stream = list(gen_segmented_input(n, n // k, 2, 100, 12))
    _, m_mrs = _run(sort_mrs, stream, _spec(mem=100))
    _, m_srs = _run(sort_srs, stream, _srs_spec(mem=100))
    assert m_mrs.comparisons < m_srs.comparisons
    assert m_mrs.positions_inspected < m_srs.positions_inspected
    import math

    bound = (math.log2(n / k) + 2) / math.log2(n)
    assert m_mrs.comparisons / m_srs.comparisons <= bound


def test_generator_is_deterministic():
    a = list(gen_segmented_input(1000, 10, 3, 64, 42))
    b = list(gen_segmented_input(1000, 10, 3, 64, 42))
    assert a == b
    assert len({r.keys[0] for r in a}) == 100
    with pytest.raises(ValidationError):
        list(gen_segmented_input(10, 0, 2, 100, 1))


@pytest.mark.parametrize("args", [
    (-1, 1, 1, 1, 0),
    (10, 0, 1, 1, 0),
    (10, 1, 0, 1, 0),
    (10, 1, 1, 0, 0),
])
def test_generator_checks_its_arguments_at_the_call(args):
    # not at the first record: a bad stream fails before anything iterates it
    with pytest.raises(ValidationError):
        gen_segmented_input(*args)


@pytest.mark.parametrize("key_positions, digest", [
    (1, "e6914857d7de4bdc"),
    (2, "8e3c4f2598f9f677"),  # the CLI default --keys
    (3, "69d8359d1b79807e"),
])
def test_generator_stream_bytes(key_positions, digest):
    # the exact stream `ordopt sort` and `bench a3` read: keys, widths, draws
    assert _digest(gen_segmented_input(4000, 250, key_positions, 200, 7)) == digest


def test_record_is_a_slotted_value():
    r = Record((1, 2), 10)
    assert r == Record((1, 2), 10)
    assert r != Record((1, 3), 10) and r != Record((1, 2), 11)
    assert repr(r) == "Record(keys=(1, 2), payload_bytes=10)"
    assert Record.__slots__ == ("keys", "payload_bytes")
    assert not hasattr(r, "__dict__")
    # not frozen, so not hashable: nothing keys a dict or set by a Record
    with pytest.raises(TypeError):
        hash(r)


def test_file_backed_run_reads_back_equal_records():
    written = list(gen_segmented_input(300, 300, 3, 37, 5)) + [Record((9,), 1)]
    with tempfile.TemporaryFile() as spill:
        run = extsort._Run(SortMetrics(), 64, spill)
        for r in written:
            run.add(r)
        read = list(run.close().stream())
    assert read == written
    assert all(a is not b for a, b in zip(read, written))


def test_file_backed_mode_matches_simulated():
    stream = list(gen_segmented_input(3000, 1000, 2, 100, 14))
    cfg = BlockConfig(block_bytes=1024, memory_blocks=8)
    for fn, prefix in ((sort_srs, 0), (sort_mrs, 1)):
        sim_out, sim_met = fn(iter(stream), SortSpec(2, prefix, cfg))
        sim = [r.keys for r in sim_out]
        fb_out, fb_met = fn(iter(stream), SortSpec(2, prefix, cfg, file_backed=True))
        fb = [r.keys for r in fb_out]
        assert sim == fb
        assert sim_met == fb_met
        assert fb_met.run_blocks_written > 0


def test_file_backed_run_holds_65536_key_positions():
    # more key positions than a 16-bit count holds; mostly-zero keys that
    # differ at the first position keep every comparison to one position
    zeros = (0,) * 65535
    stream = [Record(((i * 7) % 12,) + zeros, 10) for i in range(12)]
    cfg = BlockConfig(block_bytes=10, memory_blocks=3)
    sim_out, sim_met = sort_srs(iter(stream), SortSpec(65536, 0, cfg))
    sim = list(sim_out)
    fb_out, fb_met = sort_srs(iter(stream), SortSpec(65536, 0, cfg, file_backed=True))
    assert list(fb_out) == sim == sorted(stream, key=lambda r: r.keys)
    assert fb_met == sim_met
    assert fb_met.run_blocks_written > 0


def test_file_backed_spill_files_close_even_when_output_is_abandoned(monkeypatch):
    opened = []

    def temporary_file():
        f = real_temporary_file()
        opened.append(f)
        return f

    real_temporary_file = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    spec = SortSpec(2, 1, BlockConfig(block_bytes=1024, memory_blocks=8), file_backed=True)
    # three segments, each larger than memory: one spill file each, opened as
    # the segment spills and closed when its output ends
    out, _ = sort_mrs(gen_segmented_input(3000, 1000, 2, 100, 14), spec)
    assert opened == []
    next(out)
    assert len(opened) == 1 and not opened[0].closed
    del out  # abandoned after one record
    gc.collect()
    assert opened[0].closed
    out, _ = sort_mrs(gen_segmented_input(3000, 1000, 2, 100, 14), spec)
    assert len(list(out)) == 3000
    assert len(opened) == 4 and all(f.closed for f in opened)
    # segments that fit in memory open no file
    out, _ = sort_mrs(gen_segmented_input(3000, 50, 2, 100, 14), spec)
    assert len(list(out)) == 3000
    assert len(opened) == 4


@pytest.mark.parametrize(
    "rows, segment_rows, mem, block",
    [
        (20000, 1, 64, 4096),  # sorted: one run of about 15x memory
        (12000, 12000, 8, 1024),  # random: 152 runs, fan-in 7, intermediate merges
    ],
    ids=["one_run", "intermediate_merges"],
)
def test_file_backed_memory_stays_near_sort_memory(rows, segment_rows, mem, block):
    cfg = BlockConfig(block_bytes=block, memory_blocks=mem)
    spec = SortSpec(2, 0, cfg, file_backed=True)
    tracemalloc.start()
    try:
        out, _ = sort_srs(gen_segmented_input(rows, segment_rows, 2, 200, 3), spec)
        for _ in out:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows * 200 > 10 * cfg.memory_bytes
    assert peak <= 4 * cfg.memory_bytes + 2**19


def test_file_backed_runs_share_one_file_under_a_low_descriptor_limit():
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    limit = 256 if hard == resource.RLIM_INFINITY else min(256, hard)
    argv = ["sort", "--rows", "8000", "--segment-rows", "8000", "--mem-blocks", "3",
            "--block-bytes", "256", "--algo", "srs", "--json"]
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_NOFILE, ({limit}, {hard}))\n"
        "from ordopt.cli import main\n"
        f"sys.exit(main({argv + ['--file-backed']!r}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["runs_generated"] >= 1000 > limit
    _, met = _run(sort_srs, gen_segmented_input(8000, 8000, 2, 200, 0), _srs_spec(mem=3, block=256))
    assert got == dataclasses.asdict(met)


def test_every_written_block_is_read_back_once():
    for seed in (1, 2, 3):
        stream = list(gen_segmented_input(2500, 2500, 2, 100, seed))
        _, met = _run(sort_srs, stream, _srs_spec(mem=4, block=1024))
        assert met.run_blocks_read == met.run_blocks_written
        _, met = _run(sort_mrs, stream, _spec(mem=4, block=1024))
        assert met.run_blocks_read == met.run_blocks_written


def test_sort_metrics_deterministic():
    def run():
        out, met = sort_mrs(gen_segmented_input(2000, 200, 2, 100, 13), _spec(mem=8, block=512))
        return [r.keys for r in out], met

    out1, met1 = run()
    out2, met2 = run()
    assert out1 == out2
    assert met1 == met2


def test_spec_validation():
    cfg = BlockConfig(4096, 4)
    with pytest.raises(ValidationError):
        SortSpec(0, 0, cfg)
    with pytest.raises(ValidationError):
        SortSpec(2, 2, cfg)
    # lengths are ints, not floats or bools, cfg is a BlockConfig, and file_backed a bool
    for args in ((3, 1.0, cfg), (2.5, 1, cfg), (True, 0, cfg), (3, True, cfg), (3, 1, None), (3, 1, (4096, 4))):
        with pytest.raises(ValidationError):
            SortSpec(*args)
    for flag in ("no", 1, 0, None):
        with pytest.raises(ValidationError, match="file_backed"):
            SortSpec(2, 0, cfg, file_backed=flag)


def _payload_at(i, payload, rows=41):
    # 41 records of 100 bytes, sorted on the first key; record i has the payload
    return [Record((j // 20, (j * 17) % 41), payload if j == i else 100) for j in range(rows)]


@pytest.mark.parametrize("file_backed", [False, True], ids=["lists", "file"])
@pytest.mark.parametrize("payload", [-10000, 0, 1.5, 100.0, True, "100", None], ids=repr)
@pytest.mark.parametrize(
    "at",
    # memory (3 blocks of 512 bytes) holds 15 records: the first is read by
    # the memory fill, the 16th is the first that does not fit, and the 17th
    # and the last enter run formation
    [0, 15, 16, 40],
)
def test_payloads_that_are_not_positive_ints_are_rejected(file_backed, payload, at):
    cfg = BlockConfig(block_bytes=512, memory_blocks=3)
    for fn, prefix in ((sort_srs, 0), (sort_mrs, 1)):
        out, _ = fn(_payload_at(at, payload), SortSpec(2, prefix, cfg, file_backed=file_backed))
        with pytest.raises(ValidationError, match=r"payload_bytes: .* is not an int >= 1"):
            list(out)
    out, met = sort_srs(_payload_at(at, 1), SortSpec(2, 0, cfg, file_backed=file_backed))
    assert len(list(out)) == 41 and met.run_blocks_written > 0


@pytest.mark.parametrize(
    "bad",
    [Record((1, 2**63), 100), Record((1, -(2**63) - 1), 100), Record((1, 2.5), 100), Record((1, 7), 2**63)],
    ids=["key_over", "key_under", "float_key", "payload_over"],
)
def test_values_a_spill_file_cannot_store_are_rejected_when_file_backed(bad):
    records = [Record((1, i), 100) for i in range(40, 0, -1)]
    records[20:20] = [bad]
    cfg = BlockConfig(block_bytes=512, memory_blocks=3)
    out, met = sort_srs(records, SortSpec(2, 0, cfg))  # the same sort in lists stores anything
    assert sorted(list(out), key=lambda r: r.keys) == sorted(records, key=lambda r: r.keys)
    assert met.run_blocks_written > 0
    out, _ = sort_srs(records, SortSpec(2, 0, cfg, file_backed=True))
    with pytest.raises(ValidationError, match=re.escape(f"keys: {bad.keys}: file-backed runs store")):
        list(out)


def test_empty_input():
    out, met = sort_srs([], _srs_spec())
    assert list(out) == []
    assert met.runs_generated == 0
    out, met = sort_mrs([], _spec())
    assert list(out) == []
    assert met.tuples_in_before_first_out == 0


# --- golden counters ----------------------------------------------------------
#
# Exact SortMetrics, as (run_blocks_written, run_blocks_read, comparisons,
# positions_inspected, tuples_in_before_first_out, runs_generated), and a
# digest of the output for every algorithm on fixed inputs.  "mrs0" is
# sort_mrs with known_prefix_len=0.  Any change to run formation or merging
# that moves a counter shows up here.


def _mixed_widths(rows, segment_rows, seed):
    widths = (10, 40, 100, 250, 600)
    base = gen_segmented_input(rows, segment_rows, 2, 1, seed)
    return [Record(r.keys, widths[i * 7 % 5]) for i, r in enumerate(base)]


def _three_key_unsorted():
    # three spilling segments on (1, x), one on (2, 0), then (1, 9) again
    recs = [Record((1, i // 40, (i * 37) % 101), 100) for i in range(120)]
    return recs + [Record((2, 0, 5), 100), Record((1, 9, 9), 100)]


def _tiny_domain(rows, seed):
    # keys in 0-3, sorted on the first position: most comparisons tie on the
    # first sorted position; payloads vary so the order of ties shows
    rng = random.Random(seed)
    return [Record((i * 4 // rows, rng.randrange(4), rng.randrange(4)), 40 + 30 * (i % 3)) for i in range(rows)]


def _tiny_domain_two_prefix(rows, seed):
    # four keys, sorted on the first two; the last two in 0-2, so ties past
    # the first compared position reach run formation and every merge
    rng = random.Random(seed)
    return [
        Record((i * 2 // rows, i * 4 // rows % 2, rng.randrange(3), rng.randrange(3)), 40 + 30 * (i % 3))
        for i in range(rows)
    ]


def _segments(sizes, seed=19):
    # segments of the given sizes on the first key, a random second key
    rng = random.Random(seed)
    return [Record((s, rng.randrange(10**6)), 100) for s, n in enumerate(sizes) for _ in range(n)]


def _growing_segments(seed):
    # in-memory segments of 3 keys that grow, shrink and surround one that
    # spills (memory holds 51 records): a sort that reuses key objects across
    # segments extends them, refills only some, and refills them after a spill
    rng = random.Random(seed)
    sizes = (8, 30, 12, 45, 300, 5, 50, 20)
    return [Record((s, rng.randrange(6), rng.randrange(50)), 100) for s, n in enumerate(sizes) for _ in range(n)]


GOLDEN = [
    # (name, input, keys, mrs prefix, memory_blocks, block_bytes, expected);
    # every case runs in memory and file-backed ("-file" in its id), and both
    # must give the same digest and counters
    ("empty", lambda: [], 2, 1, 64, 4096, {
        "srs": ("e3b0c44298fc1c14", (0, 0, 0, 0, 0, 0)),
        "mrs": ("e3b0c44298fc1c14", (0, 0, 0, 0, 0, 0)),
        "mrs0": ("e3b0c44298fc1c14", (0, 0, 0, 0, 0, 0)),
    }),
    ("single", lambda: [Record((3, 1), 100)], 2, 1, 64, 4096, {
        "srs": ("c3a9f2c692fb081f", (0, 0, 0, 0, 1, 1)),
        "mrs": ("c3a9f2c692fb081f", (0, 0, 0, 0, 1, 1)),
        "mrs0": ("c3a9f2c692fb081f", (0, 0, 0, 0, 1, 1)),
    }),
    ("segments_fit", lambda: gen_segmented_input(2000, 100, 2, 100, 5), 2, 1, 4, 4096, {
        "srs": ("3d0bbe9b6a256ca9", (49, 49, 18770, 30647, 2000, 1)),
        "mrs": ("3d0bbe9b6a256ca9", (0, 0, 10677, 10677, 100, 20)),
        "mrs0": ("3d0bbe9b6a256ca9", (45, 45, 20530, 32374, 2000, 1)),
    }),
    ("one_spill_one_merge", lambda: gen_segmented_input(3000, 3000, 2, 100, 9), 2, 1, 64, 1024, {
        "srs": ("3bb3154bb0ef66d5", (295, 295, 37584, 75168, 3000, 3)),
        "mrs": ("3bb3154bb0ef66d5", (230, 230, 37300, 37300, 3000, 2)),
        "mrs0": ("3bb3154bb0ef66d5", (230, 230, 37300, 74600, 3000, 2)),
    }),
    ("fan_in_2", lambda: gen_segmented_input(3000, 3000, 2, 100, 10), 2, 1, 3, 512, {
        "srs": ("8b350a7e7f8f4b89", (4023, 4023, 35793, 71586, 3000, 101)),
        "mrs": ("8b350a7e7f8f4b89", (4586, 4586, 38301, 38301, 3000, 101)),
        "mrs0": ("8b350a7e7f8f4b89", (4586, 4586, 38301, 76602, 3000, 101)),
    }),
    ("mixed_widths", lambda: _mixed_widths(3000, 500, 15), 2, 1, 4, 1024, {
        "srs": ("db9029ce4f734b23", (2563, 2563, 37258, 68688, 3000, 70)),
        "mrs": ("db9029ce4f734b23", (1673, 1673, 33359, 33359, 500, 72)),
        "mrs0": ("db9029ce4f734b23", (2885, 2885, 40583, 73319, 3000, 69)),
    }),
    ("file_backed", lambda: gen_segmented_input(3000, 1000, 2, 100, 14), 2, 1, 8, 1024, {
        "srs": ("608b82beac881128", (499, 499, 43561, 82223, 3000, 19)),
        "mrs": ("608b82beac881128", (280, 280, 36567, 36567, 1000, 18)),
        "mrs0": ("608b82beac881128", (499, 499, 45132, 83823, 3000, 18)),
    }),
    ("unsorted_prefix", _three_key_unsorted, 3, 2, 3, 512, {
        "srs": ("b56f555c5443407a", (39, 39, 821, 2273, 122, 3)),
        "mrs": ("UnsortedPrefix", (15, 15, 708, 708, 40, 4)),
        "mrs0": ("b56f555c5443407a", (54, 54, 908, 2468, 122, 3)),
    }),
    ("tiny_domain_ties", lambda: _tiny_domain(3000, 16), 3, 1, 4, 1024, {
        "srs": ("beab337d1aa8973c", (689, 689, 35784, 89252, 3000, 24)),
        "mrs": ("771f49d9773fc59f", (395, 395, 32540, 55744, 750, 24)),
        "mrs0": ("810bd76d3f08c5dd", (790, 790, 39451, 95273, 3000, 23)),
    }),
    ("two_prefix_ties", lambda: _tiny_domain_two_prefix(2000, 17), 4, 2, 3, 512, {
        "srs": ("ce865710b5c741c3", (1497, 1497, 21051, 72552, 2000, 40)),
        "mrs": ("4adda34c9866f8a0", (1197, 1197, 19680, 33920, 500, 42)),
        "mrs0": ("d5eea77d6680da38", (1742, 1742, 22870, 75948, 2000, 39)),
    }),
    ("growing_segments", lambda: _growing_segments(18), 3, 1, 5, 1024, {
        "srs": ("cf97d2d1c15e4548", (48, 48, 4880, 11168, 470, 4)),
        "mrs": ("cf97d2d1c15e4548", (26, 26, 3616, 5674, 8, 10)),
        "mrs0": ("cf97d2d1c15e4548", (42, 42, 4941, 11261, 470, 3)),
    }),
]


def _digest(out) -> str:
    h = hashlib.sha256()
    try:
        for r in out:
            h.update(repr((r.keys, r.payload_bytes)).encode())
    except UnsortedPrefix:
        return "UnsortedPrefix"
    return h.hexdigest()[:16]


@pytest.mark.parametrize("algo", ["srs", "mrs", "mrs0"])
@pytest.mark.parametrize(
    "case, file_backed",
    [pytest.param(c, fb, id=c[0] + ("-file" if fb else "")) for c in GOLDEN for fb in (False, True)],
)
def test_golden_counters(case, file_backed, algo):
    _, make, keys, prefix, mem, block, expected = case
    fn = sort_srs if algo == "srs" else sort_mrs
    spec = SortSpec(
        keys,
        prefix if algo == "mrs" else 0,
        BlockConfig(block_bytes=block, memory_blocks=mem),
        file_backed=file_backed,
    )
    out, met = fn(make(), spec)
    assert (_digest(out), dataclasses.astuple(met)) == expected[algo]


# --- the counted comparator ---------------------------------------------------


def _less(met, lo, hi, a, b, runs=None):
    # runs=None compares untagged keys, a pair of run numbers tagged ones
    key, run_key = extsort._counted_key(met, lo, hi)
    if runs is None:
        return key(Record(a, 1)) < key(Record(b, 1))
    return run_key(Record(a, 1), runs[0]) < run_key(Record(b, 1), runs[1])


@st.composite
def _key_pairs(draw):
    # values 0-2 on up to six positions, so most pairs share a long prefix
    n = draw(st.integers(1, 6))
    a = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    b = tuple(x if draw(st.booleans()) else draw(st.integers(0, 2)) for x in a)
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    return a, b, lo, hi


@settings(derandomize=True, max_examples=500)
@given(_key_pairs())
def test_counted_comparison_is_exact(pair):
    a, b, lo, hi = pair
    lcp = next((i for i in range(lo, hi) if a[i] != b[i]), hi) - lo
    # untagged keys, and run-tagged keys of one run, count the same
    for runs in (None, (0, 0), (3, 3)):
        met = SortMetrics(comparisons=7, positions_inspected=11)
        assert _less(met, lo, hi, a, b, runs) == (a[lo:hi] < b[lo:hi])
        assert met.comparisons == 8
        assert met.positions_inspected == 11 + min(lcp + 1, hi - lo)
    # run-tagged keys of different runs order by tag alone and count nothing
    for runs in ((0, 1), (1, 0), (2, 5)):
        met = SortMetrics(comparisons=7, positions_inspected=11)
        assert _less(met, lo, hi, a, b, runs) == (runs[0] < runs[1])
        assert met == SortMetrics(comparisons=7, positions_inspected=11)


def test_merge_refreshes_a_reused_key_for_its_next_record():
    # the streams tie at the first compared position (lo=1); a reused key
    # that kept its old head, or its old key tuple, would pop (0, 8, 0)
    # or (0, 5, 4) before (0, 5, 3)
    met = SortMetrics()
    key, _ = extsort._counted_key(met, 1, 3)
    left = [Record((0, 5, 1), 1), Record((0, 5, 4), 1), Record((0, 8, 0), 1)]
    right = [Record((0, 5, 3), 1), Record((0, 6, 0), 1)]
    merged = list(extsort._merge_streams([iter(left), iter(right)], key))
    assert [r.keys for r in merged] == [(0, 5, 1), (0, 5, 3), (0, 5, 4), (0, 6, 0), (0, 8, 0)]
    assert met.positions_inspected > met.comparisons


@pytest.mark.parametrize(
    "records, mem",
    [
        ([Record((1,), 10)] * 2, 64),
        ([Record((1,), 10)], 64),  # a lone record is checked too
        ([Record((0, i, i), 100) for i in range(100)] + [Record((0, 1), 100)], 3),  # in run formation
        # in the third of three segments that fit in memory
        ([Record((s, i, i), 10) for s in range(2) for i in range(5)] + [Record((2, 0, 0), 10), Record((2, 1), 10)], 64),
        # the second record to enter run formation: memory holds the first 15
        ([Record((0, i, i), 100) for i in range(16)] + [Record((0, 1), 100)] + [Record((0, i, i), 100) for i in range(20)], 3),
    ],
    ids=["pair", "lone", "spilling", "later_segment", "second_into_run_formation"],
)
def test_records_with_fewer_key_positions_than_the_sort_are_rejected(records, mem):
    for fn, prefix in ((sort_srs, 0), (sort_mrs, 1)):
        out, _ = fn(records, SortSpec(3, prefix, BlockConfig(block_bytes=512, memory_blocks=mem)))
        with pytest.raises(ValidationError, match="fewer than the 3 positions"):
            list(out)


@pytest.mark.parametrize("file_backed", [False, True], ids=["lists", "file"])
# 0 opens the input, 15 and 16 are the first that does not fit memory and the
# first into run formation, and mrs opens a segment at 20 and a lone one at 40
@pytest.mark.parametrize("at", [0, 15, 16, 20, 40])
def test_a_record_with_two_faults_gets_the_key_length_error_wherever_it_is_read(file_backed, at):
    records = [Record((j // 20, (j * 17) % 41, j), 100) for j in range(41)]
    records[at] = Record((at // 20, 1), 0)  # two key positions and no payload
    cfg = BlockConfig(block_bytes=512, memory_blocks=3)
    for fn, prefix in ((sort_srs, 0), (sort_mrs, 1)):
        out, _ = fn(records, SortSpec(3, prefix, cfg, file_backed=file_backed))
        with pytest.raises(ValidationError, match="fewer than the 3 positions the sort compares"):
            list(out)


def test_a_malformed_record_is_rejected_when_the_sort_reads_it():
    # the record that opens the second segment is read before the first
    # segment's output starts, so the sort stops before that output
    records = [Record((0, i, i), 10) for i in range(5)] + [Record((1, 0), 10)]
    out, _ = sort_mrs(records, _spec(mem=64, block=512, keys=3, prefix=1))
    with pytest.raises(ValidationError):
        next(out)


def test_a_lone_record_is_not_keyed(monkeypatch):
    # a one-record segment needs no sort, so no key object is built for it
    built = 0
    counted_key = extsort._counted_key

    def counting(cls):
        class Counted(cls):
            __slots__ = ()

            def __init__(self, *args):
                nonlocal built
                built += 1
                super().__init__(*args)

        return Counted

    monkeypatch.setattr(extsort, "_counted_key", lambda met, lo, hi: tuple(map(counting, counted_key(met, lo, hi))))
    records = list(gen_segmented_input(1000, 1, 3, 100, 0))
    out, met = sort_mrs(records, _spec(keys=3, prefix=1))
    assert list(out) == records
    assert built == 0 and met.comparisons == 0


@pytest.mark.parametrize(
    "fn, make, spec, mem_records",
    [
        # 36 segments, the largest in-memory one 81 records, one 5x memory
        (sort_mrs, lambda: _segments((20, 60, 81, 5) * 5 + (400,) + (75, 30, 1) * 5), _spec(mem=8, block=1024), 81),
        # one segment of 200 runs: intermediate merges at fan-in 2
        (sort_srs, lambda: gen_segmented_input(3000, 3000, 2, 100, 10), _srs_spec(mem=3, block=512), 15),
    ],
    ids=["mrs_segments", "srs_spilling"],
)
def test_key_objects_built_stay_within_memory_heap_and_merge_streams(monkeypatch, fn, make, spec, mem_records):
    # keys are refilled for each record, not built: at most one per record of
    # the largest in-memory sort, one per heap slot plus the record waiting to
    # enter it, and one per stream of each merge
    built = streams = 0
    counted_key, merge_streams = extsort._counted_key, extsort._merge_streams

    def counting(cls):
        class Counted(cls):
            __slots__ = ()

            def __init__(self, *args):
                nonlocal built
                built += 1
                super().__init__(*args)

        return Counted

    def counting_key(met, lo, hi):
        return tuple(map(counting, counted_key(met, lo, hi)))

    def counting_merge(its, key):
        nonlocal streams
        its = list(its)
        streams += len(its)
        return merge_streams(its, key)

    monkeypatch.setattr(extsort, "_counted_key", counting_key)
    monkeypatch.setattr(extsort, "_merge_streams", counting_merge)
    records = list(make())
    out, met = fn(records, spec)
    assert [r.keys for r in out] == [r.keys for r in reference_sort(records)]
    assert mem_records == spec.cfg.memory_bytes // 100
    assert met.run_blocks_written > 0 and streams > 0
    assert built <= mem_records + (mem_records + 1) + streams
