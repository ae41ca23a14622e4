"""Property tests for the campaign checkpoint codec (schema v3).

Hypothesis generates batch results with and without reproducers and
artifacts, schedules a report shares with its artifact and ones it does
not, artifact reproducers equal to the record's and different ones, and
empty and multi-page coverage.  Each must survive
``write_checkpoint``/``load_checkpoint`` equal, with the report/artifact
schedule identity restored.  ``CrashDB.merge_all`` is checked against the
pairwise fold it replaced, kept here as the reference.  Damaged input —
random bytes, a real batch file truncated anywhere, flipped bytes in the
compressed coverage, a well-formed zlib stream of a malformed bitmap —
must raise ``ConfigError`` and nothing else (a flip that deflate decodes
to the same bytes may load the same coverage instead).  A v2 directory
is the ``version-2`` case of ``tests/test_supervisor.py``.
"""

import base64
import dataclasses
import functools
import json
import os
import tempfile
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign_api import BatchSpec, CampaignSpec
from repro.errors import ConfigError
from repro.fuzzer import supervisor
from repro.fuzzer.fuzzer import FuzzStats
from repro.fuzzer.hints import SchedulingHint
from repro.fuzzer.kcov import PAGE_SIZE, CoverageMap
from repro.fuzzer.parallel import ShardResult, merge_shards, run_batch
from repro.fuzzer.reproducer import Reproducer
from repro.fuzzer.sti import STI, Call, ResourceRef
from repro.fuzzer.triage import CrashDB, CrashRecord
from repro.oracles.report import CrashReport
from repro.trace.replayer import CrashArtifact

SPEC = CampaignSpec(iterations=40, seed=1)
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# -- strategies ---------------------------------------------------------------

TITLES = (
    "KASAN: slab-use-after-free Read in tls_getsockopt",
    "BUG: unable to handle kernel NULL pointer dereference in pipe_read",
    "general protection fault in xsk_poll",
    "WARNING: lock held in smc_connect",
)
ints = st.integers(0, 2**64 - 1)
small = st.integers(0, 1 << 20)
texts = st.text(max_size=12)

events = st.lists(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(("step", "load", "store")), "index": small, "thread": st.integers(0, 3)}
    ),
    max_size=4,
)
schedules = st.builds(
    lambda cap, evs: {"version": 1, "capacity": cap, "dropped": 0, "n_events": len(evs), "events": evs},
    st.integers(1, 1 << 16),
    events,
)
calls = st.builds(
    Call,
    st.sampled_from(("tls_setsockopt", "pipe_read", "xsk_poll")),
    st.lists(ints | st.builds(ResourceRef, st.integers(0, 3)), max_size=3).map(tuple),
)
reproducers = st.builds(
    Reproducer,
    sti=st.builds(STI, st.lists(calls, min_size=1, max_size=3).map(tuple)),
    pair=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    hint=st.builds(
        SchedulingHint,
        barrier_type=st.sampled_from(("ST", "LD")),
        reorder_side=st.integers(0, 1),
        sched_addr=small,
        sched_hit=st.integers(1, 4),
        reorder=st.lists(small, max_size=3).map(tuple),
        nreorder=st.integers(0, 3),
    ),
    expected_title=st.sampled_from(TITLES),
    patched=st.lists(st.sampled_from(("t3_tls_getsockopt", "t4_vlan")), unique=True, max_size=2).map(
        lambda ids: tuple(sorted(ids))
    ),
)


def reports(title):
    return st.builds(
        CrashReport,
        title=st.just(title),
        oracle=st.sampled_from(("kasan", "fault", "lockdep")),
        function=texts,
        inst_addr=small,
        detail=texts,
        reordered_insns=st.lists(small, max_size=3).map(tuple),
        hypothetical_barrier=st.none() | small,
        barrier_test=st.sampled_from(("store", "load", "")),
        source_context=texts,
        event_index=st.none() | small,
        schedule=st.none() | schedules,
    )


@st.composite
def records(draw, title):
    report = draw(reports(title))
    reproducer = draw(st.none() | reproducers)
    artifact = None
    if draw(st.booleans()):
        how = draw(st.sampled_from(("same", "equal", "other")))
        if reproducer is None or how == "other":
            art_reproducer = draw(reproducers)
        elif how == "same":
            art_reproducer = reproducer
        else:
            art_reproducer = dataclasses.replace(reproducer)
        artifact = CrashArtifact(
            reproducer=art_reproducer,
            title=title,
            oracle=report.oracle,
            function=draw(texts),
            inst_addr=draw(small),
            event_index=draw(st.none() | small),
            reordered_insns=draw(st.lists(small, max_size=3).map(tuple)),
            hypothetical_barrier=draw(st.none() | small),
            barrier_test=draw(st.sampled_from(("store", "load", ""))),
            schedule=draw(schedules),
        )
        if draw(st.booleans()):
            report.schedule = artifact.schedule  # what the fuzzer records
    return CrashRecord(
        title=title,
        first_report=report,
        count=draw(st.integers(1, 9)),
        first_test_index=draw(st.integers(0, 50)),
        bug_id=draw(st.none() | st.sampled_from(("t3_tls_getsockopt", "t4_watch_queue"))),
        reproducer=reproducer,
        artifact=artifact,
    )


@st.composite
def crashdbs(draw):
    db = CrashDB()
    for title in draw(st.lists(st.sampled_from(TITLES), unique=True, max_size=3)):
        db.records[title] = draw(records(title))
    return db


#: Addresses over a few pages, so coverage is empty, one page or many.
coverages = st.lists(st.integers(0, 4 * PAGE_SIZE), max_size=40).map(CoverageMap.from_addrs)
stats = st.builds(FuzzStats, *[st.integers(0, 10**6)] * 7)


@st.composite
def shard_results(draw, shard):
    return ShardResult(
        shard=shard,
        seed=draw(ints),
        iterations=draw(st.integers(0, 100)),
        stats=draw(stats),
        crashdb=draw(crashdbs()),
        coverage=draw(coverages),
        seconds=draw(st.floats(0, 1e6, allow_nan=False)),
        engine_counters=draw(st.dictionaries(st.sampled_from(("boots", "resets")), small)),
    )


batch_lists = st.lists(st.integers(0, 7), unique=True, min_size=1, max_size=4).flatmap(
    lambda shards: st.tuples(*[shard_results(s) for s in shards])
)


# -- helpers -----------------------------------------------------------------


def write(dirpath, shards, spec=SPEC):
    states = {}
    for s in shards:
        st_ = supervisor._BatchState(BatchSpec(s.shard, s.seed, s.iterations, 1))
        st_.result = s
        states[s.shard] = st_
    supervisor.write_checkpoint(dirpath, spec, states, (), (), False)


def assert_same_result(loaded, original):
    assert dataclasses.replace(loaded, crashdb=None) == dataclasses.replace(original, crashdb=None)
    assert list(loaded.crashdb.records) == original.crashdb.unique_titles
    assert loaded.crashdb.records == original.crashdb.records
    for title, rec in original.crashdb.records.items():
        got = loaded.crashdb.records[title]
        if rec.artifact is not None:
            shared = rec.first_report.schedule is rec.artifact.schedule
            assert (got.first_report.schedule is got.artifact.schedule) == shared


def pairwise_merge(a, b):
    """The two-database merge ``merge_shards`` folded before the one-pass
    merge: a new record per title per step."""
    out = CrashDB()
    for db in (a, b):
        for title, rec in db.records.items():
            cur = out.records.get(title)
            if cur is None:
                out.records[title] = dataclasses.replace(rec)
                continue
            first = cur if cur.first_test_index <= rec.first_test_index else rec
            merged = dataclasses.replace(first, count=cur.count + rec.count)
            if merged.reproducer is None:
                merged.reproducer = cur.reproducer or rec.reproducer
            if merged.artifact is None:
                merged.artifact = cur.artifact or rec.artifact
            out.records[title] = merged
    return out


def shallow(rec):
    """A record's fields, nested objects by identity."""
    return (id(rec),) + tuple(
        getattr(rec, f.name) if f.name in ("title", "count", "first_test_index", "bug_id")
        else id(getattr(rec, f.name))
        for f in dataclasses.fields(rec)
    )


def expect_config_error(dirpath, named):
    with pytest.raises(ConfigError) as info:
        supervisor.load_checkpoint(dirpath)
    assert os.path.join(dirpath, named) in str(info.value)


# -- round trip and merge -------------------------------------------------------


class TestRoundTrip:
    @given(batch_lists)
    @SETTINGS
    def test_write_then_load_is_identity(self, shards):
        with tempfile.TemporaryDirectory() as d:
            write(d, shards)
            state = supervisor.load_checkpoint(d)
        assert sorted(state.completed) == sorted(s.shard for s in shards)
        for s in shards:
            assert_same_result(state.completed[s.shard], s)

    def test_real_batch_round_trips(self, real_checkpoint):
        d, result = real_checkpoint
        loaded = supervisor.load_checkpoint(d).completed[0]
        assert_same_result(loaded, result)
        assert any(r.artifact is not None for r in result.crashdb.records.values())


class TestOnePassMerge:
    @given(st.lists(crashdbs(), min_size=1, max_size=6))
    @SETTINGS
    def test_equals_the_pairwise_fold(self, dbs):
        snapshot = [[shallow(r) for r in db.records.values()] for db in dbs]
        got = CrashDB.merge_all(dbs)
        want = functools.reduce(pairwise_merge, dbs)
        assert list(got.records) == list(want.records)
        assert got.records == want.records
        for title, rec in want.records.items():
            mine = got.records[title]
            assert mine.first_report is rec.first_report
            assert mine.reproducer is rec.reproducer
            assert mine.artifact is rec.artifact
        # The inputs are untouched.
        assert [[shallow(r) for r in db.records.values()] for db in dbs] == snapshot

    @given(batch_lists)
    @SETTINGS
    def test_merge_shards_uses_it(self, shards):
        result = merge_shards(SPEC, list(reversed(shards)), 0.0)
        ordered = sorted(shards, key=lambda s: s.shard)
        want = functools.reduce(pairwise_merge, [s.crashdb for s in ordered])
        assert result.crashdb.records == want.records


# -- damage --------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_checkpoint():
    """A checkpoint of a real 40-iteration batch (with artifacts)."""
    result = run_batch(SPEC, SPEC.batches()[0])
    with tempfile.TemporaryDirectory() as d:
        write(d, [result])
        yield d, result


def shard_path(d):
    return os.path.join(d, "shard-000.json")


def damaged_copy(real, dst, shard_bytes):
    os.makedirs(dst, exist_ok=True)
    with open(os.path.join(real, supervisor.MANIFEST_NAME), "rb") as fh:
        manifest = fh.read()
    with open(os.path.join(dst, supervisor.MANIFEST_NAME), "wb") as fh:
        fh.write(manifest)
    with open(shard_path(dst), "wb") as fh:
        fh.write(shard_bytes)


class TestDamage:
    @given(st.binary(max_size=2048))
    @SETTINGS
    def test_random_batch_file(self, junk):
        with tempfile.TemporaryDirectory() as d:
            write(d, [ShardResult(0, 1, 1, FuzzStats(), CrashDB(), CoverageMap(), 0.0)])
            with open(shard_path(d), "wb") as fh:
                fh.write(junk)
            expect_config_error(d, "shard-000.json")

    @given(st.binary(max_size=512))
    @SETTINGS
    def test_random_manifest(self, junk):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, supervisor.MANIFEST_NAME), "wb") as fh:
                fh.write(junk)
            expect_config_error(d, supervisor.MANIFEST_NAME)

    def test_truncated_at_every_kilobyte(self, real_checkpoint, tmp_path):
        real, _ = real_checkpoint
        with open(shard_path(real), "rb") as fh:
            raw = fh.read()
        assert len(raw) > 10_000
        for cut in range(0, len(raw), 1024):
            d = str(tmp_path / f"cut-{cut}")
            damaged_copy(real, d, raw[:cut])
            expect_config_error(d, "shard-000.json")

    def test_flipped_byte_in_compressed_coverage(self, real_checkpoint, tmp_path):
        """Each flipped byte raises ConfigError or, where deflate ignores
        the bits it hit, loads the identical coverage: never a wrong map."""
        real, result = real_checkpoint
        with open(shard_path(real)) as fh:
            payload = json.load(fh)
        packed = base64.b64decode(payload["coverage"])
        assert len(packed) > 100
        harmless = 0
        for i in range(len(packed)):
            flipped = bytearray(packed)
            flipped[i] ^= 0xFF
            payload["coverage"] = base64.b64encode(bytes(flipped)).decode("ascii")
            d = str(tmp_path / f"flip-{i}")
            damaged_copy(real, d, json.dumps(payload).encode())
            try:
                loaded = supervisor.load_checkpoint(d).completed[0]
            except ConfigError as exc:
                assert shard_path(d) in str(exc)
            else:
                assert loaded.coverage == result.coverage
                harmless += 1
        assert harmless < len(packed) // 20

    def test_malformed_bitmap_in_valid_zlib(self, real_checkpoint, tmp_path):
        """Coverage that decompresses cleanly to a malformed bitmap — cut
        inside its last page run, or with a trailing byte — is damage."""
        real, result = real_checkpoint
        with open(shard_path(real)) as fh:
            payload = json.load(fh)
        raw = result.coverage.to_bytes()
        for name, bad in (("cut", raw[:-1]), ("trailing", raw + b"\x00")):
            payload["coverage"] = base64.b64encode(zlib.compress(bad, 1)).decode("ascii")
            d = str(tmp_path / name)
            damaged_copy(real, d, json.dumps(payload).encode())
            expect_config_error(d, "shard-000.json")
