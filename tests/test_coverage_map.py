"""Tests for the paged int-bitmap CoverageMap (the campaign wire format).

The map replaced pickled address sets in every inter-process coverage
exchange — worker messages, shard results, checkpoints — so beyond the
container basics the tests pin the two protocol identities the
supervisor relies on:

* union/merge never lose or invent addresses (checked against the set
  algebra they replaced), and
* ``since.union(full.delta(since)) == since.union(full)`` — the delta a
  worker ships is exactly the missing bits, so folding deltas at the
  supervisor reconstructs the worker's full map.
"""

import base64
import random
import struct
import zlib

import pytest

from repro.fuzzer.kcov import _PAGE_BYTES, CoverageMap

# Address sets shaped like the things campaigns actually produce: dense
# instruction runs, page-boundary stragglers, and a tiny sparse set.
CASES = {
    "empty": frozenset(),
    "single": frozenset({0x40c000}),
    "small": frozenset({1, 2, 0x100}),
    "block": frozenset(range(0x40c000, 0x40c200, 4)),
    "page-straddle": frozenset(range(8190, 8195)),
    "sparse": frozenset({0, 8191, 8192, 1 << 20, (1 << 40) + 7}),
}


def rand_addrs(rng, n, span=1 << 20):
    return frozenset(rng.randrange(0, span) for _ in range(n))


class TestConstruction:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_from_addrs_roundtrips_addresses(self, name):
        addrs = CASES[name]
        m = CoverageMap.from_addrs(addrs)
        assert frozenset(m.addrs) == addrs
        assert len(m) == len(addrs)
        assert bool(m) == bool(addrs)

    def test_covers(self):
        m = CoverageMap.from_addrs({5, 8192})
        assert m.covers(5) and m.covers(8192)
        assert not m.covers(6) and not m.covers(8193)

    def test_rejects_negative_addresses(self):
        with pytest.raises(ValueError):
            CoverageMap.from_addrs({-1})

    def test_copy_is_independent(self):
        m = CoverageMap.from_addrs({1, 2})
        c = m.copy()
        c.merge({3})
        assert len(m) == 2 and len(c) == 3

    def test_equality_and_hash(self):
        a = CoverageMap.from_addrs({1, 8192})
        b = CoverageMap.from_addrs({8192, 1})
        assert a == b and hash(a) == hash(b)
        assert a != CoverageMap.from_addrs({1})


class TestMerge:
    def test_merge_returns_new_bit_count(self):
        m = CoverageMap.from_addrs({1, 2})
        assert m.merge({2, 3, 4}) == 2
        assert m.merge({1, 2}) == 0
        assert len(m) == 4

    def test_merge_accepts_map_and_iterable(self):
        m = CoverageMap()
        m.merge(CoverageMap.from_addrs({1}))
        m.merge([2, 3])
        assert frozenset(m.addrs) == {1, 2, 3}

    def test_union_is_set_union(self):
        rng = random.Random(7)
        for _ in range(20):
            xs, ys = rand_addrs(rng, 200), rand_addrs(rng, 200)
            u = CoverageMap.from_addrs(xs).union(CoverageMap.from_addrs(ys))
            assert frozenset(u.addrs) == xs | ys
            assert len(u) == len(xs | ys)

    def test_union_leaves_operands_untouched(self):
        a, b = CoverageMap.from_addrs({1}), CoverageMap.from_addrs({2})
        a.union(b)
        assert len(a) == 1 and len(b) == 1


class TestDelta:
    def test_delta_is_set_difference(self):
        rng = random.Random(11)
        for _ in range(20):
            xs, ys = rand_addrs(rng, 300), rand_addrs(rng, 300)
            full = CoverageMap.from_addrs(xs | ys)
            since = CoverageMap.from_addrs(ys)
            assert frozenset(full.delta(since).addrs) == xs - ys

    def test_delta_fold_reconstructs_full_map(self):
        """The worker wire protocol: ship delta, fold at the supervisor."""
        rng = random.Random(13)
        full, sent, acc = CoverageMap(), CoverageMap(), CoverageMap()
        for _ in range(10):
            full.merge(rand_addrs(rng, 100))
            d = full.delta(sent)
            acc.merge(CoverageMap.from_bytes(d.to_bytes()))
            sent = sent.union(d)
        assert acc == full and sent == full

    def test_delta_of_equal_maps_is_empty(self):
        m = CoverageMap.from_addrs({1, 2, 3})
        d = m.delta(m.copy())
        assert not d and len(d) == 0


class TestWireFormat:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes_roundtrip(self, name):
        m = CoverageMap.from_addrs(CASES[name])
        assert CoverageMap.from_bytes(m.to_bytes()) == m

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_hex_roundtrip(self, name):
        """The checkpoint text form (base64 of zlib) round-trips."""
        m = CoverageMap.from_addrs(CASES[name])
        assert CoverageMap.from_text(m.to_text()) == m

    def test_random_roundtrip_property(self):
        rng = random.Random(17)
        for _ in range(50):
            addrs = rand_addrs(rng, rng.randrange(0, 400), span=1 << 30)
            m = CoverageMap.from_addrs(addrs)
            back = CoverageMap.from_bytes(m.to_bytes())
            assert frozenset(back.addrs) == addrs

    def test_wire_form_is_canonical(self):
        """Equal maps serialize identically however they were built."""
        a = CoverageMap.from_addrs({1, 8192, 70000})
        b = CoverageMap()
        b.merge({70000})
        b.merge({8192})
        b.merge({1})
        assert a.to_bytes() == b.to_bytes()

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            CoverageMap.from_bytes(b"not a coverage map")

    def test_rejects_every_truncation(self):
        """A cut anywhere, inside a run header or a page run, is an error,
        never a shorter map."""
        raw = CoverageMap.from_addrs({1, 9000, 8191, 70000, 70001}).to_bytes()
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                CoverageMap.from_bytes(raw[:cut])

    def test_rejects_trailing_bytes(self):
        raw = CoverageMap.from_addrs({1, 9000}).to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            CoverageMap.from_bytes(raw + b"\x00")

    def test_rejects_oversized_page_run(self):
        """A run longer than one page would set bits of the next page."""
        too_long = _PAGE_BYTES + 1
        raw = (
            b"CMB1" + struct.pack("<I", 1) + struct.pack("<QH", 0, too_long)
            + b"\x01" * too_long
        )
        with pytest.raises(ValueError, match="bad page run"):
            CoverageMap.from_bytes(raw)

    def test_text_rejects_damage(self):
        """Bad base64, a stream that is not zlib, and a valid zlib stream
        of a malformed bitmap are all ValueError."""
        raw = CoverageMap.from_addrs({1, 9000}).to_bytes()
        for text in (
            "not base64!",
            base64.b64encode(raw).decode(),
            base64.b64encode(zlib.compress(raw[:-1])).decode(),
        ):
            with pytest.raises(ValueError):
                CoverageMap.from_text(text)
