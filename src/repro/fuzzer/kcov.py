"""KCov-style coverage collection (paper §4.2).

Records the set of executed instruction addresses per thread; the fuzzer
keeps an STI in its corpus when it contributes addresses never seen
before, exactly how Syzkaller uses KCov signal.

Collection (:class:`KCov`) stays set-based — ``set.add`` is the cheapest
per-instruction operation Python offers — but everything *merged*,
*shipped* or *persisted* goes through :class:`CoverageMap`, a paged
int-bitmap.  Address sets used to cross process boundaries as pickled
``frozenset`` payloads and merge by re-hashing every element; the bitmap
unions whole machine words at a time (one big-int ``|`` per touched
page), serializes to a few KB of raw bytes, and supports the delta
compression the campaign workers use on the wire
(``benchmarks/bench_coverage_merge.py`` keeps the receipts).
Checkpoints store the byte form compressed at zlib level 1 and
base64-encoded (:meth:`CoverageMap.to_text`): a batch bitmap is mostly
zero runs, so its 32 KB of hex shrink to a few hundred bytes.
"""

from __future__ import annotations

import base64
import struct
import zlib
from typing import Dict, FrozenSet, Iterable, Optional, Set, Union

#: Bits per bitmap page (2**13 = 8192 addresses -> 1 KiB big-int per page).
PAGE_SHIFT = 13
PAGE_SIZE = 1 << PAGE_SHIFT
_PAGE_MASK = PAGE_SIZE - 1
_PAGE_BYTES = PAGE_SIZE // 8

#: Magic prefix of the CoverageMap wire format (version 1).
_WIRE_MAGIC = b"CMB1"


class KCov:
    """Per-thread executed-instruction sets."""

    def __init__(self) -> None:
        self._per_thread: Dict[int, Set[int]] = {}
        self.enabled = True

    def on_insn(self, thread: int, addr: int) -> None:
        if not self.enabled:
            return
        self._per_thread.setdefault(thread, set()).add(addr)

    def coverage_of(self, thread: int) -> FrozenSet[int]:
        return frozenset(self._per_thread.get(thread, ()))

    def reset_thread(self, thread: int) -> None:
        self._per_thread.pop(thread, None)

    def clear(self) -> None:
        self._per_thread.clear()


class CoverageMap:
    """A set of covered addresses as a paged int-bitmap.

    Pages are big-ints of :data:`PAGE_SIZE` bits keyed by ``addr >>
    PAGE_SHIFT``, so arbitrary (sparse) address ranges cost only the
    pages they touch while unions, deltas and equality run word-wise on
    whole pages.  Zero pages are never stored, which makes the page dict
    a canonical form: two maps are equal iff their dicts are equal.

    The type is the campaign coverage currency: the fuzzer's corpus
    admission (`merge`), the worker wire format (`delta` + `to_bytes`),
    the checkpoint files (`to_text`) and the cross-shard merge (`union`)
    all speak it.
    """

    __slots__ = ("_pages", "_count")

    def __init__(self, pages: Optional[Dict[int, int]] = None) -> None:
        self._pages: Dict[int, int] = dict(pages) if pages else {}
        self._count: Optional[int] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_addrs(cls, addrs: Iterable[int]) -> "CoverageMap":
        m = cls()
        m._merge_addrs(addrs)
        return m

    def copy(self) -> "CoverageMap":
        m = CoverageMap(self._pages)
        m._count = self._count
        return m

    # -- mutation ----------------------------------------------------------

    def _merge_addrs(self, addrs: Iterable[int]) -> int:
        incoming: Dict[int, int] = {}
        for addr in addrs:
            if addr < 0:
                raise ValueError(f"coverage address must be >= 0, got {addr}")
            page = addr >> PAGE_SHIFT
            incoming[page] = incoming.get(page, 0) | (1 << (addr & _PAGE_MASK))
        return self._merge_pages(incoming)

    def _merge_pages(self, pages: Dict[int, int]) -> int:
        added = 0
        mine = self._pages
        for page, bits in pages.items():
            old = mine.get(page, 0)
            new_bits = bits & ~old
            if new_bits:
                mine[page] = old | bits
                added += _popcount(new_bits)
        if added and self._count is not None:
            self._count += added
        return added

    def merge(self, other: Union["CoverageMap", Iterable[int]]) -> int:
        """Merge coverage in place; returns how many addresses were new."""
        if isinstance(other, CoverageMap):
            return self._merge_pages(other._pages)
        return self._merge_addrs(other)

    # -- pure algebra ------------------------------------------------------

    def union(self, other: "CoverageMap") -> "CoverageMap":
        """A new map covering everything either operand covers."""
        pages = dict(self._pages)
        for page, bits in other._pages.items():
            pages[page] = pages.get(page, 0) | bits
        return CoverageMap(pages)

    def delta(self, since: "CoverageMap") -> "CoverageMap":
        """A new map of the addresses in ``self`` missing from ``since``.

        ``since.union(self.delta(since)) == since.union(self)`` — the
        identity the worker wire protocol relies on to ship only what
        the supervisor has not seen yet.
        """
        pages = {}
        theirs = since._pages
        for page, bits in self._pages.items():
            fresh = bits & ~theirs.get(page, 0)
            if fresh:
                pages[page] = fresh
        return CoverageMap(pages)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(_popcount(bits) for bits in self._pages.values())
        return self._count

    def __bool__(self) -> bool:
        return bool(self._pages)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageMap):
            return NotImplemented
        return self._pages == other._pages

    def __hash__(self) -> int:  # pragma: no cover - maps are not dict keys
        return hash(frozenset(self._pages.items()))

    def covers(self, addr: int) -> bool:
        return bool(
            self._pages.get(addr >> PAGE_SHIFT, 0) >> (addr & _PAGE_MASK) & 1
        )

    @property
    def addrs(self) -> FrozenSet[int]:
        """The covered addresses as a frozenset (compat / debugging)."""
        out = []
        for page in sorted(self._pages):
            base = page << PAGE_SHIFT
            bits = self._pages[page]
            while bits:
                low = bits & -bits
                out.append(base + low.bit_length() - 1)
                bits ^= low
        return frozenset(out)

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Deterministic compact wire form: sorted (page, bitmap) runs."""
        chunks = [_WIRE_MAGIC, struct.pack("<I", len(self._pages))]
        for page in sorted(self._pages):
            raw = self._pages[page].to_bytes(_PAGE_BYTES, "little")
            raw = raw.rstrip(b"\x00")
            chunks.append(struct.pack("<QH", page, len(raw)))
            chunks.append(raw)
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CoverageMap":
        """Decode :meth:`to_bytes`; a malformed payload is a ValueError."""
        if raw[:4] != _WIRE_MAGIC:
            raise ValueError("not a CoverageMap byte payload")
        pages: Dict[int, int] = {}
        try:
            (npages,) = struct.unpack_from("<I", raw, 4)
            offset = 8
            for _ in range(npages):
                page, nbytes = struct.unpack_from("<QH", raw, offset)
                offset += 10
                if nbytes > _PAGE_BYTES or offset + nbytes > len(raw):
                    raise ValueError(f"bad page run at byte {offset - 10}")
                bits = int.from_bytes(raw[offset:offset + nbytes], "little")
                offset += nbytes
                if bits:
                    pages[page] = bits
        except struct.error as exc:
            raise ValueError(f"truncated CoverageMap payload ({exc})") from None
        if offset != len(raw):
            raise ValueError(f"{len(raw) - offset} trailing bytes after CoverageMap")
        return cls(pages)

    def to_text(self) -> str:
        """Checkpoint text form: base64 of the byte form at zlib level 1.

        A batch's bitmap is mostly zero runs, so level 1 already shrinks
        it about 70-fold; higher levels cost time for a few more bytes.
        """
        return base64.b64encode(zlib.compress(self.to_bytes(), 1)).decode("ascii")

    @classmethod
    def from_text(cls, text: str) -> "CoverageMap":
        """Decode :meth:`to_text`; a malformed payload is a ValueError."""
        try:
            raw = zlib.decompress(base64.b64decode(text, validate=True))
        except zlib.error as exc:
            raise ValueError(f"corrupt compressed CoverageMap ({exc})") from None
        return cls.from_bytes(raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoverageMap(<{len(self)} addrs, {len(self._pages)} pages>)"


try:
    #: C-level popcount (3.10+); the bin() fallback is still C-speed
    #: string work and fine for page-sized ints on older interpreters.
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - py<3.10
    def _popcount(bits: int) -> int:
        return bin(bits).count("1")
