"""The paged hash directory half of the hybrid access method.

Griffin (PAPERS.md) pairs a hash table with a B+-tree over the same
keys: point lookups probe the hash side in O(1) while range scans walk
the tree side.  This module is the hash side -- a bucket directory laid
out on the same kind of smart-blob page store the B+-tree uses, so both
halves of one index ride the same buffer pool machinery, WAL logging,
and crash recovery.

Layout (all little-endian, one structure per page):

* the **meta page** (page 0 of the blob) holds the magic, the bucket
  count, the entry count, and the page id of the first directory page;
* **directory pages** hold the bucket page-id table, chained through a
  ``next`` pointer when the doubled directory outgrows one page;
* **bucket pages** hold ``(key bytes, rowid, fragid)`` entries and chain
  into overflow pages when full.

Keys are *canonical encoded bytes* (the column type's ``send()`` output,
canonicalized by the blade); equality within a bucket is byte equality.
The placement function is injected (``hash_key``), so the blade can
route it through the operator class's ``HB_Hash`` support function --
the same dynamic-resolution story the B+-tree blade uses for
``Compare``.  The directory doubles when the average bucket occupancy
exceeds ``split_threshold``, rehashing every entry; placement must
therefore be deterministic across process restarts (no salted
``hash()``).
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, List, Optional, Tuple

from repro.storage.buffer import BufferPool

_META = struct.Struct("<4sqqq")  # magic, bucket_count, size, first dir page
_META_MAGIC = b"HDB1"
_DIR_HEADER = struct.Struct("<hq")  # entries on this page, next dir page
_DIR_SLOT = struct.Struct("<q")  # one bucket page id
_BUCKET_HEADER = struct.Struct("<hq")  # entry count, overflow page
_ENTRY_FIXED = struct.Struct("<Hqi")  # key length, rowid, fragid

#: Placement function over canonical encoded keys.
HashKey = Callable[[bytes], int]


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a -- the default placement hash.  Deterministic across
    processes (unlike Python's salted ``hash``), cheap over the short
    encoded keys an index column produces."""
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


class HashDirectory:
    """A doubling bucket directory over a :class:`BufferPool`."""

    MIN_BUCKETS = 8

    def __init__(
        self,
        pool: BufferPool,
        hash_key: HashKey,
        *,
        bucket_pages: List[int],
        dir_pages: List[int],
        size: int = 0,
        split_threshold: int = 16,
    ) -> None:
        self.pool = pool
        self.page_size = pool.store.page_size
        self.hash_key = hash_key
        self.bucket_pages = bucket_pages
        self._dir_pages = dir_pages
        self.size = size
        self.split_threshold = split_threshold
        self.rehashes = 0
        self.dirty = False

    # ------------------------------------------------------------------
    # Creation and persistence
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        pool: BufferPool,
        hash_key: HashKey,
        *,
        initial_buckets: int = MIN_BUCKETS,
        split_threshold: int = 16,
    ) -> "HashDirectory":
        """Lay out a fresh directory; the caller's next ``save`` makes the
        meta page durable."""
        initial_buckets = max(cls.MIN_BUCKETS, int(initial_buckets))
        meta_page = pool.allocate()
        if meta_page != 0:
            raise ValueError(
                f"the meta page must be page 0 of a fresh blob, got {meta_page}"
            )
        directory = cls(
            pool,
            hash_key,
            bucket_pages=[],
            dir_pages=[],
            split_threshold=split_threshold,
        )
        directory.bucket_pages = [
            directory._new_bucket_page() for _ in range(initial_buckets)
        ]
        directory.dirty = True
        directory.save()
        return directory

    @classmethod
    def open(
        cls,
        pool: BufferPool,
        hash_key: HashKey,
        *,
        meta_page: int = 0,
        split_threshold: int = 16,
    ) -> "HashDirectory":
        magic, bucket_count, size, dir_page = _META.unpack_from(
            pool.read(meta_page), 0
        )
        if magic != _META_MAGIC:
            raise ValueError("hash directory storage is corrupt (bad magic)")
        bucket_pages: List[int] = []
        dir_pages: List[int] = []
        while dir_page != -1:
            dir_pages.append(dir_page)
            data = pool.read(dir_page)
            count, next_page = _DIR_HEADER.unpack_from(data, 0)
            offset = _DIR_HEADER.size
            for _ in range(count):
                (page_id,) = _DIR_SLOT.unpack_from(data, offset)
                bucket_pages.append(page_id)
                offset += _DIR_SLOT.size
            dir_page = next_page
        if len(bucket_pages) != bucket_count:
            raise ValueError(
                f"hash directory corrupt: meta says {bucket_count} buckets, "
                f"directory chain lists {len(bucket_pages)}"
            )
        return cls(
            pool,
            hash_key,
            bucket_pages=bucket_pages,
            dir_pages=dir_pages,
            size=size,
            split_threshold=split_threshold,
        )

    def save(self, meta_page: int = 0) -> None:
        """Write the meta page and the directory chain (if dirty)."""
        if not self.dirty:
            return
        slots_per_page = (self.page_size - _DIR_HEADER.size) // _DIR_SLOT.size
        chunks = [
            self.bucket_pages[start : start + slots_per_page]
            for start in range(0, len(self.bucket_pages), slots_per_page)
        ] or [[]]
        while len(self._dir_pages) < len(chunks):
            self._dir_pages.append(self.pool.allocate())
        while len(self._dir_pages) > len(chunks):
            self.pool.free(self._dir_pages.pop())
        for index, chunk in enumerate(chunks):
            next_page = (
                self._dir_pages[index + 1] if index + 1 < len(chunks) else -1
            )
            data = bytearray(self.page_size)
            _DIR_HEADER.pack_into(data, 0, len(chunk), next_page)
            offset = _DIR_HEADER.size
            for page_id in chunk:
                _DIR_SLOT.pack_into(data, offset, page_id)
                offset += _DIR_SLOT.size
            self.pool.write(self._dir_pages[index], bytes(data))
        self.pool.write(
            meta_page,
            _META.pack(
                _META_MAGIC,
                len(self.bucket_pages),
                self.size,
                self._dir_pages[0] if self._dir_pages else -1,
            ).ljust(self.page_size, b"\x00"),
        )
        self.dirty = False

    # ------------------------------------------------------------------
    # Bucket page codec
    # ------------------------------------------------------------------

    def _new_bucket_page(self) -> int:
        page_id = self.pool.allocate()
        self._write_bucket(page_id, [], -1)
        return page_id

    def _read_bucket(
        self, page_id: int
    ) -> Tuple[List[Tuple[bytes, int, int]], int]:
        """A bucket page's (entries, overflow page id), shared with other
        readers: a path that changes the entries copies the list first."""
        return self.pool.read_decoded(page_id, _decode_bucket)

    def _write_bucket(
        self, page_id: int, entries: List[Tuple[bytes, int, int]], overflow: int
    ) -> None:
        data = bytearray(self.page_size)
        _BUCKET_HEADER.pack_into(data, 0, len(entries), overflow)
        offset = _BUCKET_HEADER.size
        for key, rowid, fragid in entries:
            _ENTRY_FIXED.pack_into(data, offset, len(key), rowid, fragid)
            offset += _ENTRY_FIXED.size
            data[offset : offset + len(key)] = key
            offset += len(key)
        self.pool.write(page_id, bytes(data), (entries, overflow))

    def _entry_size(self, key: bytes) -> int:
        return _ENTRY_FIXED.size + len(key)

    def _bucket_bytes(self, entries: List[Tuple[bytes, int, int]]) -> int:
        return _BUCKET_HEADER.size + sum(
            self._entry_size(key) for key, _, _ in entries
        )

    def _bucket_for(self, key: bytes) -> int:
        return self.bucket_pages[self.hash_key(key) % len(self.bucket_pages)]

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------

    def lookup(self, key: bytes) -> List[Tuple[int, int]]:
        """All (rowid, fragid) stored under *key* -- one bucket chain."""
        results: List[Tuple[int, int]] = []
        page_id = self._bucket_for(key)
        while page_id != -1:
            entries, page_id = self._read_bucket(page_id)
            for entry_key, rowid, fragid in entries:
                if entry_key == key:
                    results.append((rowid, fragid))
        return results

    def insert(self, key: bytes, rowid: int, fragid: int = 0) -> None:
        if self._entry_size(key) > self.page_size - _BUCKET_HEADER.size:
            raise ValueError("key too large for the configured page size")
        page_id = self._bucket_for(key)
        while True:
            entries, overflow = self._read_bucket(page_id)
            entries = list(entries)
            if (
                self._bucket_bytes(entries) + self._entry_size(key)
                <= self.page_size
            ):
                entries.append((key, rowid, fragid))
                self._write_bucket(page_id, entries, overflow)
                break
            if overflow == -1:
                overflow = self._new_bucket_page()
                self._write_bucket(page_id, entries, overflow)
            page_id = overflow
        self.size += 1
        self.dirty = True
        if self.size > self.split_threshold * len(self.bucket_pages):
            self._rehash(2 * len(self.bucket_pages))

    def delete(self, key: bytes, rowid: int, fragid: int = 0) -> bool:
        page_id = self._bucket_for(key)
        while page_id != -1:
            entries, overflow = self._read_bucket(page_id)
            for index, (entry_key, entry_rowid, entry_fragid) in enumerate(
                entries
            ):
                if (
                    entry_key == key
                    and entry_rowid == rowid
                    and entry_fragid == fragid
                ):
                    entries = entries[:index] + entries[index + 1 :]
                    self._write_bucket(page_id, entries, overflow)
                    self.size -= 1
                    self.dirty = True
                    return True
            page_id = overflow
        return False

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------

    def _rehash(self, new_bucket_count: int) -> None:
        """Double the directory: every entry moves to its new bucket.

        Runs inside the triggering statement's transaction; a crash
        mid-rehash is healed like any other torn multi-page write --
        the WAL never commits the statement, so recovery discards it.
        """
        entries = list(self.iter_all())
        old_pages: List[int] = []
        for page_id in self.bucket_pages:
            while page_id != -1:
                old_pages.append(page_id)
                _, page_id = self._read_bucket(page_id)
        buckets: List[List[Tuple[bytes, int, int]]] = [
            [] for _ in range(new_bucket_count)
        ]
        for key, rowid, fragid in entries:
            buckets[self.hash_key(key) % new_bucket_count].append(
                (key, rowid, fragid)
            )
        # Recycle the old chain pages before allocating the new layout.
        free_pages = old_pages[::-1]

        def next_page() -> int:
            return free_pages.pop() if free_pages else self.pool.allocate()

        self.bucket_pages = []
        for bucket in buckets:
            head = next_page()
            self.bucket_pages.append(head)
            page_id = head
            pending = list(bucket)
            while True:
                fitting: List[Tuple[bytes, int, int]] = []
                used = _BUCKET_HEADER.size
                while pending and used + self._entry_size(pending[0][0]) <= (
                    self.page_size
                ):
                    entry = pending.pop(0)
                    fitting.append(entry)
                    used += self._entry_size(entry[0])
                overflow = next_page() if pending else -1
                self._write_bucket(page_id, fitting, overflow)
                if overflow == -1:
                    break
                page_id = overflow
        for page_id in free_pages:
            self.pool.free(page_id)
        self.rehashes += 1
        self.dirty = True

    # ------------------------------------------------------------------
    # Iteration and integrity
    # ------------------------------------------------------------------

    def iter_all(self) -> Iterator[Tuple[bytes, int, int]]:
        for head in self.bucket_pages:
            page_id = head
            while page_id != -1:
                entries, page_id = self._read_bucket(page_id)
                yield from entries

    def check(self) -> None:
        """Verify placement, chain sanity, and the recorded size."""
        counted = 0
        seen_pages: set = set()
        for index, head in enumerate(self.bucket_pages):
            page_id = head
            while page_id != -1:
                if page_id in seen_pages:
                    raise AssertionError(
                        f"bucket chain cycle through page {page_id}"
                    )
                seen_pages.add(page_id)
                entries, page_id = self._read_bucket(page_id)
                for key, _, _ in entries:
                    counted += 1
                    placed = self.hash_key(key) % len(self.bucket_pages)
                    if placed != index:
                        raise AssertionError(
                            f"entry hashed to bucket {placed} found in "
                            f"bucket {index}"
                        )
        if counted != self.size:
            raise AssertionError(
                f"size mismatch: counted {counted}, recorded {self.size}"
            )

    def stats(self) -> dict:
        return {
            "buckets": len(self.bucket_pages),
            "size": self.size,
            "rehashes": self.rehashes,
        }


def _decode_bucket(
    page_id: int, data: bytes
) -> Tuple[List[Tuple[bytes, int, int]], int]:
    count, overflow = _BUCKET_HEADER.unpack_from(data, 0)
    entries: List[Tuple[bytes, int, int]] = []
    offset = _BUCKET_HEADER.size
    for _ in range(count):
        key_len, rowid, fragid = _ENTRY_FIXED.unpack_from(data, offset)
        offset += _ENTRY_FIXED.size
        entries.append((bytes(data[offset : offset + key_len]), rowid, fragid))
        offset += key_len
    return entries, overflow
