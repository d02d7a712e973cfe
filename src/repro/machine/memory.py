"""Sparse paged memory for the WRL-64 machine.

Pages are allocated lazily within explicitly mapped regions; access outside
any mapped region raises :class:`MemoryFault`.  ATOM's partitioned-heap
scheme deliberately has *no* overlap check between the application and
analysis heaps (paper Section 4), which this model makes possible: both
regions are simply mapped, and nothing stops one growing into the other.
"""

from __future__ import annotations

from dataclasses import dataclass

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class MemoryFault(Exception):
    def __init__(self, addr: int, why: str = "unmapped address"):
        self.addr = addr
        super().__init__(f"{why}: {addr:#x}")


@dataclass
class Region:
    start: int
    end: int
    label: str

    def __contains__(self, addr: int) -> bool:
        return self.start <= addr < self.end


class Memory:
    """Byte-addressable sparse memory with mapped-region checking."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        self._regions: list[Region] = []
        #: most-recently-hit region: memory accesses are highly local, so
        #: this turns the region scan into one compare almost always.
        self._hot: Region | None = None
        #: page numbers that lie entirely inside some mapped region.
        #: Regions are only ever created or grown, never shrunk, so
        #: membership is monotone: once a page is known fully mapped, any
        #: in-page access to it is valid forever and can skip the region
        #: check.  Populated as a side effect of :meth:`check`.
        self._full: set[int] = set()
        #: the intersection of ``_full`` and ``_pages``: pages both fully
        #: mapped and allocated.  One dict probe answers "is this in-page
        #: access valid, and if so on which bytes" — the fast path for
        #: typed access here and for the fused-superblock inline code.
        self._fast: dict[int, bytearray] = {}
        #: page number -> (lo, hi): the slice of the page known to lie
        #: inside one mapped region.  Same monotonicity argument as
        #: ``_full``, but also covers partially-mapped pages (small data
        #: sections, region edges), making the common check one dict hit.
        self._extent: dict[int, tuple[int, int]] = {}

    # ---- mapping ----------------------------------------------------------

    def map_region(self, start: int, size: int, label: str) -> Region:
        region = Region(start, start + size, label)
        self._regions.append(region)
        return region

    def extend_region(self, label: str, new_end: int) -> None:
        for region in self._regions:
            if region.label == label:
                region.end = max(region.end, new_end)
                return
        raise KeyError(f"no region labelled {label!r}")

    def region_at(self, addr: int) -> Region | None:
        for region in self._regions:
            if addr in region:
                return region
        return None

    def check(self, addr: int, size: int) -> None:
        span = self._extent.get(addr >> PAGE_SHIFT)
        if span is not None and span[0] <= addr and \
                addr + size <= span[1]:
            return
        hot = self._hot
        if hot is not None and hot.start <= addr and \
                addr + size <= hot.end:
            region = hot
        else:
            region = self.region_at(addr)
            if region is None or addr + size > region.end:
                raise MemoryFault(addr)
            self._hot = region
        page_no = addr >> PAGE_SHIFT
        page_lo = page_no << PAGE_SHIFT
        page_hi = page_lo + PAGE_SIZE
        if region.start <= page_lo and page_hi <= region.end:
            self._full.add(page_no)
            page = self._pages.get(page_no)
            if page is not None:
                self._fast[page_no] = page
        self._extent[page_no] = (max(region.start, page_lo),
                                 min(region.end, page_hi))

    def regions(self) -> list[Region]:
        return list(self._regions)

    # ---- raw page access ----------------------------------------------------

    def _page(self, page_no: int) -> bytearray:
        page = self._pages.get(page_no)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_no] = page
            if page_no in self._full:
                self._fast[page_no] = page
        return page

    def read(self, addr: int, size: int) -> bytes:
        self.check(addr, size)
        return self._read_nocheck(addr, size)

    def _read_nocheck(self, addr: int, size: int) -> bytes:
        out = bytearray()
        while size:
            page_no, off = addr >> PAGE_SHIFT, addr & PAGE_MASK
            chunk = min(size, PAGE_SIZE - off)
            out += self._page(page_no)[off:off + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        self.check(addr, len(data))
        self._write_nocheck(addr, data)

    def _write_nocheck(self, addr: int, data: bytes) -> None:
        pos = 0
        size = len(data)
        while pos < size:
            page_no, off = addr >> PAGE_SHIFT, addr & PAGE_MASK
            chunk = min(size - pos, PAGE_SIZE - off)
            self._page(page_no)[off:off + chunk] = data[pos:pos + chunk]
            addr += chunk
            pos += chunk

    # ---- typed access (little endian) ---------------------------------------

    def read_u8(self, addr: int) -> int:
        self.check(addr, 1)
        return self._page(addr >> PAGE_SHIFT)[addr & PAGE_MASK]

    def write_u8(self, addr: int, value: int) -> None:
        self.check(addr, 1)
        self._page(addr >> PAGE_SHIFT)[addr & PAGE_MASK] = value & 0xFF

    def read_uint(self, addr: int, size: int) -> int:
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE:
            page = self._fast.get(addr >> PAGE_SHIFT)
            if page is not None:
                return int.from_bytes(page[off:off + size], "little")
            self.check(addr, size)
            return int.from_bytes(self._page(addr >> PAGE_SHIFT)
                                  [off:off + size], "little")
        self.check(addr, size)
        return int.from_bytes(self._read_nocheck(addr, size), "little")

    def write_uint(self, addr: int, value: int, size: int) -> None:
        off = addr & PAGE_MASK
        raw = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        if off + size <= PAGE_SIZE:
            page = self._fast.get(addr >> PAGE_SHIFT)
            if page is None:
                self.check(addr, size)
                page = self._page(addr >> PAGE_SHIFT)
            page[off:off + size] = raw
        else:
            self.check(addr, size)
            self._write_nocheck(addr, raw)

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> bytes:
        out = bytearray()
        while len(out) < limit:
            byte = self.read_u8(addr)
            if byte == 0:
                return bytes(out)
            out.append(byte)
            addr += 1
        raise MemoryFault(addr, "unterminated string")
