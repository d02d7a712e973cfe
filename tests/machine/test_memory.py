"""Sparse memory: mapping, typed access, faults, strings — and the
validated-page fast path that ``read_uint``/``write_uint`` and the fused
superblock templates share.

The fast-path tests treat ``read()``/``write()`` (the region-checked
byte path) as the reference implementation and insist the ``_fast``
page map and the ``read_uint``/``write_uint`` fast branches agree with
it bit-for-bit, especially at page boundaries and on unaligned
addresses where the two implementations genuinely differ in mechanism.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine.memory import Memory, MemoryFault, PAGE_SIZE


def mapped():
    mem = Memory()
    mem.map_region(0x1000, 0x10000, "r")
    return mem


def test_unmapped_access_faults():
    mem = Memory()
    with pytest.raises(MemoryFault):
        mem.read_u8(0x1000)
    with pytest.raises(MemoryFault):
        mem.write_u8(0x1000, 1)


def test_access_past_region_end_faults():
    mem = mapped()
    mem.read_uint(0x1000 + 0x10000 - 8, 8)
    with pytest.raises(MemoryFault):
        mem.read_uint(0x1000 + 0x10000 - 4, 8)


def test_byte_roundtrip():
    mem = mapped()
    mem.write_u8(0x1234, 0xAB)
    assert mem.read_u8(0x1234) == 0xAB


@given(addr=st.integers(min_value=0x1000, max_value=0x10F00),
       value=st.integers(min_value=0, max_value=(1 << 64) - 1),
       size=st.sampled_from([1, 2, 4, 8]))
def test_uint_roundtrip(addr, value, size):
    mem = mapped()
    mem.write_uint(addr, value, size)
    assert mem.read_uint(addr, size) == value & ((1 << (8 * size)) - 1)


def test_cross_page_access():
    mem = Memory()
    mem.map_region(0, 4 * PAGE_SIZE, "r")
    addr = PAGE_SIZE - 3
    mem.write_uint(addr, 0x1122334455667788, 8)
    assert mem.read_uint(addr, 8) == 0x1122334455667788
    blob = bytes(range(100)) * 100
    mem.write(PAGE_SIZE - 50, blob)
    assert mem.read(PAGE_SIZE - 50, len(blob)) == blob


def test_extend_region():
    mem = Memory()
    mem.map_region(0x1000, 0, "heap")
    with pytest.raises(MemoryFault):
        mem.read_u8(0x1000)
    mem.extend_region("heap", 0x2000)
    mem.write_u8(0x1800, 7)
    assert mem.read_u8(0x1800) == 7
    with pytest.raises(KeyError):
        mem.extend_region("nothere", 0x3000)


def test_region_lookup():
    mem = mapped()
    region = mem.region_at(0x1000)
    assert region is not None and region.label == "r"
    assert mem.region_at(0x999) is None


def test_cstring():
    mem = mapped()
    mem.write(0x2000, b"hello\x00world")
    assert mem.read_cstring(0x2000) == b"hello"
    mem.write(0x3000, b"\x00")
    assert mem.read_cstring(0x3000) == b""


def test_unterminated_cstring_faults():
    mem = Memory()
    mem.map_region(0, PAGE_SIZE, "r")
    mem.write(0, b"\x01" * PAGE_SIZE)
    with pytest.raises(MemoryFault):
        mem.read_cstring(0, limit=PAGE_SIZE // 2)


def test_unaligned_access_allowed():
    """Unaligned accesses work (the unalign tool detects them, the
    hardware model does not forbid them)."""
    mem = mapped()
    mem.write_uint(0x1001, 0xDEADBEEF, 4)
    assert mem.read_uint(0x1001, 4) == 0xDEADBEEF


# ---- the validated-page fast path (what fused superblocks inline) ----

SIZES = (1, 2, 4, 8)


def touched(n_pages: int = 4) -> Memory:
    """A memory whose first ``n_pages`` are fully mapped, allocated and
    fast-path installed — the steady state fused code runs in."""
    mem = Memory()
    mem.map_region(0, n_pages * PAGE_SIZE, "r")
    for page in range(n_pages):
        mem.write_u8(page * PAGE_SIZE, 0)       # allocate + install
    return mem


def fill(mem: Memory, base: int, length: int) -> bytes:
    blob = bytes((37 * i + 11) & 0xFF for i in range(length))
    mem.write(base, blob)
    return blob


def test_fast_views_installed_and_aliased():
    mem = touched(2)
    assert set(mem._fast) == {0, 1}
    # fast pages are the very bytes the slow path reads
    mem._fast[0][24:32] = (0x1122334455667788).to_bytes(8, "little")
    assert mem.read(24, 8) == bytes.fromhex("8877665544332211")
    mem._fast[1][2:4] = (0xBEEF).to_bytes(2, "little")
    assert mem.read_uint(PAGE_SIZE + 2, 2) == 0xBEEF


def test_fast_views_track_pages_allocated_later():
    """A page validated by check() before its first write must join the
    fast path at allocation time, not serve a stale page or none."""
    mem = Memory()
    mem.map_region(0, 2 * PAGE_SIZE, "r")
    mem.check(PAGE_SIZE + 8, 8)                 # validated, still BSS
    assert 1 in mem._full and 1 not in mem._fast
    mem.write_u8(PAGE_SIZE + 8, 0x5A)           # first allocation
    assert mem._fast[1] is mem._pages[1]
    assert mem._fast[1][8] == 0x5A


def test_read_uint_fast_equals_slow_everywhere():
    """Every alignment x size near a page boundary: the fast branch
    (typed slice of a ``_fast`` page) must equal the reference byte
    path bit-for-bit."""
    mem = touched(3)
    blob = fill(mem, 0, 3 * PAGE_SIZE)
    for size in SIZES:
        for addr in list(range(0, 32)) + \
                list(range(PAGE_SIZE - 16, PAGE_SIZE + 16)):
            expect = int.from_bytes(blob[addr:addr + size], "little")
            assert mem.read_uint(addr, size) == expect, (addr, size)
            assert int.from_bytes(mem.read(addr, size), "little") == expect


def test_write_uint_straddle_matches_byte_writes():
    """Writes that straddle the page boundary take the slow branch; the
    landed bytes must be exactly what byte-wise writes produce."""
    for size in (2, 4, 8):
        for start in range(PAGE_SIZE - size + 1, PAGE_SIZE):
            value = (0x0102030405060708 * 3) & ((1 << (8 * size)) - 1)
            via_uint = touched(2)
            via_uint.write_uint(start, value, size)
            via_bytes = touched(2)
            via_bytes.write(start, value.to_bytes(size, "little"))
            assert via_uint.read(0, 2 * PAGE_SIZE) == \
                via_bytes.read(0, 2 * PAGE_SIZE), (start, size)


def test_view_write_then_straddle_read_coherent():
    """Interleaving fast-page writes (the shape fused stores compile to)
    with straddling reads (slow path) must stay coherent — both sides
    address one bytearray."""
    mem = touched(2)
    page0, page1 = mem._fast[0], mem._fast[1]
    page0[PAGE_SIZE - 8:] = (0xA1B2C3D4E5F60718).to_bytes(8, "little")
    page1[0:8] = (0x1828384858687888).to_bytes(8, "little")
    got = mem.read_uint(PAGE_SIZE - 4, 8)       # 4 bytes from each page
    assert got == int.from_bytes(
        (0xA1B2C3D4E5F60718).to_bytes(8, "little")[4:] +
        (0x1828384858687888).to_bytes(8, "little")[:4], "little")


@given(ops=st.lists(
    st.tuples(st.integers(min_value=0, max_value=2 * PAGE_SIZE + 24),
              st.integers(min_value=0, max_value=(1 << 64) - 1),
              st.sampled_from(SIZES)),
    min_size=1, max_size=24))
def test_mixed_width_traffic_fast_equals_slow(ops):
    """The same mixed-width write stream applied through the typed fast
    paths and through the reference byte path yields identical memory
    images and identical read-backs at every width."""
    fast, slow = touched(3), touched(3)
    for addr, value, size in ops:
        fast.write_uint(addr, value, size)
        slow.write(addr, (value & ((1 << (8 * size)) - 1))
                   .to_bytes(size, "little"))
    assert fast.read(0, 3 * PAGE_SIZE) == slow.read(0, 3 * PAGE_SIZE)
    for addr, _, size in ops:
        assert fast.read_uint(addr, size) == \
            int.from_bytes(slow.read(addr, size), "little")
