//! Sparse paged data memory.

use std::sync::Arc;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE - 1;

/// Size in bytes of one memory page (the snapshot granularity).
pub const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// One resident page. Pages are shared copy-on-write: cloning a
/// [`Memory`] (or capturing a snapshot) bumps a reference count per page,
/// and a write copies a page only while some other owner still holds it.
type Page = Arc<[u8; PAGE_BYTES]>;

/// A sparse, byte-addressed 64-bit memory backed by 4 KiB pages.
///
/// Reads of untouched memory return zero, so programs can rely on
/// zero-initialized buffers. All multi-byte accesses are little-endian and
/// may straddle page boundaries.
///
/// Pages are copy-on-write. Every write goes through [`Arc::make_mut`], so
/// a clone of a memory shares all of its pages until one side writes one;
/// that write copies the single 4 KiB page, and neither side ever sees
/// the other's later writes.
///
/// The page table is a hand-rolled open-addressed hash table (linear
/// probing over a power-of-two slot array, keyed by `page_no + 1` so zero
/// means empty). Every fetch-phase emulator step and every simulated load
/// and store walks this table, and the workloads touch only dozens of
/// pages — so a multiply-shift probe beats a general-purpose SipHash map
/// on the hot path while keeping the same total-function semantics.
#[derive(Clone, Debug)]
pub struct Memory {
    /// `page_no + 1` per slot; 0 marks an empty slot. Power-of-two length.
    keys: Box<[u64]>,
    /// The page storage, parallel to `keys`.
    pages: Box<[Option<Page>]>,
    /// Occupied slots; the table grows at 1/2 load factor.
    used: usize,
}

/// Memories are equal when the same pages are resident and hold the same
/// bytes, whatever their table layout or insertion history. Pages still
/// shared between the two compare by pointer without reading them.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.used == other.used && self.shared_pages_sorted() == other.shared_pages_sorted()
    }
}

impl Eq for Memory {}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

/// Fibonacci multiply-shift of the page number into a `cap`-slot table
/// (`cap` a power of two).
#[inline]
fn probe_start(page_no: u64, cap: usize) -> usize {
    (page_no.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - cap.trailing_zeros())) as usize
}

impl Memory {
    const INITIAL_SLOTS: usize = 64;

    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Memory {
        Memory {
            keys: vec![0; Self::INITIAL_SLOTS].into_boxed_slice(),
            pages: std::iter::repeat_with(|| None).take(Self::INITIAL_SLOTS).collect(),
            used: 0,
        }
    }

    /// Number of resident pages (for footprint diagnostics).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.used
    }

    /// Every resident page as a `(page_number, bytes)` pair, sorted by
    /// page number. The order is deterministic regardless of hash-table
    /// layout or insertion history, so snapshots of behaviorally equal
    /// memories compare equal byte for byte.
    #[must_use]
    pub fn pages_sorted(&self) -> Vec<(u64, &[u8; PAGE_BYTES])> {
        self.shared_pages_sorted().into_iter().map(|(page_no, page)| (page_no, &**page)).collect()
    }

    /// Every resident page's shared handle, sorted by page number.
    fn shared_pages_sorted(&self) -> Vec<(u64, &Page)> {
        let mut out: Vec<(u64, &Page)> = self
            .keys
            .iter()
            .zip(self.pages.iter())
            .filter(|(&k, _)| k != 0)
            .map(|(&k, p)| (k - 1, p.as_ref().expect("occupied slot holds a page")))
            .collect();
        out.sort_unstable_by_key(|&(page_no, _)| page_no);
        out
    }

    #[inline]
    fn find(&self, page_no: u64) -> Option<&Page> {
        let cap = self.keys.len();
        let key = page_no + 1;
        let mut slot = probe_start(page_no, cap);
        loop {
            let k = self.keys[slot];
            if k == key {
                return self.pages[slot].as_ref();
            }
            if k == 0 {
                return None;
            }
            slot = (slot + 1) & (cap - 1);
        }
    }

    /// The page holding `page_no`, inserted zero-filled if absent and
    /// copied first if another owner shares it: the single write path.
    fn page_mut(&mut self, page_no: u64) -> &mut [u8; PAGE_BYTES] {
        if self.used * 2 >= self.keys.len() {
            self.grow();
        }
        let cap = self.keys.len();
        let key = page_no + 1;
        let mut slot = probe_start(page_no, cap);
        loop {
            let k = self.keys[slot];
            if k == 0 {
                self.keys[slot] = key;
                self.pages[slot] = Some(Arc::new([0; PAGE_BYTES]));
                self.used += 1;
                break;
            }
            if k == key {
                break;
            }
            slot = (slot + 1) & (cap - 1);
        }
        Arc::make_mut(self.pages[slot].as_mut().expect("occupied slot holds a page"))
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap].into_boxed_slice());
        let old_pages = std::mem::replace(
            &mut self.pages,
            std::iter::repeat_with(|| None).take(new_cap).collect(),
        );
        for (key, page) in old_keys.iter().zip(old_pages.into_vec()) {
            if *key == 0 {
                continue;
            }
            let mut slot = probe_start(key - 1, new_cap);
            while self.keys[slot] != 0 {
                slot = (slot + 1) & (new_cap - 1);
            }
            self.keys[slot] = *key;
            self.pages[slot] = page;
        }
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.find(addr >> PAGE_SHIFT) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self.page_mut(addr >> PAGE_SHIFT);
        page[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    #[must_use]
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE as usize {
            if let Some(page) = self.find(addr >> PAGE_SHIFT) {
                out.copy_from_slice(&page[off..off + N]);
            }
            return out;
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    /// Writes `N` little-endian bytes starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        // Fast path: within one page, one table probe for the whole write.
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes.len() <= PAGE_SIZE as usize {
            let page = self.page_mut(addr >> PAGE_SHIFT);
            page[off..off + bytes.len()].copy_from_slice(bytes);
            return;
        }
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads a little-endian `u16`.
    #[must_use]
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }
}

#[cfg(test)]
impl Memory {
    /// Whether both memories hold the same resident pages as the very same
    /// shared allocations (the structural guard against a deep copy).
    pub(crate) fn shares_every_page_with(&self, other: &Memory) -> bool {
        let (a, b) = (self.shared_pages_sorted(), other.shared_pages_sorted());
        a.len() == b.len()
            && a.iter().zip(&b).all(|((na, pa), (nb, pb))| na == nb && Arc::ptr_eq(pa, pb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_untouched() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xDEAD_BEEF), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_back_values() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(0x1000), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u8(0x1000), 0xEF, "little-endian layout");
        assert_eq!(m.read_u32(0x1004), 0x0123_4567);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 4; // straddles the first page boundary
        m.write_u64(addr, u64::MAX - 1);
        assert_eq!(m.read_u64(addr), u64::MAX - 1);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn partial_overwrite() {
        let mut m = Memory::new();
        m.write_u64(8, u64::MAX);
        m.write_u8(9, 0);
        assert_eq!(m.read_u64(8), 0xFFFF_FFFF_FFFF_00FF);
    }

    /// Byte-granular overlap semantics: these are the semantics the LSQ
    /// disambiguator relies on — a *covering* older store may forward its
    /// value verbatim, while any partial overlap must produce the byte
    /// merge that memory itself would, so the simulator conservatively
    /// blocks partial overlaps and replays through memory.
    mod overlap_semantics {
        use super::*;

        #[test]
        fn covering_store_forwards_exact_value() {
            let mut m = Memory::new();
            m.write_u64(0x100, 0x1122_3344_5566_7788);
            // A narrower load inside the stored quad reads the matching
            // little-endian slice — exactly what LSQ forwarding returns.
            assert_eq!(m.read_u32(0x100), 0x5566_7788);
            assert_eq!(m.read_u32(0x104), 0x1122_3344);
            assert_eq!(m.read_u8(0x107), 0x11);
        }

        #[test]
        fn partial_width_store_then_wider_load_merges_bytes() {
            let mut m = Memory::new();
            m.write_u64(0x200, 0xAAAA_AAAA_AAAA_AAAA);
            m.write_u32(0x202, 0x1234_5678);
            // The wider load sees a byte merge of both stores: no single
            // store covers it, so the LSQ would block rather than forward.
            assert_eq!(m.read_u64(0x200), 0xAAAA_1234_5678_AAAA);
        }

        #[test]
        fn unaligned_store_straddles_and_merges() {
            let mut m = Memory::new();
            m.write_u64(0x300, 0);
            m.write_u64(0x308, u64::MAX);
            m.write_u32(0x306, 0xDDCC_BBAA); // straddles the quad boundary
            assert_eq!(m.read_u64(0x300), 0xBBAA_0000_0000_0000);
            assert_eq!(m.read_u64(0x308), 0xFFFF_FFFF_FFFF_DDCC);
        }

        #[test]
        fn overlapping_loads_see_latest_store_per_byte() {
            let mut m = Memory::new();
            m.write_u32(0x400, 0x0101_0101);
            m.write_u8(0x401, 0xFF);
            assert_eq!(m.read_u32(0x400), 0x0101_FF01);
            // Unaligned load overlapping the patched byte.
            assert_eq!(m.read_u32(0x3FE), 0xFF01_0000);
        }
    }

    /// Every access width, placed so the access straddles a page edge the
    /// way a loaded binary image's data can: the bytes must read back
    /// identically whether or not a page boundary sits mid-access.
    #[test]
    fn every_width_straddles_page_edges() {
        let boundary = 3 * PAGE_SIZE;
        // Seed an "image" across the boundary the way the loader writes
        // segments: one contiguous byte blob.
        let image: Vec<u8> =
            (0u16..32).map(|i| (i as u8).wrapping_mul(37).wrapping_add(1)).collect();
        let image_base = boundary - 16;
        let mut m = Memory::new();
        m.write_bytes(image_base, &image);

        // 1-byte accesses at either side of the edge.
        assert_eq!(m.read_u8(boundary - 1), image[15]);
        assert_eq!(m.read_u8(boundary), image[16]);
        // 2-byte access straddling: one byte each side.
        assert_eq!(m.read_u16(boundary - 1), u16::from_le_bytes([image[15], image[16]]));
        // 4-byte access straddling 1..3 bytes into the next page.
        for split in 1..4u64 {
            let a = boundary - split;
            let lo = (a - image_base) as usize;
            assert_eq!(m.read_u32(a), u32::from_le_bytes(image[lo..lo + 4].try_into().unwrap()));
        }
        // 8-byte access straddling 1..7 bytes into the next page.
        for split in 1..8u64 {
            let a = boundary - split;
            let lo = (a - image_base) as usize;
            assert_eq!(m.read_u64(a), u64::from_le_bytes(image[lo..lo + 8].try_into().unwrap()));
        }

        // Straddling writes land on the correct bytes of both pages.
        m.write_u16(boundary - 1, 0xBEEF);
        assert_eq!(m.read_u8(boundary - 1), 0xEF);
        assert_eq!(m.read_u8(boundary), 0xBE);
        m.write_u32(boundary - 2, 0xAABB_CCDD);
        assert_eq!(m.read_u32(boundary - 2), 0xAABB_CCDD);
        m.write_u64(boundary - 5, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(boundary - 5), 0x1122_3344_5566_7788);
    }

    #[test]
    fn u16_round_trip_and_endianness() {
        let mut m = Memory::new();
        m.write_u16(0x500, 0xA1B2);
        assert_eq!(m.read_u16(0x500), 0xA1B2);
        assert_eq!(m.read_u8(0x500), 0xB2, "little-endian layout");
        assert_eq!(m.read_u8(0x501), 0xA1);
        assert_eq!(m.read_u16(0xFFF0), 0, "untouched memory reads zero");
    }

    #[test]
    fn unaligned_cross_page_round_trip() {
        let mut m = Memory::new();
        let addr = 2 * PAGE_SIZE - 3; // quad spans two pages, unaligned
        m.write_u64(addr, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(addr), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u8(addr), 0xEF);
        assert_eq!(m.read_u8(addr + 7), 0x01);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn pages_sorted_is_deterministic_and_complete() {
        let mut m = Memory::new();
        // Insert in descending page order; iteration must come back sorted.
        for page in [9u64, 5, 1] {
            m.write_u8(page << PAGE_SHIFT | 3, page as u8);
        }
        let pages = m.pages_sorted();
        assert_eq!(pages.iter().map(|&(n, _)| n).collect::<Vec<_>>(), vec![1, 5, 9]);
        for (page_no, bytes) in pages {
            assert_eq!(bytes[3], page_no as u8);
            assert!(bytes[..3].iter().all(|&b| b == 0));
        }
        assert_eq!(Memory::new().pages_sorted(), vec![]);
    }

    #[test]
    fn clones_share_pages_until_written_and_never_see_each_other() {
        let edge = 2 * PAGE_SIZE;
        let mut a = Memory::new();
        a.write_u64(0x100, 0x0101_0101_0101_0101);
        a.write_u64(edge - 4, 0x1111_2222_3333_4444); // straddles pages 1 and 2
        a.write_u64(5 * PAGE_SIZE, 55); // neither side writes page 5 again
        let mut b = a.clone();
        assert!(a.shares_every_page_with(&b), "a clone copies no page");
        assert_eq!(a, b);

        // Different bytes on each side, including a page-straddling quad
        // and a page only one side creates.
        a.write_u64(edge - 4, 0xAAAA_AAAA_AAAA_AAAA);
        b.write_u64(edge - 4, 0xBBBB_BBBB_BBBB_BBBB);
        b.write_u8(0x100, 0x99);
        a.write_u32(7 * PAGE_SIZE, 0x7777);

        assert_eq!(a.read_u64(edge - 4), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(b.read_u64(edge - 4), 0xBBBB_BBBB_BBBB_BBBB);
        assert_eq!(a.read_u64(0x100), 0x0101_0101_0101_0101);
        assert_eq!(b.read_u64(0x100), 0x0101_0101_0101_0199);
        assert_eq!(a.read_u32(7 * PAGE_SIZE), 0x7777);
        assert_eq!(b.read_u32(7 * PAGE_SIZE), 0, "page created on the other side");
        assert_eq!((a.resident_pages(), b.resident_pages()), (5, 4));
        assert_ne!(a, b);

        // Only written pages were copied; page 5 is still one allocation.
        let shared = |m: &Memory| Arc::clone(m.shared_pages_sorted()[3].1);
        assert_eq!(a.shared_pages_sorted()[3].0, 5);
        assert!(Arc::ptr_eq(&shared(&a), &shared(&b)));
        assert_eq!(b.read_u64(5 * PAGE_SIZE), 55);
    }

    #[test]
    fn sole_owner_writes_in_place() {
        let mut a = Memory::new();
        a.write_u64(0x40, 1);
        let page = |m: &Memory| Arc::as_ptr(m.shared_pages_sorted()[0].1);
        let before = page(&a);
        let b = a.clone();
        drop(b);
        a.write_u64(0x40, 2);
        assert_eq!(page(&a), before, "a page no one else holds is not copied");
        assert_eq!(a.read_u64(0x40), 2);
    }

    #[test]
    fn equality_is_by_content_not_layout() {
        let (mut a, mut b) = (Memory::new(), Memory::new());
        for page in [1u64, 40, 3] {
            a.write_u8(page << PAGE_SHIFT, page as u8);
        }
        for page in (0..64u64).rev() {
            b.write_u8(page << PAGE_SHIFT, 0); // forces growth, then zeroes
        }
        assert_ne!(a, b, "different resident sets");
        let mut c = Memory::new();
        for page in [3u64, 1, 40] {
            c.write_u8(page << PAGE_SHIFT, page as u8);
        }
        assert_eq!(a, c, "same pages and bytes in another insertion order");
        c.write_u8(40 << PAGE_SHIFT | 1, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn wrapping_byte_loop_is_total() {
        // read_bytes/write_bytes wrap address arithmetic rather than
        // panicking; the emulator rejects such addresses before access,
        // but the Memory type itself stays a total function.
        let mut m = Memory::new();
        m.write_bytes(u64::MAX, &[0xAB, 0xCD]);
        assert_eq!(m.read_u8(u64::MAX), 0xAB);
        assert_eq!(m.read_u8(0), 0xCD);
    }

    /// The open-addressed table is behaviorally identical to a reference
    /// map across growth, collisions and sparse/pathological page numbers
    /// — the digest-neutrality micro-assertion for the conversion away
    /// from `std::collections::HashMap`.
    #[test]
    fn table_matches_reference_model_across_growth() {
        use std::collections::BTreeMap;
        let mut m = Memory::new();
        let mut reference: BTreeMap<u64, u8> = BTreeMap::new();
        // A deterministic scatter over enough distinct pages to force
        // several growths (initial 64 slots, grows at 32 pages), with
        // colliding and high page numbers mixed in.
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for i in 0..4096u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let page = (x >> 40) & 0x3FF; // 1024 candidate pages
            let addr = (page << PAGE_SHIFT) | (x & PAGE_MASK);
            let value = (x >> 16) as u8;
            m.write_u8(addr, value);
            reference.insert(addr, value);
            if i % 7 == 0 {
                // Interleaved reads, including misses.
                let probe = addr ^ 0x1_0000;
                assert_eq!(m.read_u8(probe), reference.get(&probe).copied().unwrap_or(0));
            }
        }
        for (&addr, &value) in &reference {
            assert_eq!(m.read_u8(addr), value, "at {addr:#x}");
        }
        let pages: std::collections::BTreeSet<u64> =
            reference.keys().map(|a| a >> PAGE_SHIFT).collect();
        assert_eq!(m.resident_pages(), pages.len());
    }
}
