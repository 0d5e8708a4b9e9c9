//! Per-process virtual address space.
//!
//! MultiEdge's API lets a remote node read or write *any* virtual address of
//! the local process, with no pre-registered receive buffers (§2.2): the
//! kernel thread copies incoming data straight into the application's address
//! space. [`AppMemory`] models that address space as a sparse page table;
//! pages materialize (zero-filled, like anonymous mmap) on first touch.
//!
//! # Payloads share pages
//!
//! The send side needs no registered buffers either: an op sourced from
//! memory ([`Payload::Memory`]) is cut into fragment payloads straight from
//! the page table ([`AppMemory::fragments`]). A page is a shared,
//! reference-counted buffer, so
//!
//! * a fragment that lies inside one page is a zero-copy slice of that
//!   page, and a page that was never touched is served from one shared zero
//!   page (a read of it materializes nothing);
//! * every fragment that straddles a page boundary is copied, all of one
//!   op's into one buffer, the only allocation the cut makes;
//! * writing to a page that a payload still holds copies the page first
//!   (copy-on-write), whether the application writes it or an incoming
//!   fragment does.
//!
//! So a payload keeps the bytes its source held when it was cut until the
//! last frame carrying it is dropped: a write sends, and retransmits, the
//! bytes as of its issue, a served read the bytes as of the serve.

use bytes::{Bytes, BytesMut};
use std::collections::HashMap;
use std::rc::Rc;

/// Page size of the simulated address space (x86-64's 4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// One resident page, shared with the payloads cut from it.
type Page = Rc<[u8; PAGE_SIZE]>;

thread_local! {
    /// What every page that was never written reads as.
    static ZERO_PAGE: Bytes = Bytes::from(Rc::new([0u8; PAGE_SIZE]) as Rc<[u8]>);
}

/// Where an op's payload comes from.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A buffer the caller owns, outside the shared address space.
    Bytes(Bytes),
    /// `len` bytes of this node's memory at `addr`, as they are when the
    /// op is cut into fragments.
    Memory {
        /// Start address.
        addr: u64,
        /// Length in bytes.
        len: usize,
    },
}

impl Payload {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Memory { len, .. } => *len,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload::Bytes(b)
    }
}

/// Whether `[addr, addr + len)` lies inside one page.
fn in_one_page(addr: u64, len: usize) -> bool {
    (addr % PAGE_SIZE as u64) as usize + len <= PAGE_SIZE
}

/// Sparse byte-addressable virtual address space.
#[derive(Default)]
pub struct AppMemory {
    /// Randomly seeded on purpose: page numbers come off the wire, chosen
    /// by the peer, so a fixed hasher would hand it collisions. Pages are
    /// looked up, never iterated, so the seed cannot reach any output.
    pages: HashMap<u64, Page>,
}

impl AppMemory {
    /// Empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Page `page_no`, writable: materialized on first touch, and copied
    /// first if a payload still holds it, so the payload keeps its bytes.
    fn page_mut(&mut self, page_no: u64) -> &mut [u8; PAGE_SIZE] {
        let page = self
            .pages
            .entry(page_no)
            .or_insert_with(|| Rc::new([0u8; PAGE_SIZE]));
        Rc::make_mut(page)
    }

    /// Write `data` starting at virtual address `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let page_no = a / PAGE_SIZE as u64;
            let in_page = (a % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            self.page_mut(page_no)[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
    }

    /// Read `buf.len()` bytes starting at `addr` into `buf`. Untouched
    /// addresses read as zero.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let page_no = a / PAGE_SIZE as u64;
            let in_page = (a % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - off);
            match self.pages.get(&page_no) {
                Some(p) => buf[off..off + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// Read `len` bytes starting at `addr` into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v);
        v
    }

    /// Cut `src` into the payloads of its `max`-byte fragments, in order:
    /// `src.len().div_ceil(max)` of them, and one (empty) for an empty op.
    /// An owned buffer is sliced; memory is cut as the module docs say,
    /// with at most one allocation, and none if no fragment straddles a
    /// page boundary.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn fragments(&self, src: Payload, max: usize) -> Fragments<'_> {
        assert!(max > 0, "zero fragment size");
        let copies = match src {
            Payload::Memory { addr, len } => self.copy_straddlers(addr, len, max),
            Payload::Bytes(_) => Bytes::new(),
        };
        Fragments {
            memory: self,
            left: src.len().div_ceil(max).max(1),
            src,
            max,
            off: 0,
            copies,
            copied: 0,
        }
    }

    /// The `max`-byte fragments of `[addr, addr + len)` that straddle a page
    /// boundary, back to back in one buffer (empty, and no allocation, if
    /// none does).
    fn copy_straddlers(&self, addr: u64, len: usize, max: usize) -> Bytes {
        let straddlers = || {
            (0..len)
                .step_by(max)
                .map(move |off| (addr + off as u64, max.min(len - off)))
                .filter(|&(a, n)| !in_one_page(a, n))
        };
        let total: usize = straddlers().map(|(_, n)| n).sum();
        if total == 0 {
            return Bytes::new();
        }
        let mut buf = BytesMut::zeroed(total);
        let mut at = 0;
        for (a, n) in straddlers() {
            self.read(a, &mut buf[at..at + n]);
            at += n;
        }
        buf.freeze()
    }

    /// Page `page_no` as a shared buffer (the zero page if never written).
    fn page_bytes(&self, page_no: u64) -> Bytes {
        match self.pages.get(&page_no) {
            Some(p) => Bytes::from(Rc::clone(p) as Rc<[u8]>),
            None => ZERO_PAGE.with(Bytes::clone),
        }
    }

    /// Number of materialized pages (footprint accounting).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// The fragment payloads of one op ([`AppMemory::fragments`]).
pub struct Fragments<'a> {
    memory: &'a AppMemory,
    src: Payload,
    max: usize,
    /// Fragments not yet yielded.
    left: usize,
    /// Offset of the next fragment in the op.
    off: usize,
    /// The straddling fragments, back to back.
    copies: Bytes,
    /// How much of `copies` has been handed out.
    copied: usize,
}

impl Iterator for Fragments<'_> {
    type Item = Bytes;

    fn next(&mut self) -> Option<Bytes> {
        self.left = self.left.checked_sub(1)?;
        let off = self.off;
        let n = self.max.min(self.src.len() - off);
        self.off += n;
        Some(match &self.src {
            Payload::Bytes(b) => b.slice(off..off + n),
            Payload::Memory { addr, .. } => {
                let a = addr + off as u64;
                if in_one_page(a, n) {
                    let in_page = (a % PAGE_SIZE as u64) as usize;
                    let page = self.memory.page_bytes(a / PAGE_SIZE as u64);
                    page.slice(in_page..in_page + n)
                } else {
                    self.copied += n;
                    self.copies.slice(self.copied - n..self.copied)
                }
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Fragments<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read_before_write_is_zero() {
        let m = AppMemory::new();
        assert_eq!(m.read_vec(0x1234, 8), vec![0u8; 8]);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = AppMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write(0xabc0, &data);
        assert_eq!(m.read_vec(0xabc0, 256), data);
    }

    #[test]
    fn spans_page_boundaries() {
        let mut m = AppMemory::new();
        let addr = (PAGE_SIZE as u64) * 3 - 100;
        let data: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        m.write(addr, &data);
        assert_eq!(m.read_vec(addr, 300), data);
        assert_eq!(m.resident_pages(), 2);
        // Neighbouring bytes untouched.
        assert_eq!(m.read_vec(addr - 4, 4), vec![0u8; 4]);
        assert_eq!(m.read_vec(addr + 300, 4), vec![0u8; 4]);
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut m = AppMemory::new();
        m.write(10, &[1; 16]);
        m.write(14, &[2; 4]);
        let v = m.read_vec(10, 16);
        assert_eq!(&v[..4], &[1; 4]);
        assert_eq!(&v[4..8], &[2; 4]);
        assert_eq!(&v[8..], &[1; 8]);
    }

    #[test]
    fn large_sparse_addresses() {
        let mut m = AppMemory::new();
        let addr = 1u64 << 60; // page-aligned, far from anything else
        m.write(addr, &[7, 8, 9]);
        assert_eq!(m.read_vec(addr, 3), vec![7, 8, 9]);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn a_written_page_keeps_the_payloads_cut_from_it() {
        let mut m = AppMemory::new();
        m.write(0, &[1; 64]);
        let before: Vec<Bytes> = m
            .fragments(Payload::Memory { addr: 0, len: 64 }, 16)
            .collect();
        m.write(0, &[2; 64]);
        assert!(before.iter().all(|f| f[..] == [1; 16]));
        assert_eq!(m.read_vec(0, 64), vec![2; 64]);
        assert_eq!(m.resident_pages(), 1);
    }

    /// Page numbers the property test leaves resident, one bit each.
    const PAGES: u64 = 8;

    /// Check every clause of [`AppMemory::fragments`] on `[addr, addr +
    /// len)` cut at `max`, in memory where page `p < PAGES` is resident
    /// iff bit `p` of `resident` is set.
    fn check_fragments(addr: u64, len: usize, max: usize, resident: u8) -> Result<(), String> {
        let mut m = AppMemory::new();
        for p in (0..PAGES).filter(|p| resident >> p & 1 == 1) {
            let fill: Vec<u8> = (0..PAGE_SIZE)
                .map(|i| (i as u64 * 7 + p) as u8 | 1)
                .collect();
            m.write(p * PAGE_SIZE as u64, &fill);
        }
        let resident_before = m.resident_pages();
        let it = m.fragments(Payload::Memory { addr, len }, max);
        let copies = it.copies.clone();
        let frags: Vec<Bytes> = it.collect();

        // The fragment arithmetic: count, and each one's length.
        prop_assert_eq!(frags.len(), len.div_ceil(max).max(1));
        for (i, f) in frags.iter().enumerate() {
            prop_assert_eq!(f.len(), max.min(len - (i * max).min(len)), "fragment {}", i);
        }
        // Together they are the memory.
        let joined: Vec<u8> = frags.iter().flat_map(|f| f.iter().copied()).collect();
        prop_assert!(joined == m.read_vec(addr, len), "bytes differ");
        // Each slices its page (or the zero page), or the one copy buffer,
        // which holds exactly the straddlers, in order.
        let zero = ZERO_PAGE.with(|z| z.as_ptr());
        let mut copied = 0;
        for (i, f) in frags.iter().enumerate() {
            let a = addr + (i * max) as u64;
            if in_one_page(a, f.len()) {
                let page_no = a / PAGE_SIZE as u64;
                let base = m.pages.get(&page_no).map_or(zero, |p| p.as_ptr());
                let at = base.wrapping_add((a % PAGE_SIZE as u64) as usize);
                prop_assert!(f.as_ptr() == at, "fragment {i} does not slice its page");
            } else {
                let at = copies.as_ptr().wrapping_add(copied);
                prop_assert!(f.as_ptr() == at, "fragment {i} is not in the copy buffer");
                copied += f.len();
            }
        }
        prop_assert_eq!(
            copies.len(),
            copied,
            "the copy buffer holds only the straddlers"
        );
        if copied == 0 {
            let empty = Bytes::new().as_ptr();
            prop_assert!(copies.as_ptr() == empty, "no straddler, yet a buffer");
        }
        prop_assert_eq!(
            m.resident_pages(),
            resident_before,
            "a cut materialized a page"
        );
        Ok(())
    }

    /// An address inside the property test's pages, near a page end half
    /// the time.
    fn arb_addr() -> impl Strategy<Value = u64> {
        let span = PAGES * PAGE_SIZE as u64;
        prop_oneof![
            0..span - 4 * PAGE_SIZE as u64,
            (1..PAGES - 4, 0u64..80).prop_map(|(p, back)| p * PAGE_SIZE as u64 - back),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fragments_are_the_memory_cut_at_max(
            addr in arb_addr(),
            len in 0usize..3 * PAGE_SIZE + 100,
            max in prop_oneof![Just(1usize), Just(64usize), Just(1450usize), Just(4096usize), Just(5000usize)],
            resident in any::<u8>(),
        ) {
            check_fragments(addr, len, max, resident)?;
        }
    }

    /// Fixed inputs: a hole, three pages of data and a hole; an empty op;
    /// one whole page; two bytes across a page end.
    #[test]
    fn fragments_fixed_cases() {
        let p = PAGE_SIZE as u64;
        for max in [1, 64, 1450, 4096, 5000] {
            check_fragments(2 * p - 17, 5020, max, 0b1110).unwrap();
            check_fragments(0, 0, max, 0).unwrap();
            check_fragments(3 * p, PAGE_SIZE, max, 0b1000).unwrap();
            check_fragments(p - 1, 2, max, 0b11).unwrap();
        }
    }
}
