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
//! the page table ([`AppMemory::fragments`]). Pages are shared,
//! reference-counted buffers, and a write that lands on untouched pages
//! allocates them together: one write spanning two or more pages, none of
//! them resident, becomes one **run**, a buffer of those pages back to
//! back (at most 16 of them, never across a multiple of 16 pages, which
//! bounds what one payload keeps alive). Every other page is a buffer of
//! its own. So
//!
//! * a fragment that lies inside one buffer (one page, or a run) is a
//!   zero-copy slice of it, and a page that was never touched is served
//!   from one shared zero page (a read of it materializes nothing);
//! * a fragment that crosses from one buffer into another is copied, all of
//!   one op's into one buffer, the only allocation the cut makes;
//! * writing to a page that a payload still holds copies the page first
//!   (copy-on-write), whether the application writes it or an incoming
//!   fragment does. A page of a run is written in place while no payload
//!   holds the run; otherwise that page alone is copied out of it, and the
//!   run is freed once its last page has left and its last payload has
//!   dropped.
//!
//! So a payload keeps the bytes its source held when it was cut until the
//! last frame carrying it is dropped: a write sends, and retransmits, the
//! bytes as of its issue, a served read the bytes as of the serve.

use bytes::{Bytes, BytesMut};
use std::collections::HashMap;
use std::rc::Rc;

/// Page size of the simulated address space (x86-64's 4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// The most pages one run holds; runs are aligned to it too.
const RUN_PAGES: u64 = 16;

/// One resident page.
enum Page {
    /// A page of its own, shared with the payloads cut from it.
    Lone(Rc<[u8; PAGE_SIZE]>),
    /// A page of the run ([`AppMemory::runs`]) that starts at this page
    /// number.
    InRun(u64),
}

/// Pages written together, in one buffer shared with the payloads cut from
/// it.
struct Run {
    /// How many of its pages are still [`Page::InRun`].
    mapped: u64,
    /// The pages, back to back.
    buf: Rc<[u8]>,
}

/// Offset of page `page_no` in the run that starts at page `first`.
fn offset(first: u64, page_no: u64) -> usize {
    (page_no - first) as usize * PAGE_SIZE
}

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
    /// The runs, by first page; seeded like `pages`, for the same reason.
    runs: HashMap<u64, Run>,
}

impl AppMemory {
    /// Empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Page `page_no`'s bytes, if it is resident.
    fn page(&self, page_no: u64) -> Option<&[u8]> {
        Some(match *self.pages.get(&page_no)? {
            Page::Lone(ref p) => &p[..],
            Page::InRun(first) => {
                let at = offset(first, page_no);
                &self.runs[&first].buf[at..at + PAGE_SIZE]
            }
        })
    }

    /// Page `page_no`, writable: materialized on first touch, and copied
    /// first if a payload still holds it, so the payload keeps its bytes.
    fn page_mut(&mut self, page_no: u64) -> &mut [u8] {
        let page = self
            .pages
            .entry(page_no)
            .or_insert_with(|| Page::Lone(Rc::new([0u8; PAGE_SIZE])));
        if let Page::InRun(first) = *page {
            let run = self.runs.get_mut(&first).expect("a run page's run");
            if Rc::get_mut(&mut run.buf).is_none() {
                // A payload holds the run: this page leaves it as a copy.
                let at = offset(first, page_no);
                let copy: [u8; PAGE_SIZE] = run.buf[at..at + PAGE_SIZE].try_into().expect("a page");
                *page = Page::Lone(Rc::new(copy));
                run.mapped -= 1;
                if run.mapped == 0 {
                    self.runs.remove(&first);
                }
            }
        }
        match *page {
            Page::Lone(ref mut p) => &mut Rc::make_mut(p)[..],
            Page::InRun(first) => {
                let run = self.runs.get_mut(&first).expect("a run page's run");
                let buf = Rc::get_mut(&mut run.buf).expect("no payload holds the run");
                let at = offset(first, page_no);
                &mut buf[at..at + PAGE_SIZE]
            }
        }
    }

    /// Write `data` starting at virtual address `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let block_bytes = RUN_PAGES * PAGE_SIZE as u64;
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let n = ((block_bytes - a % block_bytes) as usize).min(data.len() - off);
            self.write_in_block(a, &data[off..off + n]);
            off += n;
        }
    }

    /// Write non-empty `data` at `addr`, inside one [`RUN_PAGES`]-page
    /// block: as a new run if it spans two or more pages, none of them
    /// resident; a page at a time otherwise.
    fn write_in_block(&mut self, addr: u64, data: &[u8]) {
        let first = addr / PAGE_SIZE as u64;
        let last = (addr + data.len() as u64 - 1) / PAGE_SIZE as u64;
        if last > first && (first..=last).all(|p| !self.pages.contains_key(&p)) {
            let pages = last - first + 1;
            // One allocation: `Rc::from(Vec)` would copy into a second.
            let mut buf: Rc<[u8]> = std::iter::repeat_n(0, pages as usize * PAGE_SIZE).collect();
            let at = (addr - first * PAGE_SIZE as u64) as usize;
            Rc::get_mut(&mut buf).expect("a fresh run")[at..at + data.len()].copy_from_slice(data);
            self.pages
                .extend((first..=last).map(|p| (p, Page::InRun(first))));
            self.runs.insert(first, Run { mapped: pages, buf });
            return;
        }
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let in_page = (a % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            self.page_mut(a / PAGE_SIZE as u64)[in_page..in_page + n]
                .copy_from_slice(&data[off..off + n]);
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
            match self.page(page_no) {
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
    /// with at most one allocation, and none if every fragment lies inside
    /// one page or one run.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn fragments(&self, src: Payload, max: usize) -> Fragments<'_> {
        assert!(max > 0, "zero fragment size");
        let len = src.len();
        let (whole, addr) = match src {
            Payload::Bytes(b) => (Some(b), 0),
            Payload::Memory { addr, len } => (self.slice(addr, len), addr),
        };
        let copies = match whole {
            Some(_) => Bytes::new(),
            None => self.copy_straddlers(addr, len, max),
        };
        Fragments {
            memory: self,
            whole,
            addr,
            len,
            max,
            left: len.div_ceil(max).max(1),
            off: 0,
            copies,
            copied: 0,
        }
    }

    /// The `max`-byte fragments of `[addr, addr + len)` that cross from one
    /// buffer into another, back to back in one buffer (empty, and no
    /// allocation, if none does).
    fn copy_straddlers(&self, addr: u64, len: usize, max: usize) -> Bytes {
        let straddlers = || {
            (0..len)
                .step_by(max)
                .map(move |off| (addr + off as u64, max.min(len - off)))
                .filter(|&(a, n)| !in_one_page(a, n) && self.slice(a, n).is_none())
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

    /// `[a, a + n)` as a slice of the one buffer that holds it: its page
    /// (the zero page if never written) or its run. `None` if it crosses
    /// from one buffer into another.
    fn slice(&self, a: u64, n: usize) -> Option<Bytes> {
        let first = a / PAGE_SIZE as u64;
        // A range past the top of the address space is copied (and wraps).
        let last = a.checked_add(n.max(1) as u64 - 1)? / PAGE_SIZE as u64;
        let (buf, base) = match self.pages.get(&first) {
            Some(&Page::InRun(run))
                if (first + 1..=last)
                    .all(|p| matches!(self.pages.get(&p), Some(&Page::InRun(r)) if r == run)) =>
            {
                (Bytes::from(Rc::clone(&self.runs[&run].buf)), run)
            }
            Some(Page::Lone(p)) if first == last => (Bytes::from(Rc::clone(p) as Rc<[u8]>), first),
            None if first == last => (ZERO_PAGE.with(Bytes::clone), first),
            _ => return None,
        };
        let at = (a - base * PAGE_SIZE as u64) as usize;
        Some(buf.slice(at..at + n))
    }

    /// Number of materialized pages (footprint accounting).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// The fragment payloads of one op ([`AppMemory::fragments`]).
pub struct Fragments<'a> {
    memory: &'a AppMemory,
    /// The one buffer the whole payload lies in, if it does (an owned
    /// payload always does): each fragment is a slice of it.
    whole: Option<Bytes>,
    /// Otherwise the payload is `len` bytes of memory at `addr`, each
    /// fragment a slice of its own buffer or a copy.
    addr: u64,
    len: usize,
    max: usize,
    /// Fragments not yet yielded.
    left: usize,
    /// Offset of the next fragment in the op.
    off: usize,
    /// The fragments that cross from one buffer into another, back to
    /// back.
    copies: Bytes,
    /// How much of `copies` has been handed out.
    copied: usize,
}

impl Iterator for Fragments<'_> {
    type Item = Bytes;

    fn next(&mut self) -> Option<Bytes> {
        self.left = self.left.checked_sub(1)?;
        let off = self.off;
        let n = self.max.min(self.len - off);
        self.off += n;
        Some(match &self.whole {
            Some(whole) => whole.slice(off..off + n),
            None => match self.memory.slice(self.addr + off as u64, n) {
                Some(slice) => slice,
                None => {
                    self.copied += n;
                    self.copies.slice(self.copied - n..self.copied)
                }
            },
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

    /// A payload that holds a run keeps its bytes when a page of the run
    /// is written: that page alone is copied out, the rest stay in the
    /// run, and the run is freed once its last page has left it and its
    /// last payload has dropped. Unheld, a run is written in place.
    #[test]
    fn a_held_run_gives_up_only_the_page_written() {
        let p = PAGE_SIZE as u64;
        let mut m = AppMemory::new();
        m.write(0, &[1; 3 * PAGE_SIZE]);
        let base = m.runs[&0].buf.as_ptr();
        m.write(8, &[4; 8]);
        assert!(
            m.runs[&0].buf.as_ptr() == base,
            "an unheld run is written in place"
        );
        assert!(matches!(m.pages[&0], Page::InRun(0)));

        // A payload across pages 0 and 1 is a slice of the run.
        let held: Vec<Bytes> = m
            .fragments(
                Payload::Memory {
                    addr: p - 8,
                    len: 16,
                },
                16,
            )
            .collect();
        assert!(held[0].as_ptr() == base.wrapping_add(PAGE_SIZE - 8));
        m.write(p, &[2; 4]);
        assert_eq!(held[0][..], [1; 16], "the payload keeps its bytes");
        assert_eq!(m.read_vec(p, 8), [2, 2, 2, 2, 1, 1, 1, 1]);
        assert!(matches!(m.pages[&1], Page::Lone(_)), "page 1 is copied out");
        assert!(matches!(m.pages[&0], Page::InRun(0)) && matches!(m.pages[&2], Page::InRun(0)));
        assert_eq!(m.runs[&0].mapped, 2);

        // The last pages leave; the payload alone keeps the run.
        let run = Rc::downgrade(&m.runs[&0].buf);
        m.write(0, &[3; 4]);
        m.write(2 * p, &[3; 4]);
        assert!(m.runs.is_empty(), "a run whose pages all left is unmapped");
        assert!(run.upgrade().is_some(), "the payload still holds the run");
        assert_eq!(held[0][..], [1; 16]);
        drop(held);
        assert!(run.upgrade().is_none(), "the run is freed");
        assert_eq!(m.read_vec(0, 8), [3, 3, 3, 3, 1, 1, 1, 1]);
        assert_eq!(m.resident_pages(), 3);
    }

    /// A write that spans untouched pages is one run in each
    /// [`RUN_PAGES`]-page block where it spans two pages or more, beside
    /// any run the block has already; a single page, or a write that
    /// touches a resident page, is written a page at a time.
    #[test]
    fn runs_form_on_untouched_pages_inside_one_block() {
        let (p, end) = (PAGE_SIZE as u64, RUN_PAGES * PAGE_SIZE as u64);
        let mut m = AppMemory::new();
        // Pages 14–15 | 16–18.
        m.write(end - 2 * p + 5, &[1; 4 * PAGE_SIZE]);
        assert_eq!(m.runs.len(), 2, "a run ends with its block");
        assert_eq!((m.runs[&14].mapped, m.runs[&16].mapped), (2, 3));
        // Pages 8–9: a second run in the first block.
        m.write(8 * p, &[4; 2 * PAGE_SIZE]);
        assert_eq!(m.runs[&8].mapped, 2);
        // Page 31 | 32: one page in each block.
        m.write(2 * end - 4, &[2; 8]);
        // Pages 3–4, 4 resident first.
        m.write(4 * p, &[3; 8]);
        m.write(4 * p - 4, &[3; 8]);
        assert_eq!(
            m.runs.len(),
            3,
            "no run of one page, nor over a resident one"
        );
        assert_eq!(m.resident_pages(), 11);
        assert_eq!(m.read_vec(end - 2 * p + 4, 2), [0, 1]);
        assert_eq!(m.read_vec(end + 2 * p + 4, 2), [1, 0]);
        assert_eq!(
            m.read_vec(4 * p - 5, 14),
            [0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0]
        );
    }

    /// Pages the property test builds memory in, one bit each. They
    /// start at `BASE`, so they cross the end of a [`RUN_PAGES`]-page
    /// block.
    const PAGES: u64 = 8;
    const BASE: u64 = RUN_PAGES - PAGES / 2;

    /// Memory where test page `p < PAGES` (page number `BASE + p`) is
    /// resident iff bit `p` of `resident` is set. Resident pages are
    /// written in stretches: a stretch ends before a page that is not
    /// resident or whose bit in `cuts` is set, so a stretch of two or more
    /// pages is a run (or two, across the block's end). Then each page
    /// whose bit in `remap` is set is written again while a payload holds
    /// its run, which copies it out of the run.
    fn memory(resident: u8, cuts: u8, remap: u8) -> AppMemory {
        let bit = |mask: u8, p: u64| mask >> p & 1 == 1;
        let fill = |p: u64| -> Vec<u8> {
            (0..PAGE_SIZE)
                .map(|i| (i as u64 * 7 + p) as u8 | 1)
                .collect()
        };
        let mut m = AppMemory::new();
        let mut p = 0;
        while p < PAGES {
            let start = p;
            while p < PAGES && bit(resident, p) && (p == start || !bit(cuts, p)) {
                p += 1;
            }
            let stretch: Vec<u8> = (start..p).flat_map(fill).collect();
            m.write((BASE + start) * PAGE_SIZE as u64, &stretch);
            p = p.max(start + 1);
        }
        let held: Vec<Bytes> = m
            .fragments(
                Payload::Memory {
                    addr: BASE * PAGE_SIZE as u64,
                    len: PAGES as usize * PAGE_SIZE,
                },
                PAGE_SIZE,
            )
            .collect();
        for p in (0..PAGES).filter(|&p| bit(resident & remap, p)) {
            m.write((BASE + p) * PAGE_SIZE as u64, &fill(p + 1));
        }
        drop(held);
        m
    }

    /// Check every clause of [`AppMemory::fragments`] on `[addr, addr +
    /// len)` cut at `max`, in [`memory`]`(resident, cuts, remap)`.
    fn check_fragments(
        addr: u64,
        len: usize,
        max: usize,
        (resident, cuts, remap): (u8, u8, u8),
    ) -> Result<(), String> {
        let m = memory(resident, cuts, remap);
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
        // Each slices the one buffer its pages lie in back to back (a
        // page, the zero page, or a run), or, if they do not, the one copy
        // buffer, which holds exactly those fragments, in order.
        let zero = ZERO_PAGE.with(|z| z.as_ptr());
        let at = |a: u64| {
            let page = m.page(a / PAGE_SIZE as u64).map_or(zero, <[u8]>::as_ptr);
            page.wrapping_add((a % PAGE_SIZE as u64) as usize)
        };
        let mut copied = 0;
        for (i, f) in frags.iter().enumerate() {
            let a = addr + (i * max) as u64;
            let (first, last) = (
                a / PAGE_SIZE as u64,
                (a + f.len().max(1) as u64 - 1) / PAGE_SIZE as u64,
            );
            let one_buffer = (first..last).all(|p| {
                let next = (p + 1) * PAGE_SIZE as u64;
                at(next) == at(next - 1).wrapping_add(1)
            });
            if one_buffer {
                prop_assert!(
                    f.as_ptr() == at(a),
                    "fragment {i} does not slice its buffer"
                );
                if last > first {
                    let Page::InRun(run) = m.pages[&first] else {
                        return Err(format!("fragment {i} straddles, yet not in a run"));
                    };
                    let run = m.runs[&run].buf.as_ptr_range();
                    prop_assert!(run.contains(&f.as_ptr()), "fragment {i} is not in its run");
                }
            } else {
                let at = copies.as_ptr().wrapping_add(copied);
                prop_assert!(f.as_ptr() == at, "fragment {i} is not in the copy buffer");
                copied += f.len();
            }
        }
        prop_assert_eq!(
            copies.len(),
            copied,
            "the copy buffer holds only the fragments that cross buffers"
        );
        if copied == 0 {
            let empty = Bytes::new().as_ptr();
            prop_assert!(copies.as_ptr() == empty, "nothing crosses, yet a buffer");
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
        let (base, page) = (BASE * PAGE_SIZE as u64, PAGE_SIZE as u64);
        prop_oneof![
            base..base + (PAGES - 4) * page,
            (1..PAGES - 4, 0u64..80).prop_map(move |(p, back)| base + p * page - back),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fragments_are_the_memory_cut_at_max(
            addr in arb_addr(),
            len in 0usize..3 * PAGE_SIZE + 100,
            max in prop_oneof![Just(1usize), Just(64usize), Just(1450usize), Just(4096usize), Just(5000usize)],
            layout in (any::<u8>(), any::<u8>(), prop_oneof![Just(0u8), any::<u8>()]),
        ) {
            check_fragments(addr, len, max, layout)?;
        }
    }

    /// Fixed inputs, with pages written one at a time, then as runs: a
    /// hole, three pages of data and a hole; an empty op; one whole page;
    /// two bytes across a page end; three pages across the block's end
    /// (a run on either side), and the same with its middle page copied
    /// out.
    #[test]
    fn fragments_fixed_cases() {
        let (p, base) = (PAGE_SIZE as u64, BASE * PAGE_SIZE as u64);
        for max in [1, 64, 1450, 4096, 5000] {
            for cuts in [0xff, 0] {
                check_fragments(base + 2 * p - 17, 5020, max, (0b1110, cuts, 0)).unwrap();
                check_fragments(base, 0, max, (0, cuts, 0)).unwrap();
                check_fragments(base + 3 * p, PAGE_SIZE, max, (0b1000, cuts, 0)).unwrap();
                check_fragments(base + p - 1, 2, max, (0b11, cuts, 0)).unwrap();
                let across = base + 3 * p - 100;
                check_fragments(across, 2 * PAGE_SIZE + 200, max, (0b11110, cuts, 0)).unwrap();
                check_fragments(across, 2 * PAGE_SIZE + 200, max, (0b11110, cuts, 0b1000)).unwrap();
            }
        }
    }
}
