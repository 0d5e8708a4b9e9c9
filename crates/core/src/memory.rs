//! Per-process virtual address space.
//!
//! MultiEdge's API lets a remote node read or write *any* virtual address of
//! the local process, with no pre-registered receive buffers (§2.2): the
//! kernel thread copies incoming data straight into the application's address
//! space. [`AppMemory`] models that address space as a sparse page table;
//! pages materialize (zero-filled, like anonymous mmap) on first touch.

use bytes::{Bytes, BytesMut};
use std::collections::HashMap;

/// Page size of the simulated address space (x86-64's 4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// Sparse byte-addressable virtual address space.
#[derive(Default)]
pub struct AppMemory {
    /// Randomly seeded on purpose: page numbers come off the wire, chosen
    /// by the peer, so a fixed hasher would hand it collisions. Pages are
    /// looked up, never iterated, so the seed cannot reach any output.
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl AppMemory {
    /// Empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, page_no: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(page_no)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
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

    /// Read `len` bytes starting at `addr` into a fresh shareable payload
    /// buffer: one allocation, filled in place.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Bytes {
        let mut buf = BytesMut::zeroed(len);
        self.read(addr, &mut buf);
        buf.freeze()
    }

    /// Number of materialized pages (footprint accounting).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn read_bytes_matches_read_vec() {
        let mut m = AppMemory::new();
        let addr = (PAGE_SIZE as u64) * 2 - 7;
        let data: Vec<u8> = (0..5000).map(|i| (i % 253) as u8).collect();
        m.write(addr, &data);
        // Spans a hole before, three pages of data, and a hole after.
        let b = m.read_bytes(addr - 10, 5020);
        assert_eq!(b, m.read_vec(addr - 10, 5020));
        assert_eq!(b.slice(10..5010), data);
        assert!(m.read_bytes(0, 0).is_empty());
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
}
