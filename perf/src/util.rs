//! Small shared helpers: seeded bytes, FNV-1a, exact percentiles, process
//! memory, and the counting allocator behind `core.allocs_per_*`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// One splitmix64 step (the generator every seeded input comes from).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` bytes that are a pure function of `(seed, tag)`.
pub fn pattern(seed: u64, tag: u64, len: usize) -> Vec<u8> {
    let mut st = seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix64(&mut st).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Source slots of the two-node workloads' pattern regions; coprime with
/// every depth, so the (source, destination) slot pairs keep changing.
pub const SRC_SLOTS: u64 = 19;

/// Source slot op `i` copies from.
pub fn src_slot(i: u64) -> u64 {
    (i * 7 + 3) % SRC_SLOTS
}

/// The last of ops `0..total` that went into destination slot `slot`, when
/// op `i` goes into slot `i % depth` (`slot < depth.min(total)`).
pub fn last_into_slot(total: u64, depth: u64, slot: u64) -> u64 {
    total - 1 - (total - 1 - slot) % depth
}

/// A latency in ns as a `u32` sample (saturating at 4.29 s).
pub fn sample_ns(ns: u64) -> u32 {
    ns.min(u32::MAX as u64) as u32
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile of an ascending sample array (no bucketing: a
/// log-bucketed histogram would turn a bucket crossing into a fake step).
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A sample buffer for `n` latencies whose pages are already resident, so
/// filling it during the measured phase does not move `VmRSS`.
pub fn sample_buf(n: usize) -> Vec<u32> {
    let mut v = vec![1u32; n];
    v.clear();
    v
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`); 0 if unreadable.
pub fn status_kb(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Global allocator that counts calls and bytes while switched on (traced
/// runs only; an untraced run pays one relaxed load per allocation).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never touch the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOC_CALLS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOC_CALLS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Switch allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// `(calls, bytes)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}
