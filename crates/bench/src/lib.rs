//! `multiedge-bench` — workload drivers and harness plumbing for
//! reproducing every table and figure of the MultiEdge paper.
//!
//! The actual figure/table harnesses live in `benches/` (custom `cargo
//! bench` targets); this library hosts the reusable drivers:
//!
//! * [`micro`] — the paper's ping-pong / one-way / two-way micro-benchmarks
//!   (Figure 2 and the §4 network statistics).

pub mod appfig;
pub mod backplane;
pub mod chaos;
pub mod doctor;
pub mod micro;
pub mod scale;
pub mod telemetry;

pub use appfig::{app_figure, workloads_for_env};
pub use micro::{
    default_iters, fig2_sizes, run_micro, run_micro_sampled, run_micro_with_plan, MicroKind,
    MicroResult,
};

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `SMOKE=1`: run a bench's reduced CI profile — fewer iterations and
/// cells, every gate still enforced, every artifact still written.
pub fn smoke() -> bool {
    std::env::var("SMOKE").is_ok_and(|v| v == "1")
}

/// The workspace-root `results/` directory, created if missing
/// (manifest-relative, so it does not depend on the bench process CWD).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

thread_local! {
    /// Allocation calls made by this thread. Const-initialized and without
    /// a destructor, so the allocator can count in it at any time.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Count one allocation call on the calling thread.
fn count_alloc() {
    ALLOC_CALLS.with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting each thread's allocation calls (a
/// growing `realloc` counts as one) and the bytes currently allocated in
/// the process. A bench or test that gates allocations installs it with
/// `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;` and
/// reads the counts with [`allocs`] and [`live_bytes`].
pub struct CountingAlloc;

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counts are a thread-local add and
// relaxed atomic adds, which neither allocate nor touch the memory handed
// out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        LIVE_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count_alloc();
        }
        LIVE_BYTES.fetch_add(new_size as u64, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls the calling thread has made so far, so a count is not
/// disturbed by other threads (a test harness printing, say): always 0
/// unless the binary installed [`CountingAlloc`].
pub fn allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Heap bytes currently allocated in this process (requested sizes, not
/// the allocator's rounding): always 0 unless the binary installed
/// [`CountingAlloc`].
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Relaxed)
}

/// Compact fingerprint of a micro run's behaviour: FNV-1a over the `Debug`
/// rendering of its protocol and network counters.
fn stats_fingerprint(r: &MicroResult) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{:?}|{:?}", r.proto, r.net).bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The gate every observability plane (flight recorder, sampler, health
/// monitor) passes: it is *purely observational*. `run(on, iters)` is one
/// micro run with the plane off or on; the pair is run at `iters` and at
/// `4 * iters` operations. Asserted, because they are exact: the stats
/// fingerprint is identical with the plane on, and the plane adds no
/// allocation per `unit` (`units` reads the unit count — frames or sample
/// rows — off a result; the two lengths difference out per-run setup, the
/// plane-off pair differences out everything that is not the plane).
/// Reported, not asserted: the frames/wall-s ratio of the longer pair — one
/// short wall-clock comparison on a shared host is not evidence; the ≤ 5 %
/// claim is `trace.planes_on_fps_ratio` in `perf/`. Allocations are read
/// from [`CountingAlloc`], which the calling binary must install.
pub fn plane_overhead(
    plane: &str,
    unit: &str,
    iters: usize,
    run: impl Fn(bool, usize) -> MicroResult,
    units: impl Fn(&MicroResult) -> u64,
) -> me_trace::Json {
    struct Run {
        allocs: i64,
        fps: f64,
        units: i64,
        fingerprint: String,
    }
    let timed = |on: bool, iters: usize| {
        let (a0, t0) = (allocs(), std::time::Instant::now());
        let r = run(on, iters);
        Run {
            fps: r.proto.data_frames_sent as f64 / t0.elapsed().as_secs_f64(),
            allocs: (allocs() - a0) as i64,
            units: units(&r) as i64,
            fingerprint: stats_fingerprint(&r),
        }
    };
    let (off_1, on_1) = (timed(false, iters), timed(true, iters));
    let (off_2, on_2) = (timed(false, 4 * iters), timed(true, 4 * iters));
    assert!(
        off_1.allocs > 0,
        "no allocation counted: the binary must install multiedge_bench::CountingAlloc"
    );
    for (off, on) in [(&off_1, &on_1), (&off_2, &on_2)] {
        assert_eq!(
            off.fingerprint, on.fingerprint,
            "the {plane} must be purely observational (stats fingerprint changed)"
        );
    }
    let d_units = on_2.units - on_1.units;
    assert!(d_units > 0, "the longer run must produce more {unit}s");
    let d_allocs = (on_2.allocs - on_1.allocs) - (off_2.allocs - off_1.allocs);
    let per_unit = d_allocs as f64 / d_units as f64;
    let ratio = on_2.fps / off_2.fps;
    println!(
        "{plane:14} {:>9.0} -> {:>9.0} frames/wall-s  ratio {ratio:.3} (reported)  {per_unit:+.3} allocs/{unit}",
        off_2.fps, on_2.fps
    );
    assert!(
        per_unit.abs() < 0.01,
        "the {plane} allocates per {unit}: {per_unit:.4}"
    );
    me_trace::Json::obj()
        .set("plain_frames_per_wall_s", off_2.fps)
        .set("plane_frames_per_wall_s", on_2.fps)
        .set("fps_ratio_reported", ratio)
        .set(&format!("allocs_per_{unit}"), per_unit)
        .set("stats_match", true)
        .set(
            "gate",
            format!("stats fingerprints identical && |allocs_per_{unit}| < 0.01"),
        )
}
