//! Datapath wall-clock throughput and allocation accounting.
//!
//! Unlike every other bench in this crate, which reports *simulated* time,
//! this one measures how fast the simulator itself runs: simulated data
//! frames per **wall-clock** second on the paper's 1L/2L/4L two-way
//! configurations, plus heap-allocation counts from a counting global
//! allocator. It is the proof artifact for the allocation-free datapath work
//! (window rings, timer wheel, scratch buffers): the refactor must show up
//! here as higher frames/s and zero steady-state allocations per frame,
//! while `ProtoStats`/`NetStats` fingerprints stay identical.
//!
//! Modes (environment variables):
//!
//! * `DATAPATH_BASELINE=1` — record the pre-refactor tree: writes
//!   `results/BENCH_datapath_baseline.json` plus a flat
//!   `results/datapath_baseline.tsv` that the normal mode reads back.
//! * default — measure the current tree, merge with the recorded baseline,
//!   write `results/BENCH_datapath.json` with before/after rows and
//!   speedups, and enforce the zero-allocation gate on the clean 1L config.
//! * `DATAPATH_QUICK=1` — CI smoke: few iterations, no JSON output, but the
//!   allocation gate is still enforced.
//!
//! Both modes also run the **flight-recorder gate**
//! ([`multiedge_bench::plane_overhead`]): the clean 1L config re-measured
//! with the always-on [`me_trace::FlightRecorder`] enabled must add no
//! allocations per frame and produce a bit-identical stats fingerprint (the
//! recorder is purely observational). Its frames/wall-s ratio is printed,
//! not judged: that claim is `trace.planes_on_fps_ratio` in `perf/`.
//!
//! # Isolating per-frame allocations
//!
//! A run allocates for many reasons that are *not* per-frame: simulator
//! setup, per-operation handles and payload buffers, task spawning. To
//! isolate the marginal per-frame cost the bench runs a 2×2 grid — two
//! iteration counts × two payload sizes — and differences twice:
//!
//! ```text
//! d(S)  = allocs(2K, S) − allocs(K, S)      // K extra iterations at size S
//! per_frame = (d(S2) − d(S1)) / (frames(2K,S2) − frames(K,S2)
//!                               − frames(2K,S1) + frames(K,S1))
//! ```
//!
//! The first difference cancels per-run setup; the second cancels per-
//! operation costs (both grid columns add exactly K operations per
//! direction), leaving only the cost that scales with the number of frames.

use me_trace::{Json, SCHEMA_VERSION};
use multiedge::SystemConfig;
use multiedge_bench::micro::{run_micro, MicroKind, MicroResult};
use multiedge_bench::{plane_overhead, stats_fingerprint};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting global allocator
// ---------------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(live, Relaxed);
    }
    fn on_dealloc(size: usize) {
        LIVE_BYTES.fetch_sub(size as u64, Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow counts as one allocation of the delta; a shrink frees it.
        if new_size >= layout.size() {
            Self::on_alloc(new_size - layout.size());
        } else {
            Self::on_dealloc(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct Measure {
    frames: u64,
    wall_s: f64,
    allocs: u64,
    alloc_mb: f64,
    peak_mb: f64,
    fingerprint: String,
}

fn measure(mk_cfg: fn() -> SystemConfig, size: usize, iters: usize) -> Measure {
    let mut cfg = mk_cfg();
    cfg.seed = 7;
    // Reset the peak-tracking watermark so each run reports its own peak.
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
    let (a0, b0) = (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    let t0 = Instant::now();
    let r = run_micro(&cfg, MicroKind::TwoWay, size, iters);
    let wall_s = t0.elapsed().as_secs_f64();
    let (a1, b1) = (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    Measure {
        frames: r.proto.data_frames_sent,
        wall_s,
        allocs: a1 - a0,
        alloc_mb: (b1 - b0) as f64 / 1e6,
        peak_mb: PEAK_BYTES.load(Relaxed) as f64 / 1e6,
        fingerprint: stats_fingerprint(&r),
    }
}

/// One config's datapath numbers, derived from the 2×2 grid.
struct Row {
    config: &'static str,
    frames: u64,
    wall_s: f64,
    fps: f64,
    allocs_total: u64,
    allocs_per_frame: f64,
    alloc_mb: f64,
    peak_mb: f64,
    fingerprint: String,
}

fn run_config(config: &'static str, mk_cfg: fn() -> SystemConfig, iters: usize) -> Row {
    const S1: usize = 32 << 10;
    const S2: usize = 64 << 10;
    let m_k_s1 = measure(mk_cfg, S1, iters);
    let m_2k_s1 = measure(mk_cfg, S1, 2 * iters);
    let m_k_s2 = measure(mk_cfg, S2, iters);
    let m_2k_s2 = measure(mk_cfg, S2, 2 * iters);

    let d1 = m_2k_s1.allocs as i64 - m_k_s1.allocs as i64;
    let d2 = m_2k_s2.allocs as i64 - m_k_s2.allocs as i64;
    let df1 = m_2k_s1.frames as i64 - m_k_s1.frames as i64;
    let df2 = m_2k_s2.frames as i64 - m_k_s2.frames as i64;
    let frame_delta = df2 - df1;
    assert!(frame_delta > 0, "{config}: grid produced no frame delta");
    let allocs_per_frame = (d2 - d1) as f64 / frame_delta as f64;

    // Throughput from the largest cell, which best amortizes setup.
    let big = m_2k_s2;
    Row {
        config,
        frames: big.frames,
        wall_s: big.wall_s,
        fps: big.frames as f64 / big.wall_s,
        allocs_total: big.allocs,
        allocs_per_frame,
        alloc_mb: big.alloc_mb,
        peak_mb: big.peak_mb,
        fingerprint: big.fingerprint,
    }
}

// ---------------------------------------------------------------------------
// Baseline persistence (flat TSV so the merge step needs no JSON parser)
// ---------------------------------------------------------------------------

/// Workspace-root `results/` dir, independent of cargo's bench CWD.
fn results_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file)
}

const BASELINE_TSV: &str = "datapath_baseline.tsv";

fn write_baseline_tsv(rows: &[Row]) {
    let mut out = String::from("config\tfps\tallocs_per_frame\tallocs_total\tframes\twall_s\tfingerprint\n");
    for r in rows {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.config, r.fps, r.allocs_per_frame, r.allocs_total, r.frames, r.wall_s, r.fingerprint
        ));
    }
    std::fs::write(results_path(BASELINE_TSV), out).expect("write baseline tsv");
}

struct Baseline {
    config: String,
    fps: f64,
    allocs_per_frame: f64,
    allocs_total: u64,
    fingerprint: String,
}

fn read_baseline_tsv() -> Vec<Baseline> {
    let text = std::fs::read_to_string(results_path(BASELINE_TSV))
        .unwrap_or_else(|e| panic!("missing {BASELINE_TSV} (run with DATAPATH_BASELINE=1 on the pre-refactor tree first): {e}"));
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            Baseline {
                config: f[0].to_string(),
                fps: f[1].parse().expect("fps"),
                allocs_per_frame: f[2].parse().expect("allocs_per_frame"),
                allocs_total: f[3].parse().expect("allocs_total"),
                fingerprint: f[6].to_string(),
            }
        })
        .collect()
}

fn row_json(r: &Row) -> Json {
    Json::obj()
        .set("config", r.config)
        .set("frames", r.frames)
        .set("wall_s", r.wall_s)
        .set("frames_per_wall_s", r.fps)
        .set("allocs_total", r.allocs_total)
        .set("allocs_per_frame", r.allocs_per_frame)
        .set("alloc_mb", r.alloc_mb)
        .set("peak_mb", r.peak_mb)
        .set("stats_fingerprint", r.fingerprint.clone())
}

fn main() {
    let baseline_mode = std::env::var("DATAPATH_BASELINE").is_ok();
    let quick = std::env::var("DATAPATH_QUICK").is_ok();
    let iters = if quick { 10 } else { 40 };

    // Warm up lazy runtime initialization outside the measured cells.
    let mut warm = SystemConfig::one_link_1g(2);
    warm.seed = 7;
    let _ = run_micro(&warm, MicroKind::TwoWay, 4 << 10, 4);

    type CfgFn = fn() -> SystemConfig;
    let configs: [(&'static str, CfgFn); 3] = [
        ("1L-1G", || SystemConfig::one_link_1g(2)),
        ("2Lu-1G", || SystemConfig::two_link_1g_unordered(2)),
        ("4L-1G", || SystemConfig::four_link_1g(2)),
    ];

    let rows: Vec<Row> = configs
        .iter()
        .map(|(name, mk)| {
            let r = run_config(name, *mk, iters);
            println!(
                "{:8} {:>9.0} frames/wall-s  {:+.3} allocs/frame  {:>8} allocs  peak {:.2} MB  fp {}",
                r.config, r.fps, r.allocs_per_frame, r.allocs_total, r.peak_mb, r.fingerprint
            );
            r
        })
        .collect();

    let flight = flight_recorder_gate(iters);

    if quick {
        enforce_alloc_gate(&rows);
        println!("datapath smoke OK (quick mode, no JSON written)");
        return;
    }

    std::fs::create_dir_all(results_path("")).expect("create results dir");
    if baseline_mode {
        write_baseline_tsv(&rows);
        let doc = Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("bench", "datapath")
            .set("mode", "baseline")
            .set("kind", "two-way")
            .set("iters", iters)
            .set("rows", rows.iter().map(row_json).collect::<Vec<_>>());
        let path = "results/BENCH_datapath_baseline.json";
        std::fs::write(results_path("BENCH_datapath_baseline.json"), doc.render_pretty())
            .expect("write json");
        println!("wrote {path} and results/{BASELINE_TSV}");
        return;
    }

    // Normal mode: merge with the recorded baseline.
    let base = read_baseline_tsv();
    let mut out_rows = Vec::new();
    for r in &rows {
        let b = base
            .iter()
            .find(|b| b.config == r.config)
            .unwrap_or_else(|| panic!("no baseline row for {}", r.config));
        let speedup = r.fps / b.fps;
        let stats_match = b.fingerprint == r.fingerprint;
        println!(
            "{:8} before {:>9.0} f/s  after {:>9.0} f/s  speedup {:.2}x  allocs/frame {:+.3} -> {:+.3}  stats_match {}",
            r.config, b.fps, r.fps, speedup, b.allocs_per_frame, r.allocs_per_frame, stats_match
        );
        assert!(
            stats_match,
            "{}: ProtoStats/NetStats fingerprint changed ({} -> {}) — the datapath refactor altered protocol behaviour",
            r.config, b.fingerprint, r.fingerprint
        );
        out_rows.push(
            Json::obj()
                .set("config", r.config)
                .set(
                    "before",
                    Json::obj()
                        .set("frames_per_wall_s", b.fps)
                        .set("allocs_per_frame", b.allocs_per_frame)
                        .set("allocs_total", b.allocs_total)
                        .set("stats_fingerprint", b.fingerprint.clone()),
                )
                .set("after", row_json(r))
                .set("speedup", speedup)
                .set("stats_match", stats_match),
        );
    }
    enforce_alloc_gate(&rows);

    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("bench", "datapath")
        .set("kind", "two-way")
        .set("iters", iters)
        .set(
            "methodology",
            "2x2 grid (iters x payload size) double-difference isolates marginal allocations per data frame; fps from largest cell; fingerprint = fnv1a(ProtoStats|NetStats Debug)",
        )
        .set("rows", out_rows)
        .set("flight_recorder", flight);
    let path = "results/BENCH_datapath.json";
    std::fs::write(results_path("BENCH_datapath.json"), doc.render_pretty())
        .expect("write json");
    println!("wrote {path}");
}

/// Flight-recorder gate on the clean 1L config: the always-on recorder
/// (defaults: 4096-event ring, triggers armed, no dump directory) rides
/// along without allocating per frame or perturbing the protocol.
fn flight_recorder_gate(iters: usize) -> Json {
    let run = |flight: bool, iters: usize| {
        let mut cfg = SystemConfig::one_link_1g(2);
        if flight {
            cfg = cfg.with_flight(me_trace::FlightConfig::default());
        }
        cfg.seed = 7;
        run_micro(&cfg, MicroKind::TwoWay, 64 << 10, iters)
    };
    let allocs = || ALLOC_CALLS.load(Relaxed);
    let frames = |r: &MicroResult| r.proto.data_frames_sent;
    plane_overhead("flight recorder", "frame", iters, allocs, run, frames)
        .set("config", "1L-1G")
        .set("kind", "two-way")
}

/// The zero-allocation gate: on the clean (loss-free) network the steady-
/// state datapath must not allocate per frame. Tolerance absorbs double-
/// difference rounding on counts that are exactly equal.
fn enforce_alloc_gate(rows: &[Row]) {
    if std::env::var("DATAPATH_BASELINE").is_ok() {
        return; // the pre-refactor tree is expected to fail the gate
    }
    let clean = rows.iter().find(|r| r.config == "1L-1G").expect("1L row");
    assert!(
        clean.allocs_per_frame.abs() < 0.01,
        "steady-state allocations per data frame on the clean 1L config: {:.4} (must be 0)",
        clean.allocs_per_frame
    );
}
