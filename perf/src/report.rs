//! What a workload run hands back, and how it is turned into the metric
//! lines and the final JSON result line.

use crate::util::{median, percentile, status_kb};
use me_trace::Json;
use multiedge::ProtoStats;
use netsim::NetStats;

/// Name and unit of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("frames_per_wall_s", "1/s"),
    ("goodput_MBps", "MB/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_MB", "MB"),
];

/// One workload run (setup repetitions + one measured phase).
#[derive(Default)]
pub struct RunOut {
    /// Host wall of each setup repetition (build + connect + warm-up), s.
    pub setup_s: Vec<f64>,
    /// Host wall of the measured phase, s.
    pub wall_s: f64,
    /// Transport-clock duration of the measured phase (virtual on sim,
    /// wall on UDP), ns.
    pub transport_ns: u64,
    /// First-transmission data frames delivered in the measured phase.
    pub frames: u64,
    /// Unique payload bytes applied at receivers in the measured phase.
    pub bytes: u64,
    /// Op latencies on the transport clock, ns.
    pub lat: Vec<u32>,
    /// Ops issued in the measured phase.
    pub attempted: u64,
    /// Ops that did not complete or whose bytes are not at the receiver.
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub errors: Vec<String>,
    /// FNV-1a over `ProtoStats`, `NetStats` and end-of-run virtual time
    /// (sim workloads only).
    pub fingerprint: Option<u64>,
    /// `VmRSS` after warm-up and at the end of the measured phase, kB.
    pub rss_kb: (u64, u64),
    /// Cluster-wide protocol counters of the measured rig (warm-up
    /// included: same traffic shape, so every ratio is unchanged).
    pub proto: ProtoStats,
}

/// What the traced run's per-layer section needs beyond [`RunOut`]. A
/// field a workload has no layer for stays zero.
#[derive(Default)]
pub struct Facts {
    /// Simulator events executed in the measured phase.
    pub events: u64,
    /// Peak pending simulator events observed.
    pub pending_peak: usize,
    /// Network counters of the measured rig.
    pub net: NetStats,
    /// Node 0's CPU utilization over the measured phase, percent of 200.
    pub cpu_util_pct: f64,
    /// Median latency of the writes and of the reads, ns.
    pub p50_by_kind: [u32; 2],
    /// Heap allocations (calls, bytes) made during the measured phase while
    /// counting was on.
    pub allocs: (u64, u64),
    /// `netsim.shard`: windows run, idle windows, ns advancing, ns
    /// exchanging, ns inside `run_sharded` in total.
    pub shard: [u64; 5],
    /// `Backplane` calls: sends, nexts, nexts that returned nothing, advances.
    pub bp_calls: [u64; 4],
    /// Datagrams the UDP fabric dropped on receive (corrupt, malformed,
    /// unknown source).
    pub rx_errors: u64,
    /// `WireEndpoint::poll` calls, and those that did no protocol work.
    pub polls: [u64; 2],
    /// NACK-triggered retransmissions the storm cap suppressed.
    pub storm_suppressed: u64,
}

impl RunOut {
    /// Record a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The checks every workload shares, over `self.proto` and
    /// `self.attempted`: all ops completed, every slot holds what the last
    /// op into it wrote, and what was received first time is exactly what
    /// was sent first time. Sets `failed`. `clean` carries the network
    /// counters of a fault-free simulated fabric, which must then show no
    /// retransmit and no drop.
    pub fn check_delivery(&mut self, completed: u64, bad_slots: u64, clean: Option<&NetStats>) {
        let (p, attempted) = (self.proto, self.attempted);
        self.failed = (attempted - completed).max(bad_slots);
        self.check(completed == attempted, || {
            format!("completed {completed} of {attempted} ops")
        });
        self.check(bad_slots == 0, || {
            format!("{bad_slots} memory slots differ from the written pattern")
        });
        // Read requests are sequenced like data and counted on receipt with it.
        let sent = p.data_frames_sent + p.read_req_frames_sent;
        self.check(p.data_frames_recv == sent, || {
            format!("unique frames recv {} != sent {sent}", p.data_frames_recv)
        });
        let issued = p.bytes_written + p.bytes_read;
        self.check(p.data_bytes_recv == issued, || {
            format!(
                "unique bytes recv {} != written + read {issued}",
                p.data_bytes_recv
            )
        });
        if let Some(net) = clean {
            let drops = net.drops_overflow + net.drops_loss + net.drops_link_down + net.corrupted;
            self.check(p.retransmits() == 0 && drops == 0, || {
                format!(
                    "clean run saw {} retransmits, {drops} drops",
                    p.retransmits()
                )
            });
        }
    }

    /// Relative `VmRSS` movement across the measured phase.
    pub fn rss_drift(&self) -> f64 {
        let (a, b) = self.rss_kb;
        if a == 0 {
            return 0.0;
        }
        a.abs_diff(b) as f64 / a as f64
    }

    /// The harness's own hazard check on the two-node workloads: resident
    /// memory must not move across the measured phase. A handler cycle that
    /// is not broken leaks megabytes per rig and an allocator trim shifts
    /// the level by a third, so anything under 2 % (or under 1 MB, on the
    /// few-MB smoke runs) is steady.
    pub fn check_rss_steady(&mut self) {
        let (a, b) = self.rss_kb;
        let drift = self.rss_drift();
        self.check(drift < 0.02 || a.abs_diff(b) < 1024, || {
            format!(
                "VmRSS moved {:.1} % across the measured phase ({a} kB -> {b} kB)",
                drift * 100.0
            )
        });
    }

    /// The six end-to-end metrics, in [`END_TO_END`] order, each over the
    /// whole measured phase. Leaves the latency samples sorted.
    pub fn end_to_end(&mut self) -> Vec<f64> {
        self.lat.sort_unstable();
        vec![
            median(&self.setup_s),
            self.frames as f64 / self.wall_s.max(1e-9),
            self.bytes as f64 / 1e6 / (self.transport_ns.max(1) as f64 / 1e9),
            percentile(&self.lat, 50.0) as f64 / 1e3,
            percentile(&self.lat, 99.0) as f64 / 1e3,
            status_kb("VmHWM") as f64 / 1e3,
        ]
    }
}

/// The result line the benchmark contract asks for.
pub fn result_line(out: &RunOut, metrics: &[(&str, &str, f64)]) -> String {
    let mut m = Json::obj();
    for (name, unit, value) in metrics {
        m = m.set(name, Json::obj().set("value", *value).set("unit", *unit));
    }
    Json::obj()
        .set("correct", out.errors.is_empty())
        .set("attempted", out.attempted.max(1))
        .set("failed", out.failed)
        .set("metrics", m)
        .render()
}
