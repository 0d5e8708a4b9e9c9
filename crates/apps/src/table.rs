//! Table 1 — the benchmark applications, their paper-sized problems,
//! calibrated sequential times, and footprints.

use crate::barnes::Barnes;
use crate::fft::Fft;
use crate::lu::Lu;
use crate::radix::Radix;
use crate::raytrace::Raytrace;
use crate::water::{Water, WaterKind};
use crate::workload::Workload;

/// The paper-sized instance of every Table 1 application.
pub fn paper_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Barnes::paper()),
        Box::new(Fft::paper()),
        Box::new(Lu::paper()),
        Box::new(Radix::paper()),
        Box::new(Raytrace::paper()),
        Box::new(Water::paper(WaterKind::NSquared)),
        Box::new(Water::paper(WaterKind::Spatial)),
        Box::new(Water::paper(WaterKind::SpatialFineLocks)),
    ]
}

/// Scaled-down instances that run comfortably inside the simulator while
/// preserving each application's communication pattern. Used by the
/// application figure harnesses (3–6); `EXPERIMENTS.md` documents the
/// scaling.
pub fn scaled_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Barnes {
            bodies: 2048,
            steps: 2,
        }),
        Box::new(Fft { m: 18 }),
        Box::new(Lu {
            n: 32 * crate::lu::B,
        }),
        Box::new(Radix { keys: 1 << 20 }),
        Box::new(Raytrace {
            width: 128,
            height: 128,
            spheres: 24,
        }),
        Box::new(Water {
            molecules: 4096,
            steps: 2,
            kind: WaterKind::NSquared,
        }),
        Box::new(Water {
            molecules: 12288,
            steps: 2,
            kind: WaterKind::Spatial,
        }),
        Box::new(Water {
            molecules: 12288,
            steps: 2,
            kind: WaterKind::SpatialFineLocks,
        }),
    ]
}

/// Tiny instances for smoke tests.
pub fn tiny_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Barnes {
            bodies: 192,
            steps: 1,
        }),
        Box::new(Fft { m: 8 }),
        Box::new(Lu {
            n: 2 * crate::lu::B,
        }),
        Box::new(Radix { keys: 2048 }),
        Box::new(Raytrace {
            width: 32,
            height: 32,
            spheres: 8,
        }),
        Box::new(Water {
            molecules: 96,
            steps: 1,
            kind: WaterKind::NSquared,
        }),
        Box::new(Water {
            molecules: 256,
            steps: 1,
            kind: WaterKind::Spatial,
        }),
        Box::new(Water {
            molecules: 256,
            steps: 1,
            kind: WaterKind::SpatialFineLocks,
        }),
    ]
}

/// The paper's Table 1 sequential execution times in milliseconds, in the
/// same order as [`paper_workloads`].
pub const TABLE1_SEQ_MS: [f64; 8] = [
    2_877_713.0,
    4_752.0,
    412_096.0,
    4_179.0,
    376_096.0,
    11_678_974.0,
    231_889.0,
    229_586.0,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_instance_models_its_table1_time() {
        for (w, want) in paper_workloads().iter().zip(TABLE1_SEQ_MS) {
            let got = w.modeled_seq_ns() / 1e6;
            assert!(
                (got - want).abs() < want * 1e-3 + 1.0,
                "{}: modeled {got} ms, Table 1 says {want} ms",
                w.name()
            );
        }
    }

    #[test]
    fn footprints_are_paper_scale() {
        // Table 1 footprints range 80–500 MB; ours should be the same
        // order of magnitude (exact layouts differ).
        for w in paper_workloads() {
            let mb = w.footprint_bytes() as f64 / 1e6;
            assert!(
                (4.0..2000.0).contains(&mb),
                "{}: footprint {mb} MB out of scale",
                w.name()
            );
        }
    }
}
