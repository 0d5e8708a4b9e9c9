//! Raytrace — a sphere-scene ray tracer (the paper's "balls" scene).
//!
//! The scene (spheres + lights) is read-only shared data; the image is a
//! shared framebuffer. Work is distributed dynamically: nodes grab row-band
//! tiles from a lock-protected shared counter (SPLASH-2 raytrace's task
//! queue), trace primary rays with one shadow test and one reflection
//! bounce, and write their tile's pixels. Compute per pixel dwarfs the
//! communication, so the paper sees near-linear speedups.

use crate::common::unit_f64;
use crate::workload::Workload;
use dsm::DsmCluster;
use netsim::time::us_f64;
use std::rc::Rc;

/// Rows per work tile.
const TILE_ROWS: usize = 8;
/// Lock id of the task-queue counter.
const QUEUE_LOCK: u32 = 17;

/// Cost-model calibration: ns per ray-sphere intersection test, set so the
/// paper's 1K×1K balls scene models to Table 1's 376096 ms sequential time.
/// Tests per pixel ≈ spheres × (primary + shadow + reflection) = 3·S.
pub const NS_PER_UNIT: f64 = {
    let pixels = 1024.0 * 1024.0;
    let spheres = 64.0;
    376_096e6 / (pixels * 3.0 * spheres)
};

/// Raytrace problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Raytrace {
    /// Image width and height.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Sphere count of the balls scene.
    pub spheres: usize,
}

impl Raytrace {
    /// The paper's instance: balls scene at 1K×1K.
    pub fn paper() -> Self {
        Self {
            width: 1024,
            height: 1024,
            spheres: 64,
        }
    }

    /// Ray-sphere test units.
    pub fn units(&self) -> f64 {
        (self.width * self.height) as f64 * 3.0 * self.spheres as f64
    }
}

/// One sphere: center, radius, RGB color packed as floats.
#[derive(Debug, Clone, Copy)]
struct Sphere {
    c: [f64; 3],
    r: f64,
    color: [f64; 3],
}

fn balls_scene(n: usize) -> Vec<Sphere> {
    (0..n)
        .map(|i| {
            let u = |salt: u64| unit_f64(salt, i as u64);
            Sphere {
                c: [
                    4.0 * u(0x51) - 2.0,
                    4.0 * u(0x52) - 2.0,
                    3.0 + 4.0 * u(0x53),
                ],
                r: 0.15 + 0.35 * u(0x54),
                color: [u(0x55), u(0x56), u(0x57)],
            }
        })
        .collect()
}

/// Ray-sphere intersection: distance along the ray, if any.
fn hit(orig: [f64; 3], dir: [f64; 3], s: &Sphere) -> Option<f64> {
    let oc = [orig[0] - s.c[0], orig[1] - s.c[1], orig[2] - s.c[2]];
    let b = oc[0] * dir[0] + oc[1] * dir[1] + oc[2] * dir[2];
    let c = oc[0] * oc[0] + oc[1] * oc[1] + oc[2] * oc[2] - s.r * s.r;
    let disc = b * b - c;
    if disc < 0.0 {
        return None;
    }
    let t = -b - disc.sqrt();
    if t > 1e-6 {
        Some(t)
    } else {
        None
    }
}

/// Trace one primary ray; returns (packed RGB, ray-sphere tests).
fn trace(px: usize, py: usize, w: usize, h: usize, scene: &[Sphere]) -> (u32, u64) {
    let mut tests = 0u64;
    let dir0 = [
        (px as f64 + 0.5) / w as f64 - 0.5,
        (py as f64 + 0.5) / h as f64 - 0.5,
        1.0,
    ];
    let norm = (dir0[0] * dir0[0] + dir0[1] * dir0[1] + 1.0).sqrt();
    let mut orig = [0.0, 0.0, 0.0];
    let mut dir = [dir0[0] / norm, dir0[1] / norm, dir0[2] / norm];
    let light = [5.0f64, 5.0, -2.0];
    let mut color = [0.05f64, 0.05, 0.08]; // background
    let mut weight = 1.0f64;
    for _bounce in 0..2 {
        let mut best: Option<(f64, usize)> = None;
        for (i, s) in scene.iter().enumerate() {
            tests += 1;
            if let Some(t) = hit(orig, dir, s) {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        let Some((t, si)) = best else { break };
        let s = &scene[si];
        let p = [
            orig[0] + t * dir[0],
            orig[1] + t * dir[1],
            orig[2] + t * dir[2],
        ];
        let mut n = [
            (p[0] - s.c[0]) / s.r,
            (p[1] - s.c[1]) / s.r,
            (p[2] - s.c[2]) / s.r,
        ];
        let nn = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
        for k in n.iter_mut() {
            *k /= nn;
        }
        // Shadow test toward the light.
        let mut l = [light[0] - p[0], light[1] - p[1], light[2] - p[2]];
        let ln = (l[0] * l[0] + l[1] * l[1] + l[2] * l[2]).sqrt();
        for k in l.iter_mut() {
            *k /= ln;
        }
        let mut shadowed = false;
        for sh in scene {
            tests += 1;
            if hit(p, l, sh).is_some() {
                shadowed = true;
                break;
            }
        }
        let diffuse = if shadowed {
            0.1
        } else {
            (n[0] * l[0] + n[1] * l[1] + n[2] * l[2]).max(0.0)
        };
        for (k, ch) in color.iter_mut().enumerate() {
            *ch += weight * s.color[k] * (0.15 + 0.85 * diffuse);
        }
        // Reflection bounce.
        let d_dot_n = dir[0] * n[0] + dir[1] * n[1] + dir[2] * n[2];
        dir = [
            dir[0] - 2.0 * d_dot_n * n[0],
            dir[1] - 2.0 * d_dot_n * n[1],
            dir[2] - 2.0 * d_dot_n * n[2],
        ];
        orig = p;
        weight *= 0.3;
    }
    let to8 = |v: f64| (v.clamp(0.0, 1.0) * 255.0) as u32;
    (
        (to8(color[0]) << 16) | (to8(color[1]) << 8) | to8(color[2]),
        tests,
    )
}

/// Host oracle: render the full image.
fn render_host(w: usize, h: usize, scene: &[Sphere]) -> Vec<u32> {
    let mut img = vec![0u32; w * h];
    for y in 0..h {
        for x in 0..w {
            img[y * w + x] = trace(x, y, w, h, scene).0;
        }
    }
    img
}

impl Workload for Raytrace {
    fn name(&self) -> &'static str {
        "Raytrace"
    }

    fn problem(&self) -> String {
        format!("balls scene {}x{}", self.width, self.height)
    }

    fn modeled_seq_ns(&self) -> f64 {
        self.units() * NS_PER_UNIT
    }

    fn footprint_bytes(&self) -> u64 {
        (self.width * self.height) as u64 * 4 + self.spheres as u64 * 56
    }

    fn run(&self, dsm: &DsmCluster) -> u64 {
        let (w, h) = (self.width, self.height);
        let scene = balls_scene(self.spheres);
        let expected = Rc::new(render_host(w, h, &scene));
        let scene = Rc::new(scene);
        let image = dsm.alloc_array::<u32>(w * h);
        let queue = dsm.alloc_array::<u64>(1);
        let tiles = h.div_ceil(TILE_ROWS);
        dsm.run_spmd(move |node| {
            let scene = scene.clone();
            let expected = expected.clone();
            async move {
                if node.id() == 0 {
                    queue.set(&node, 0, 0).await;
                }
                node.barrier(0).await;
                let mut rendered: Vec<usize> = Vec::new();
                loop {
                    // Grab the next tile from the lock-protected counter.
                    node.lock(QUEUE_LOCK).await;
                    let idx = queue.get(&node, 0).await;
                    queue.set(&node, 0, idx + 1).await;
                    node.unlock(QUEUE_LOCK).await;
                    let idx = idx as usize;
                    if idx >= tiles {
                        break;
                    }
                    rendered.push(idx);
                    let y0 = idx * TILE_ROWS;
                    let y1 = (y0 + TILE_ROWS).min(h);
                    for y in y0..y1 {
                        let mut row = vec![0u32; w];
                        for (x, px) in row.iter_mut().enumerate() {
                            let (c, _t) = trace(x, y, w, h, &scene);
                            *px = c;
                        }
                        image.write(&node, y * w, &row).await;
                    }
                    // Charge by the sequential model's per-pixel formula.
                    let units = ((y1 - y0) * w) as f64 * 3.0 * scene.len() as f64;
                    node.compute(us_f64(units * NS_PER_UNIT / 1e3)).await;
                }
                node.barrier(0).await;
                // Verify the tiles this node rendered.
                for idx in rendered {
                    let y0 = idx * TILE_ROWS;
                    let y1 = (y0 + TILE_ROWS).min(h);
                    let got = image.read(&node, y0 * w..y1 * w).await;
                    assert_eq!(
                        got[..],
                        expected[y0 * w..y1 * w],
                        "raytrace tile {idx} mismatch"
                    );
                }
                node.barrier(0).await;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rays_hit_spheres() {
        let s = Sphere {
            c: [0.0, 0.0, 5.0],
            r: 1.0,
            color: [1.0, 0.0, 0.0],
        };
        let t = hit([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], &s).expect("ray through center hits");
        assert!((t - 4.0).abs() < 1e-9);
        assert!(hit([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], &s).is_none());
    }

    #[test]
    fn image_is_deterministic_and_nontrivial() {
        let scene = balls_scene(8);
        let a = render_host(64, 64, &scene);
        let b = render_host(64, 64, &scene);
        assert_eq!(a, b);
        let distinct: std::collections::BTreeSet<u32> = a.iter().copied().collect();
        assert!(distinct.len() > 10, "image must have structure");
    }

    #[test]
    fn calibration_matches_table1() {
        let ms = Raytrace::paper().modeled_seq_ns() / 1e6;
        assert!((ms - 376_096.0).abs() < 1.0, "modeled {ms} ms");
    }

    #[test]
    fn parallel_raytrace_verifies_with_dynamic_tiles() {
        let sim = netsim::Sim::new(6);
        let dsm = DsmCluster::build(&sim, multiedge::SystemConfig::one_link_1g(4));
        let app = Raytrace {
            width: 64,
            height: 64,
            spheres: 12,
        };
        let elapsed = app.run(&dsm);
        assert!(elapsed > 0);
        // Dynamic work distribution went through the lock.
        assert!(dsm.dsm_stats().lock_acquires >= (64 / TILE_ROWS) as u64);
    }
}
