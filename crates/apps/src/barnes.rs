//! Barnes — hierarchical N-body (the paper's "Barnes-Spatial" variant).
//!
//! Each timestep every node reads the full body arrays (positions spread
//! block-wise over homes), builds a local octree replica, computes
//! Barnes-Hut forces for its own body range (θ-criterion), and writes back
//! its bodies' updated state. Compute dominates communication, which is why
//! the paper places Barnes in the "scales well, speedups 13–14" category.

use crate::common::{chunk_range, unit_f64};
use crate::workload::Workload;
use dsm::DsmCluster;
use netsim::time::us_f64;
use std::rc::Rc;

/// Opening criterion.
const THETA: f64 = 0.6;
/// Softening length (avoids singularities).
const EPS2: f64 = 1e-4;
/// Leaf capacity of the octree.
const LEAF: usize = 8;

/// Cost-model calibration: ns per body-cell interaction, set so the paper's
/// 128K-body, 8-step instance models to Table 1's 2877713 ms sequential
/// time. Interactions per body per step are estimated as `28·log2(n)`
/// (an empirical Barnes-Hut fit at θ=0.6).
pub const NS_PER_UNIT: f64 = {
    let n = 131_072.0;
    let steps = 8.0;
    let log2n = 17.0;
    2_877_713e6 / (n * steps * 28.0 * log2n)
};

/// Barnes problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Barnes {
    /// Number of bodies.
    pub bodies: usize,
    /// Timesteps.
    pub steps: usize,
}

impl Barnes {
    /// The paper's instance: 128K particles (8 steps).
    pub fn paper() -> Self {
        Self {
            bodies: 128 << 10,
            steps: 8,
        }
    }

    /// Estimated interaction units.
    pub fn units(&self) -> f64 {
        let n = self.bodies as f64;
        n * self.steps as f64 * 28.0 * n.log2()
    }

    fn init_pos(i: usize) -> [f64; 3] {
        [
            unit_f64(0xB0D1, i as u64),
            unit_f64(0xB0D2, i as u64),
            unit_f64(0xB0D3, i as u64),
        ]
    }
}

/// A node of the octree replica built locally each step.
enum Octree {
    Leaf {
        bodies: Vec<usize>,
    },
    Cell {
        center_of_mass: [f64; 3],
        mass: f64,
        size: f64,
        children: Vec<Octree>,
    },
    Empty,
}

fn build_octree(idx: &[usize], pos: &[[f64; 3]], mass: &[f64], lo: [f64; 3], size: f64) -> Octree {
    if idx.is_empty() {
        return Octree::Empty;
    }
    if idx.len() <= LEAF {
        return Octree::Leaf {
            bodies: idx.to_vec(),
        };
    }
    let half = size / 2.0;
    let mid = [lo[0] + half, lo[1] + half, lo[2] + half];
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); 8];
    for &b in idx {
        let p = pos[b];
        let o = usize::from(p[0] >= mid[0])
            | (usize::from(p[1] >= mid[1]) << 1)
            | (usize::from(p[2] >= mid[2]) << 2);
        buckets[o].push(b);
    }
    let mut total_mass = 0.0;
    let mut com = [0.0; 3];
    for &b in idx {
        total_mass += mass[b];
        for d in 0..3 {
            com[d] += mass[b] * pos[b][d];
        }
    }
    for c in com.iter_mut() {
        *c /= total_mass.max(1e-300);
    }
    let children = (0..8)
        .map(|o| {
            let clo = [
                if o & 1 != 0 { mid[0] } else { lo[0] },
                if o & 2 != 0 { mid[1] } else { lo[1] },
                if o & 4 != 0 { mid[2] } else { lo[2] },
            ];
            build_octree(&buckets[o], pos, mass, clo, half)
        })
        .collect();
    Octree::Cell {
        center_of_mass: com,
        mass: total_mass,
        size,
        children,
    }
}

/// Barnes-Hut force on body `i`; returns (acc, interactions).
fn force_on(i: usize, tree: &Octree, pos: &[[f64; 3]], mass: &[f64]) -> ([f64; 3], u64) {
    let mut acc = [0.0; 3];
    let mut count = 0u64;
    let mut stack = vec![tree];
    let pi = pos[i];
    while let Some(node) = stack.pop() {
        match node {
            Octree::Empty => {}
            Octree::Leaf { bodies } => {
                for &j in bodies {
                    if j == i {
                        continue;
                    }
                    let d = [pos[j][0] - pi[0], pos[j][1] - pi[1], pos[j][2] - pi[2]];
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS2;
                    let inv = mass[j] / (r2 * r2.sqrt());
                    for k in 0..3 {
                        acc[k] += d[k] * inv;
                    }
                    count += 1;
                }
            }
            Octree::Cell {
                center_of_mass,
                mass: m,
                size,
                children,
            } => {
                let d = [
                    center_of_mass[0] - pi[0],
                    center_of_mass[1] - pi[1],
                    center_of_mass[2] - pi[2],
                ];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS2;
                if size * size < THETA * THETA * r2 {
                    let inv = m / (r2 * r2.sqrt());
                    for k in 0..3 {
                        acc[k] += d[k] * inv;
                    }
                    count += 1;
                } else {
                    for c in children {
                        stack.push(c);
                    }
                }
            }
        }
    }
    (acc, count)
}

/// One host-side step over all bodies (the oracle runs this `steps` times).
fn host_step(pos: &mut [[f64; 3]], vel: &mut [[f64; 3]], mass: &[f64]) {
    let n = pos.len();
    let idx: Vec<usize> = (0..n).collect();
    let tree = build_octree(&idx, pos, mass, [-2.0; 3], 8.0);
    let dt = 1e-3;
    let accs: Vec<[f64; 3]> = (0..n).map(|i| force_on(i, &tree, pos, mass).0).collect();
    for i in 0..n {
        for k in 0..3 {
            vel[i][k] += accs[i][k] * dt;
            pos[i][k] += vel[i][k] * dt;
        }
    }
}

impl Workload for Barnes {
    fn name(&self) -> &'static str {
        "Barnes"
    }

    fn problem(&self) -> String {
        format!("{} particles, {} steps", self.bodies, self.steps)
    }

    fn modeled_seq_ns(&self) -> f64 {
        self.units() * NS_PER_UNIT
    }

    fn footprint_bytes(&self) -> u64 {
        // pos + vel (3 f64 each) + mass (1 f64) per body.
        self.bodies as u64 * (24 + 24 + 8)
    }

    fn run(&self, dsm: &DsmCluster) -> u64 {
        let n = self.bodies;
        let steps = self.steps;
        let pos = dsm.alloc_array::<[f64; 3]>(n);
        let vel = dsm.alloc_array::<[f64; 3]>(n);
        let mass = dsm.alloc_array::<f64>(n);
        // Host oracle.
        let mut hpos: Vec<[f64; 3]> = (0..n).map(Barnes::init_pos).collect();
        let mut hvel = vec![[0.0f64; 3]; n];
        let hmass: Vec<f64> = (0..n).map(|i| 0.5 + unit_f64(0xBAA5, i as u64)).collect();
        let init_pos = hpos.clone();
        let init_mass = hmass.clone();
        for _ in 0..steps {
            host_step(&mut hpos, &mut hvel, &hmass);
        }
        let expected = Rc::new(hpos);
        let init_pos = Rc::new(init_pos);
        let init_mass = Rc::new(init_mass);
        dsm.run_spmd(move |node| {
            let expected = expected.clone();
            let init_pos = init_pos.clone();
            let init_mass = init_mass.clone();
            async move {
                let p = node.nodes();
                let my = chunk_range(n, node.id(), p);
                // Init owned range (local homes).
                pos.write(&node, my.start, &init_pos[my.clone()]).await;
                vel.write(&node, my.start, &vec![[0.0; 3]; my.len()]).await;
                mass.write(&node, my.start, &init_mass[my.clone()]).await;
                node.barrier(0).await;
                let dt = 1e-3;
                for _ in 0..steps {
                    // Read the whole body set (remote fetches), build the
                    // local tree replica.
                    let all_pos = pos.read(&node, 0..n).await;
                    let all_mass = mass.read(&node, 0..n).await;
                    let idx: Vec<usize> = (0..n).collect();
                    let tree = build_octree(&idx, &all_pos, &all_mass, [-2.0; 3], 8.0);
                    // Tree build cost: ~2 units per body.
                    node.compute(us_f64(2.0 * n as f64 * NS_PER_UNIT / 1e3))
                        .await;
                    // Forces + integration for owned bodies. Compute is
                    // charged by the same per-body formula the sequential
                    // model uses, so speedups are internally consistent.
                    let mut my_vel = vel.read(&node, my.clone()).await;
                    let mut my_pos: Vec<[f64; 3]> = all_pos[my.clone()].to_vec();
                    for (off, i) in my.clone().enumerate() {
                        let (acc, _cnt) = force_on(i, &tree, &all_pos, &all_mass);
                        for k in 0..3 {
                            my_vel[off][k] += acc[k] * dt;
                            my_pos[off][k] += my_vel[off][k] * dt;
                        }
                    }
                    let units = my.len() as f64 * 28.0 * (n as f64).log2();
                    node.compute(us_f64(units * NS_PER_UNIT / 1e3)).await;
                    // Publish only after everyone finished reading the old
                    // positions (two-phase step, as in SPLASH-2).
                    node.barrier(0).await;
                    pos.write(&node, my.start, &my_pos).await;
                    vel.write(&node, my.start, &my_vel).await;
                    node.barrier(0).await;
                }
                // Verify owned bodies.
                let got = pos.read(&node, my.clone()).await;
                for (off, i) in my.clone().enumerate() {
                    for k in 0..3 {
                        assert!(
                            (got[off][k] - expected[i][k]).abs() < 1e-9,
                            "Barnes mismatch body {i} dim {k}"
                        );
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_force_approximates_direct_sum() {
        let n = 200;
        let pos: Vec<[f64; 3]> = (0..n).map(Barnes::init_pos).collect();
        let mass: Vec<f64> = (0..n).map(|i| 0.5 + unit_f64(0xBAA5, i as u64)).collect();
        let idx: Vec<usize> = (0..n).collect();
        let tree = build_octree(&idx, &pos, &mass, [-2.0; 3], 8.0);
        for i in [0usize, 57, 199] {
            let (bh, _) = force_on(i, &tree, &pos, &mass);
            let mut direct = [0.0; 3];
            for j in 0..n {
                if j == i {
                    continue;
                }
                let d = [
                    pos[j][0] - pos[i][0],
                    pos[j][1] - pos[i][1],
                    pos[j][2] - pos[i][2],
                ];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS2;
                let inv = mass[j] / (r2 * r2.sqrt());
                for k in 0..3 {
                    direct[k] += d[k] * inv;
                }
            }
            let mag = (direct[0] * direct[0] + direct[1] * direct[1] + direct[2] * direct[2])
                .sqrt()
                .max(1e-12);
            for k in 0..3 {
                assert!(
                    (bh[k] - direct[k]).abs() / mag < 0.1,
                    "θ-approximation too far off: body {i} dim {k}: {} vs {}",
                    bh[k],
                    direct[k]
                );
            }
        }
    }

    #[test]
    fn calibration_matches_table1() {
        let ms = Barnes::paper().modeled_seq_ns() / 1e6;
        assert!((ms - 2_877_713.0).abs() < 1.0, "modeled {ms} ms");
    }

    #[test]
    fn parallel_barnes_verifies_on_four_nodes() {
        let sim = netsim::Sim::new(1);
        let dsm = DsmCluster::build(&sim, multiedge::SystemConfig::one_link_1g(4));
        let app = Barnes {
            bodies: 256,
            steps: 2,
        };
        let elapsed = app.run(&dsm);
        assert!(elapsed > 0);
    }
}
