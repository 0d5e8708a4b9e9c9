//! Water — molecular dynamics in three SPLASH-2 flavors.
//!
//! * **Water-Nsquared** — all-pairs forces with Newton symmetry; partial
//!   force vectors are merged into the shared array under a global
//!   accumulation lock (the SPLASH lock-phase), then positions integrate.
//!   Compute is O(n²/p), so it scales well (paper: speedups 13–14).
//! * **Water-Spatial** — a uniform cell grid with interactions limited to
//!   the 27-cell neighborhood; nodes own slabs of cells and fetch neighbor
//!   boundary planes (paper: medium speedups 6–8).
//! * **Water-SpatialFL** — the same computation, but cell updates are
//!   protected by per-cell fine-grained locks instead of relying on the
//!   slab partition alone; results are identical, lock traffic is not
//!   (paper: performance nearly identical to Water-Spatial).

use crate::common::{chunk_range, unit_f64};
use crate::workload::Workload;
use dsm::DsmCluster;
use netsim::time::us_f64;
use std::rc::Rc;

/// Interaction cutoff radius (box units).
const CUTOFF: f64 = 0.1;
/// Integration timestep.
const DT: f64 = 1e-3;

/// Which flavor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaterKind {
    /// All-pairs with lock-phase reduction.
    NSquared,
    /// Cell grid, slab ownership, barrier-only.
    Spatial,
    /// Cell grid with per-cell fine-grained locks.
    SpatialFineLocks,
}

impl WaterKind {
    /// Table-1 name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::NSquared => "Water-Nsq",
            Self::Spatial => "Water-Sp",
            Self::SpatialFineLocks => "Water-SpFL",
        }
    }
}

/// Cost calibration (ns per abstract unit), per variant, so that the
/// paper-sized instances (128K molecules, 3 steps as defined by
/// [`Water::paper`]) model to Table 1's sequential times.
fn ns_per_unit(kind: WaterKind) -> f64 {
    let paper = Water::paper(kind);
    match kind {
        WaterKind::NSquared => 11_678_974e6 / paper.units(),
        WaterKind::Spatial => 231_889e6 / paper.units(),
        WaterKind::SpatialFineLocks => 229_586e6 / paper.units(),
    }
}

/// Water problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Water {
    /// Molecule count.
    pub molecules: usize,
    /// Timesteps.
    pub steps: usize,
    /// Flavor.
    pub kind: WaterKind,
}

impl Water {
    /// The paper's instance: 128K molecules (3 steps here).
    pub fn paper(kind: WaterKind) -> Self {
        Self {
            molecules: 128 << 10,
            steps: 3,
            kind,
        }
    }

    /// Abstract units for the cost model. For the spatial variants the
    /// unit is one neighbor-scan iteration (27 cells × average occupancy),
    /// exactly what the parallel kernel counts.
    pub fn units(&self) -> f64 {
        let n = self.molecules as f64;
        let s = self.steps as f64;
        match self.kind {
            WaterKind::NSquared => (n * (n - 1.0) / 2.0 + n) * s,
            WaterKind::Spatial | WaterKind::SpatialFineLocks => {
                let ncells = Grid::new().ncells() as f64;
                (n * 27.0 * (n / ncells) + n) * s
            }
        }
    }

    /// Cell capacity for the spatial variants (scales with occupancy).
    fn cell_cap(&self) -> usize {
        let ncells = Grid::new().ncells();
        (4 * self.molecules / ncells).max(32)
    }

    fn init_pos(i: usize) -> [f64; 3] {
        [
            unit_f64(0x3A1, i as u64),
            unit_f64(0x3A2, i as u64),
            unit_f64(0x3A3, i as u64),
        ]
    }
}

/// One molecule: (id, position, velocity).
type Molecule = (usize, [f64; 3], [f64; 3]);
/// Pending cell update in phase 2: (cell, new positions, new velocities).
type CellUpdate = (usize, Vec<[f64; 3]>, Vec<[f64; 3]>);

/// Short-range pair force on `a` from `b` (soft repulsive, cutoff).
fn pair_force(a: [f64; 3], b: [f64; 3]) -> Option<[f64; 3]> {
    let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if !(1e-12..CUTOFF * CUTOFF).contains(&r2) {
        return None;
    }
    let inv = 1.0 / (r2 + 1e-4) - 1.0 / (CUTOFF * CUTOFF + 1e-4);
    Some([d[0] * inv, d[1] * inv, d[2] * inv])
}

/// Host oracle for the N² variant: symmetric all-pairs, then integrate.
/// (Accumulation order differs from the parallel reduction, so comparisons
/// use a tolerance.)
fn host_nsq(pos: &mut [[f64; 3]], vel: &mut [[f64; 3]], steps: usize) {
    let n = pos.len();
    for _ in 0..steps {
        let mut f = vec![[0.0f64; 3]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(ff) = pair_force(pos[i], pos[j]) {
                    for k in 0..3 {
                        f[i][k] += ff[k];
                        f[j][k] -= ff[k];
                    }
                }
            }
        }
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] += f[i][k] * DT;
                pos[i][k] = (pos[i][k] + vel[i][k] * DT).rem_euclid(1.0);
            }
        }
    }
}

/// Cell index helpers for the spatial variants.
struct Grid {
    m: usize, // cells per dimension
}

impl Grid {
    fn new() -> Self {
        // Cell side must be ≥ CUTOFF.
        let m = (1.0 / CUTOFF).floor() as usize;
        Self { m: m.max(1) }
    }
    fn ncells(&self) -> usize {
        self.m * self.m * self.m
    }
    fn cell_of(&self, p: [f64; 3]) -> usize {
        let f = |x: f64| (((x.rem_euclid(1.0)) * self.m as f64) as usize).min(self.m - 1);
        // x-major so slabs of constant x are contiguous cell indices.
        f(p[0]) * self.m * self.m + f(p[1]) * self.m + f(p[2])
    }
    fn neighbors(&self, c: usize) -> Vec<usize> {
        let m = self.m;
        let (x, y, z) = (c / (m * m), (c / m) % m, c % m);
        let mut out = Vec::with_capacity(27);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    let nx = (x as i64 + dx).rem_euclid(m as i64) as usize;
                    let ny = (y as i64 + dy).rem_euclid(m as i64) as usize;
                    let nz = (z as i64 + dz).rem_euclid(m as i64) as usize;
                    let nc = nx * m * m + ny * m + nz;
                    if !out.contains(&nc) {
                        out.push(nc);
                    }
                }
            }
        }
        out
    }
}

/// Host oracle for the spatial variants (identical arithmetic to the
/// parallel kernel: per-molecule full neighbor sum, no symmetry).
/// Note: molecules do not migrate between cells across steps (small DT,
/// re-binning clamped — documented simplification mirrored here).
fn host_spatial(cells: &mut [Vec<Molecule>], grid: &Grid, steps: usize) {
    for _ in 0..steps {
        let snapshot: Vec<Vec<[f64; 3]>> = cells
            .iter()
            .map(|c| c.iter().map(|&(_, p, _)| p).collect())
            .collect();
        #[allow(clippy::needless_range_loop)]
        // `c` is compared against neighbor ids, not just an index
        for c in 0..cells.len() {
            let neigh = grid.neighbors(c);
            for mi in 0..cells[c].len() {
                let (_, p, _) = cells[c][mi];
                let mut f = [0.0f64; 3];
                for &nc in &neigh {
                    for (oi, &op) in snapshot[nc].iter().enumerate() {
                        if nc == c && oi == mi {
                            continue;
                        }
                        if let Some(ff) = pair_force(p, op) {
                            for (fk, ffk) in f.iter_mut().zip(ff) {
                                *fk += ffk;
                            }
                        }
                    }
                }
                let m = &mut cells[c][mi];
                for k in 0..3 {
                    m.2[k] += f[k] * DT;
                    m.1[k] = (m.1[k] + m.2[k] * DT).rem_euclid(1.0);
                }
            }
        }
    }
}

impl Workload for Water {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn problem(&self) -> String {
        format!("{} molecules, {} steps", self.molecules, self.steps)
    }

    fn modeled_seq_ns(&self) -> f64 {
        self.units() * ns_per_unit(self.kind)
    }

    fn footprint_bytes(&self) -> u64 {
        match self.kind {
            // pos + vel + force arrays.
            WaterKind::NSquared => self.molecules as u64 * 72,
            // cell-major pos/vel with slack + counts.
            WaterKind::Spatial | WaterKind::SpatialFineLocks => {
                let g = Grid::new();
                (g.ncells() * self.cell_cap()) as u64 * 48 + g.ncells() as u64 * 4
            }
        }
    }

    fn run(&self, dsm: &DsmCluster) -> u64 {
        match self.kind {
            WaterKind::NSquared => self.run_nsq(dsm),
            WaterKind::Spatial | WaterKind::SpatialFineLocks => self.run_spatial(dsm),
        }
    }
}

impl Water {
    fn run_nsq(&self, dsm: &DsmCluster) -> u64 {
        let n = self.molecules;
        let steps = self.steps;
        let ns = ns_per_unit(self.kind);
        let pos = dsm.alloc_array::<[f64; 3]>(n);
        let vel = dsm.alloc_array::<[f64; 3]>(n);
        let force = dsm.alloc_array::<[f64; 3]>(n);
        let mut hpos: Vec<[f64; 3]> = (0..n).map(Water::init_pos).collect();
        let mut hvel = vec![[0.0f64; 3]; n];
        let init_pos = Rc::new(hpos.clone());
        host_nsq(&mut hpos, &mut hvel, steps);
        let expected = Rc::new(hpos);
        dsm.run_spmd(move |node| {
            let init_pos = init_pos.clone();
            let expected = expected.clone();
            async move {
                let p = node.nodes();
                let me = node.id();
                let my = chunk_range(n, me, p);
                pos.write(&node, my.start, &init_pos[my.clone()]).await;
                vel.write(&node, my.start, &vec![[0.0; 3]; my.len()]).await;
                force
                    .write(&node, my.start, &vec![[0.0; 3]; my.len()])
                    .await;
                node.barrier(0).await;
                for _ in 0..steps {
                    let all = pos.read(&node, 0..n).await;
                    // Interleaved i-rows for load balance; symmetric pairs.
                    let mut local = vec![[0.0f64; 3]; n];
                    let mut pairs = 0u64;
                    let mut i = me;
                    while i < n {
                        for j in (i + 1)..n {
                            pairs += 1;
                            if let Some(ff) = pair_force(all[i], all[j]) {
                                for k in 0..3 {
                                    local[i][k] += ff[k];
                                    local[j][k] -= ff[k];
                                }
                            }
                        }
                        i += p;
                    }
                    node.compute(us_f64(pairs as f64 * ns / 1e3)).await;
                    // Lock-phase reduction into the shared force array.
                    node.lock(3).await;
                    node.fetch_ranges(&[(force.addr(0), n * 24)]).await;
                    const CHUNK: usize = 1024;
                    let mut at = 0;
                    while at < n {
                        let hi = (at + CHUNK).min(n);
                        let mut cur = force.read(&node, at..hi).await;
                        for (off, c) in cur.iter_mut().enumerate() {
                            for k in 0..3 {
                                c[k] += local[at + off][k];
                            }
                        }
                        force.write(&node, at, &cur).await;
                        at = hi;
                    }
                    node.unlock(3).await;
                    node.barrier(0).await;
                    // Integrate own range, clear forces.
                    let f = force.read(&node, my.clone()).await;
                    let mut v = vel.read(&node, my.clone()).await;
                    let mut x = pos.read(&node, my.clone()).await;
                    for off in 0..my.len() {
                        for k in 0..3 {
                            v[off][k] += f[off][k] * DT;
                            x[off][k] = (x[off][k] + v[off][k] * DT).rem_euclid(1.0);
                        }
                    }
                    node.compute(us_f64(my.len() as f64 * ns / 1e3)).await;
                    pos.write(&node, my.start, &x).await;
                    vel.write(&node, my.start, &v).await;
                    force
                        .write(&node, my.start, &vec![[0.0; 3]; my.len()])
                        .await;
                    node.barrier(0).await;
                }
                let got = pos.read(&node, my.clone()).await;
                for (off, i) in my.clone().enumerate() {
                    for k in 0..3 {
                        assert!(
                            (got[off][k] - expected[i][k]).abs() < 1e-6,
                            "Water-Nsq mismatch molecule {i} dim {k}: {} vs {}",
                            got[off][k],
                            expected[i][k]
                        );
                    }
                }
            }
        })
    }

    fn run_spatial(&self, dsm: &DsmCluster) -> u64 {
        let n = self.molecules;
        let steps = self.steps;
        let ns = ns_per_unit(self.kind);
        let fine_locks = self.kind == WaterKind::SpatialFineLocks;
        let cell_cap = self.cell_cap();
        let grid = Grid::new();
        let ncells = grid.ncells();
        // Bin molecules on the host (same binning is the initial state for
        // both the oracle and the parallel kernel).
        let mut cells: Vec<Vec<Molecule>> = vec![Vec::new(); ncells];
        for i in 0..n {
            let p = Water::init_pos(i);
            let c = grid.cell_of(p);
            assert!(
                cells[c].len() < cell_cap,
                "cell capacity exceeded; lower the molecule count"
            );
            cells[c].push((i, p, [0.0; 3]));
        }
        let init_cells = Rc::new(cells.clone());
        host_spatial(&mut cells, &grid, steps);
        let expected = Rc::new(cells);
        // Shared cell-major state.
        let cpos = dsm.alloc_array::<[f64; 3]>(ncells * cell_cap);
        let cvel = dsm.alloc_array::<[f64; 3]>(ncells * cell_cap);
        let ccount = dsm.alloc_array::<u32>(ncells);
        let grid = Rc::new(grid);
        dsm.run_spmd(move |node| {
            let init_cells = init_cells.clone();
            let expected = expected.clone();
            let grid = grid.clone();
            async move {
                let p = node.nodes();
                let me = node.id();
                let my_cells = chunk_range(ncells, me, p);
                // Init owned cells.
                for c in my_cells.clone() {
                    let cell = &init_cells[c];
                    ccount.set(&node, c, cell.len() as u32).await;
                    if !cell.is_empty() {
                        let ps: Vec<[f64; 3]> = cell.iter().map(|&(_, p, _)| p).collect();
                        let vs: Vec<[f64; 3]> = cell.iter().map(|&(_, _, v)| v).collect();
                        cpos.write(&node, c * cell_cap, &ps).await;
                        cvel.write(&node, c * cell_cap, &vs).await;
                    }
                }
                node.barrier(0).await;
                for _ in 0..steps {
                    // Snapshot the neighborhood (own slab + boundary
                    // fetches). Read counts + positions for all cells in
                    // the neighborhood of any owned cell.
                    let mut needed: Vec<usize> = Vec::new();
                    for c in my_cells.clone() {
                        for nc in grid.neighbors(c) {
                            if !needed.contains(&nc) {
                                needed.push(nc);
                            }
                        }
                    }
                    // One pipelined burst for the counts array and every
                    // needed cell's positions (own slab + boundary planes).
                    {
                        let mut wanted: Vec<(u64, usize)> =
                            vec![(ccount.addr(0), ncells * 4)];
                        for &nc in &needed {
                            wanted.push((cpos.addr(nc * cell_cap), cell_cap * 24));
                        }
                        node.fetch_ranges(&wanted).await;
                    }
                    let mut snap_pos = std::collections::BTreeMap::new();
                    for &nc in &needed {
                        let cnt = ccount.get(&node, nc).await as usize;
                        let ps = if cnt > 0 {
                            cpos.read(&node, nc * cell_cap..nc * cell_cap + cnt).await
                        } else {
                            Vec::new()
                        };
                        snap_pos.insert(nc, ps);
                    }
                    // Phase 1: compute new state for owned cells from the
                    // snapshot — no shared writes yet, so no node can
                    // observe a mixture of old and new positions.
                    let mut units = 0u64;
                    let mut updates: Vec<CellUpdate> = Vec::new();
                    for c in my_cells.clone() {
                        let mine = snap_pos[&c].clone();
                        if mine.is_empty() {
                            continue;
                        }
                        let cnt = mine.len();
                        let mut vs = cvel.read(&node, c * cell_cap..c * cell_cap + cnt).await;
                        let mut ps = mine.clone();
                        for mi in 0..cnt {
                            let mut f = [0.0f64; 3];
                            for nc in grid.neighbors(c) {
                                for (oi, op) in snap_pos[&nc].iter().enumerate() {
                                    if nc == c && oi == mi {
                                        continue;
                                    }
                                    units += 1;
                                    if let Some(ff) = pair_force(mine[mi], *op) {
                                        for (fk, ffk) in f.iter_mut().zip(ff) {
                                            *fk += ffk;
                                        }
                                    }
                                }
                            }
                            for k in 0..3 {
                                vs[mi][k] += f[k] * DT;
                                ps[mi][k] = (ps[mi][k] + vs[mi][k] * DT).rem_euclid(1.0);
                            }
                        }
                        updates.push((c, ps, vs));
                    }
                    node.compute(us_f64(units as f64 * ns / 1e3)).await;
                    node.barrier(0).await;
                    // Phase 2: publish updates (per-cell locks in the FL
                    // variant guard each cell's update).
                    for (c, ps, vs) in updates {
                        if fine_locks {
                            node.lock(1000 + c as u32).await;
                        }
                        cpos.write(&node, c * cell_cap, &ps).await;
                        cvel.write(&node, c * cell_cap, &vs).await;
                        if fine_locks {
                            node.unlock(1000 + c as u32).await;
                        }
                    }
                    node.barrier(0).await;
                }
                // Verify owned cells.
                for c in my_cells.clone() {
                    let want = &expected[c];
                    let cnt = ccount.get(&node, c).await as usize;
                    assert_eq!(cnt, want.len(), "cell {c} count");
                    if cnt == 0 {
                        continue;
                    }
                    let got = cpos.read(&node, c * cell_cap..c * cell_cap + cnt).await;
                    for (mi, g) in got.iter().enumerate() {
                        #[allow(clippy::needless_range_loop)] // `k` indexes `g` and `want` symmetrically
                        for k in 0..3 {
                            assert!(
                                (g[k] - want[mi].1[k]).abs() < 1e-9,
                                "Water-Sp mismatch cell {c} mol {mi} dim {k}: got {} want {} (node {})",
                                g[k], want[mi].1[k], node.id()
                            );
                        }
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
    fn pair_force_is_antisymmetric_and_cutoff() {
        let a = [0.10, 0.10, 0.10];
        let b = [0.15, 0.10, 0.10];
        let fab = pair_force(a, b).expect("within cutoff");
        let fba = pair_force(b, a).expect("within cutoff");
        for k in 0..3 {
            assert!((fab[k] + fba[k]).abs() < 1e-12);
        }
        assert!(pair_force(a, [0.5, 0.5, 0.5]).is_none(), "beyond cutoff");
    }

    #[test]
    fn grid_neighbors_include_self_and_cover_27() {
        let g = Grid::new();
        assert!(g.m >= 3);
        let c = g.cell_of([0.5, 0.5, 0.5]);
        let neigh = g.neighbors(c);
        assert!(neigh.contains(&c));
        assert_eq!(neigh.len(), 27);
    }

    #[test]
    fn calibration_matches_table1() {
        for (kind, want_ms) in [
            (WaterKind::NSquared, 11_678_974.0),
            (WaterKind::Spatial, 231_889.0),
            (WaterKind::SpatialFineLocks, 229_586.0),
        ] {
            let ms = Water::paper(kind).modeled_seq_ns() / 1e6;
            assert!((ms - want_ms).abs() < 1.0, "{kind:?}: modeled {ms} ms");
        }
    }

    #[test]
    fn nsq_verifies_on_four_nodes() {
        let sim = netsim::Sim::new(8);
        let dsm = DsmCluster::build(&sim, multiedge::SystemConfig::one_link_1g(4));
        let app = Water {
            molecules: 96,
            steps: 2,
            kind: WaterKind::NSquared,
        };
        assert!(app.run(&dsm) > 0);
        assert!(dsm.dsm_stats().lock_acquires >= 8, "lock-phase reduction");
    }

    #[test]
    fn spatial_verifies_on_one_node() {
        let sim = netsim::Sim::new(8);
        let dsm = DsmCluster::build(&sim, multiedge::SystemConfig::one_link_1g(1));
        let app = Water {
            molecules: 400,
            steps: 2,
            kind: WaterKind::Spatial,
        };
        assert!(app.run(&dsm) > 0);
    }

    #[test]
    fn spatial_verifies_on_four_nodes() {
        let sim = netsim::Sim::new(8);
        let dsm = DsmCluster::build(&sim, multiedge::SystemConfig::one_link_1g(4));
        let app = Water {
            molecules: 400,
            steps: 2,
            kind: WaterKind::Spatial,
        };
        assert!(app.run(&dsm) > 0);
    }

    #[test]
    fn fine_locks_variant_matches_spatial_results_with_more_locks() {
        let run = |kind| {
            let sim = netsim::Sim::new(8);
            let dsm = DsmCluster::build(&sim, multiedge::SystemConfig::one_link_1g(4));
            let app = Water {
                molecules: 300,
                steps: 2,
                kind,
            };
            app.run(&dsm);
            dsm.dsm_stats()
        };
        let sp = run(WaterKind::Spatial);
        let fl = run(WaterKind::SpatialFineLocks);
        assert!(fl.lock_acquires > sp.lock_acquires);
    }
}
