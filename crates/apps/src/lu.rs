//! LU — the SPLASH-2 blocked dense LU factorization (no pivoting).
//!
//! The matrix is stored block-major (each B×B block contiguous) and blocks
//! are assigned to nodes in a 2D cyclic grid ("owner computes"). Pages are
//! homed at each block's owner, reproducing SPLASH-2's contiguous-block
//! allocation. Per step `k`: the diagonal block is factored, the
//! perimeter row/column is updated, then all interior blocks are updated
//! from their `(i,k)` and `(k,j)` factors — the latter two block reads are
//! the communication.

use crate::common::{chunk_range, unit_f64};
use crate::workload::Workload;
use dsm::{Dist, DsmCluster, DsmNode, SharedArray};
use multiedge::PAGE_SIZE;
use netsim::time::us_f64;
use std::rc::Rc;

/// Block side: 32 doubles → 8 KiB per block = exactly two pages.
pub const B: usize = 32;

/// Cost-model calibration: ns per multiply-accumulate, set so the paper's
/// 8192×8192 instance models to Table 1's 412096 ms sequential time
/// (total MACs ≈ n³/3).
pub const NS_PER_UNIT: f64 = 412_096e6 / (8192f64 * 8192.0 * 8192.0 / 3.0);

/// LU problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Lu {
    /// Matrix side; must be a multiple of [`B`].
    pub n: usize,
}

impl Lu {
    /// The paper's instance: 8192×8192.
    pub fn paper() -> Self {
        Self { n: 8192 }
    }

    /// MAC units.
    pub fn units(&self) -> f64 {
        let n = self.n as f64;
        n * n * n / 3.0
    }

    fn nb(&self) -> usize {
        self.n / B
    }

    /// Deterministic, diagonally dominant input (no pivoting needed).
    fn input(n: usize, r: usize, c: usize) -> f64 {
        let base = 2.0 * unit_f64(0x10, (r * n + c) as u64) - 1.0;
        if r == c {
            base + n as f64
        } else {
            base
        }
    }
}

/// 2D-cyclic block owner.
fn owner(bi: usize, bj: usize, p: usize) -> usize {
    // pr × pc grid with pr*pc == p (powers of two split evenly).
    let pr = 1usize << (p.trailing_zeros() / 2);
    let pc = p / pr;
    (bi % pr) * pc + (bj % pc)
}

/// Flat element offset of block (bi, bj) in block-major storage.
fn block_off(bi: usize, bj: usize, nb: usize) -> usize {
    (bi * nb + bj) * B * B
}

/// Factor a diagonal block in place (unblocked right-looking LU, unit
/// lower-diagonal).
fn factor_diag(a: &mut [f64]) {
    for k in 0..B {
        let pivot = a[k * B + k];
        for i in (k + 1)..B {
            a[i * B + k] /= pivot;
            let l = a[i * B + k];
            for j in (k + 1)..B {
                a[i * B + j] -= l * a[k * B + j];
            }
        }
    }
}

/// Update a column-perimeter block: `A := A · U(diag)^-1`.
fn solve_col(a: &mut [f64], diag: &[f64]) {
    for k in 0..B {
        let pivot = diag[k * B + k];
        for i in 0..B {
            a[i * B + k] /= pivot;
            let l = a[i * B + k];
            for j in (k + 1)..B {
                a[i * B + j] -= l * diag[k * B + j];
            }
        }
    }
}

/// Update a row-perimeter block: `A := L(diag)^-1 · A`.
fn solve_row(a: &mut [f64], diag: &[f64]) {
    for k in 0..B {
        for i in (k + 1)..B {
            let l = diag[i * B + k];
            for j in 0..B {
                a[i * B + j] -= l * a[k * B + j];
            }
        }
    }
}

/// Interior update: `A -= L · U` (B×B matmul-subtract).
fn update_interior(a: &mut [f64], l: &[f64], u: &[f64]) {
    for i in 0..B {
        for k in 0..B {
            let lik = l[i * B + k];
            if lik == 0.0 {
                continue;
            }
            for j in 0..B {
                a[i * B + j] -= lik * u[k * B + j];
            }
        }
    }
}

/// Host-side sequential blocked LU (identical arithmetic and order to the
/// parallel kernel) — the verification oracle.
pub fn lu_host(mat: &mut [Vec<f64>], nb: usize) {
    // mat[bi*nb+bj] is the block.
    for k in 0..nb {
        let mut diag = mat[k * nb + k].clone();
        factor_diag(&mut diag);
        mat[k * nb + k] = diag.clone();
        for j in (k + 1)..nb {
            let mut blk = mat[k * nb + j].clone();
            solve_row(&mut blk, &diag);
            mat[k * nb + j] = blk;
        }
        for i in (k + 1)..nb {
            let mut blk = mat[i * nb + k].clone();
            solve_col(&mut blk, &diag);
            mat[i * nb + k] = blk;
        }
        for i in (k + 1)..nb {
            let l = mat[i * nb + k].clone();
            for j in (k + 1)..nb {
                let u = mat[k * nb + j].clone();
                let blk = &mut mat[i * nb + j];
                update_interior(blk, &l, &u);
            }
        }
    }
}

async fn read_block(node: &DsmNode, arr: SharedArray<f64>, off: usize) -> Vec<f64> {
    arr.read(node, off..off + B * B).await
}

impl Workload for Lu {
    fn name(&self) -> &'static str {
        "LU"
    }

    fn problem(&self) -> String {
        format!("{}x{} matrix", self.n, self.n)
    }

    fn modeled_seq_ns(&self) -> f64 {
        self.units() * NS_PER_UNIT
    }

    fn footprint_bytes(&self) -> u64 {
        (self.n * self.n) as u64 * 8
    }

    fn run(&self, dsm: &DsmCluster) -> u64 {
        let n = self.n;
        let nb = self.nb();
        assert_eq!(nb * B, n, "n must be a multiple of B");
        let p = dsm.len();
        // Home pages at their block's owner (a block is exactly 2 pages).
        let pages_per_block = (B * B * 8) / PAGE_SIZE;
        let mut homes = Vec::with_capacity(nb * nb * pages_per_block);
        for bi in 0..nb {
            for bj in 0..nb {
                for _ in 0..pages_per_block {
                    homes.push(owner(bi, bj, p));
                }
            }
        }
        let arr = dsm.alloc_array_dist::<f64>(n * n, Dist::Custom(homes));
        // Host oracle.
        let mut blocks: Vec<Vec<f64>> = Vec::with_capacity(nb * nb);
        for bi in 0..nb {
            for bj in 0..nb {
                let mut blk = vec![0.0; B * B];
                for r in 0..B {
                    for c in 0..B {
                        blk[r * B + c] = Lu::input(n, bi * B + r, bj * B + c);
                    }
                }
                blocks.push(blk);
            }
        }
        let orig = Rc::new(blocks.clone());
        lu_host(&mut blocks, nb);
        let expected = Rc::new(blocks);
        dsm.run_spmd(move |node| {
            let orig = orig.clone();
            let expected = expected.clone();
            async move {
                let p = node.nodes();
                let me = node.id();
                // Init owned blocks.
                for bi in 0..nb {
                    for bj in 0..nb {
                        if owner(bi, bj, p) == me {
                            arr.write(&node, block_off(bi, bj, nb), &orig[bi * nb + bj])
                                .await;
                        }
                    }
                }
                node.barrier(0).await;
                for k in 0..nb {
                    // Diagonal factorization by its owner.
                    if owner(k, k, p) == me {
                        let off = block_off(k, k, nb);
                        let mut d = read_block(&node, arr, off).await;
                        factor_diag(&mut d);
                        arr.write(&node, off, &d).await;
                        node.compute(us_f64((B * B * B) as f64 / 3.0 * NS_PER_UNIT / 1e3))
                            .await;
                    }
                    node.barrier(0).await;
                    // Prefetch everything this step needs in one burst: the
                    // diagonal plus the pivot row/column blocks feeding my
                    // perimeter and interior updates.
                    {
                        let mut wanted: Vec<(u64, usize)> =
                            vec![(arr.addr(block_off(k, k, nb)), B * B * 8)];
                        for i in (k + 1)..nb {
                            for j in (k + 1)..nb {
                                if owner(i, j, p) == me {
                                    wanted.push((arr.addr(block_off(i, k, nb)), B * B * 8));
                                    wanted.push((arr.addr(block_off(k, j, nb)), B * B * 8));
                                }
                            }
                        }
                        node.fetch_ranges(&wanted).await;
                    }
                    // Perimeter.
                    let diag = read_block(&node, arr, block_off(k, k, nb)).await;
                    for j in (k + 1)..nb {
                        if owner(k, j, p) == me {
                            let off = block_off(k, j, nb);
                            let mut blk = read_block(&node, arr, off).await;
                            solve_row(&mut blk, &diag);
                            arr.write(&node, off, &blk).await;
                            node.compute(us_f64((B * B * B) as f64 / 2.0 * NS_PER_UNIT / 1e3))
                                .await;
                        }
                    }
                    for i in (k + 1)..nb {
                        if owner(i, k, p) == me {
                            let off = block_off(i, k, nb);
                            let mut blk = read_block(&node, arr, off).await;
                            solve_col(&mut blk, &diag);
                            arr.write(&node, off, &blk).await;
                            node.compute(us_f64((B * B * B) as f64 / 2.0 * NS_PER_UNIT / 1e3))
                                .await;
                        }
                    }
                    node.barrier(0).await;
                    // Interior updates (the bulk of compute and of the
                    // remote block fetches).
                    for i in (k + 1)..nb {
                        for j in (k + 1)..nb {
                            if owner(i, j, p) == me {
                                let l = read_block(&node, arr, block_off(i, k, nb)).await;
                                let u = read_block(&node, arr, block_off(k, j, nb)).await;
                                let off = block_off(i, j, nb);
                                let mut blk = read_block(&node, arr, off).await;
                                update_interior(&mut blk, &l, &u);
                                arr.write(&node, off, &blk).await;
                                node.compute(us_f64((B * B * B) as f64 * NS_PER_UNIT / 1e3))
                                    .await;
                            }
                        }
                    }
                    node.barrier(0).await;
                }
                // Verify owned blocks.
                for bi in 0..nb {
                    for bj in 0..nb {
                        if owner(bi, bj, p) != me {
                            continue;
                        }
                        let got = read_block(&node, arr, block_off(bi, bj, nb)).await;
                        let want = &expected[bi * nb + bj];
                        for (g, w) in got.iter().zip(want) {
                            assert!(
                                (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                                "LU mismatch in block ({bi},{bj}): {g} vs {w}"
                            );
                        }
                    }
                }
                // Keep chunk_range linked for symmetry with other kernels.
                let _ = chunk_range(nb, me, p);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_lu_factors_correctly() {
        // Verify L·U == A on a small blocked matrix.
        let n = 2 * B;
        let nb = n / B;
        let mut blocks: Vec<Vec<f64>> = Vec::new();
        for bi in 0..nb {
            for bj in 0..nb {
                let mut blk = vec![0.0; B * B];
                for r in 0..B {
                    for c in 0..B {
                        blk[r * B + c] = Lu::input(n, bi * B + r, bj * B + c);
                    }
                }
                blocks.push(blk);
            }
        }
        let orig = blocks.clone();
        lu_host(&mut blocks, nb);
        // Reconstruct dense L and U and multiply.
        let get = |bs: &Vec<Vec<f64>>, r: usize, c: usize| -> f64 {
            bs[(r / B) * nb + (c / B)][(r % B) * B + (c % B)]
        };
        for r in 0..n {
            for c in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    let l = if k < r {
                        get(&blocks, r, k)
                    } else if k == r {
                        1.0
                    } else {
                        0.0
                    };
                    let u = if k <= c { get(&blocks, k, c) } else { 0.0 };
                    sum += l * u;
                }
                let a = get(&orig, r, c);
                assert!(
                    (sum - a).abs() < 1e-6 * a.abs().max(1.0),
                    "L*U mismatch at ({r},{c}): {sum} vs {a}"
                );
            }
        }
    }

    #[test]
    fn owner_grid_covers_all_nodes() {
        for p in [1usize, 2, 4, 8, 16] {
            let mut seen = vec![false; p];
            for bi in 0..8 {
                for bj in 0..8 {
                    let o = owner(bi, bj, p);
                    assert!(o < p);
                    seen[o] = true;
                }
            }
            assert!(seen.into_iter().all(|b| b), "p={p}");
        }
    }

    #[test]
    fn calibration_matches_table1() {
        let ms = Lu::paper().modeled_seq_ns() / 1e6;
        assert!((ms - 412_096.0).abs() < 1.0, "modeled {ms} ms");
    }

    #[test]
    fn parallel_lu_verifies_on_four_nodes() {
        let sim = netsim::Sim::new(9);
        let dsm = DsmCluster::build(&sim, multiedge::SystemConfig::one_link_1g(4));
        let app = Lu { n: 4 * B }; // 128x128
        let elapsed = app.run(&dsm);
        assert!(elapsed > 0);
        assert!(dsm.dsm_stats().page_fetches > 0);
    }
}
