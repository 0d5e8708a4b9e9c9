//! Shared helpers for the application kernels.

/// Complex number as `[re, im]` (implements the DSM `Pod` trait via the
/// fixed-size-array blanket impl).
pub type Complex = [f64; 2];

/// Complex multiply.
pub fn cmul(a: Complex, b: Complex) -> Complex {
    [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]
}

/// Complex add.
pub fn cadd(a: Complex, b: Complex) -> Complex {
    [a[0] + b[0], a[1] + b[1]]
}

/// Complex subtract.
pub fn csub(a: Complex, b: Complex) -> Complex {
    [a[0] - b[0], a[1] - b[1]]
}

/// `e^{i·theta}`.
pub fn cexp(theta: f64) -> Complex {
    [theta.cos(), theta.sin()]
}

/// Deterministic 64-bit mix (splitmix64): the apps use it to generate
/// reproducible inputs from indices without carrying RNG state.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic f64 in `[0, 1)` from an index.
pub fn unit_f64(seed: u64, idx: u64) -> f64 {
    (mix64(seed ^ mix64(idx)) >> 11) as f64 / (1u64 << 53) as f64
}

/// The contiguous slice of `0..total` owned by `node` of `nodes`
/// (remainder spread over the first ranks).
pub fn chunk_range(total: usize, node: usize, nodes: usize) -> std::ops::Range<usize> {
    let base = total / nodes;
    let rem = total % nodes;
    let start = node * base + node.min(rem);
    let len = base + usize::from(node < rem);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_ops() {
        let i = [0.0, 1.0];
        assert_eq!(cmul(i, i), [-1.0, 0.0]);
        assert_eq!(cadd([1.0, 2.0], [3.0, 4.0]), [4.0, 6.0]);
        assert_eq!(csub([1.0, 2.0], [3.0, 4.0]), [-2.0, -2.0]);
        let e = cexp(std::f64::consts::PI);
        assert!((e[0] + 1.0).abs() < 1e-12 && e[1].abs() < 1e-12);
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        let u = unit_f64(1, 2);
        assert!((0.0..1.0).contains(&u));
        assert_eq!(unit_f64(1, 2), u);
    }

    #[test]
    fn chunks_partition_everything() {
        for total in [0usize, 1, 7, 16, 100] {
            for nodes in [1usize, 2, 3, 16] {
                let mut covered = 0;
                let mut prev_end = 0;
                for i in 0..nodes {
                    let r = chunk_range(total, i, nodes);
                    assert_eq!(r.start, prev_end, "contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, total);
                assert_eq!(prev_end, total);
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        for i in 0..5 {
            let r = chunk_range(17, i, 5);
            assert!(r.len() == 3 || r.len() == 4);
        }
    }
}
