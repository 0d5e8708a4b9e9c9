//! Twin/diff machinery (the core of page-based lazy release consistency).
//!
//! On the first write to a cached page the DSM snapshots a **twin**. At
//! release time the twin is compared against the current contents and only
//! the modified byte runs — the **diff** — are written to the home. Diffs
//! must be *exact*: two nodes may legitimately write disjoint bytes of the
//! same page between the same synchronization points (false sharing, which
//! the paper calls out for Radix), and transmitting unmodified bytes would
//! clobber the other writer's data at the home.

/// One modified byte run within a page: `[offset, offset + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset within the page.
    pub offset: usize,
    /// Run length in bytes.
    pub len: usize,
}

/// Compute the exact modified runs between `twin` and `current`.
///
/// Adjacent modified bytes coalesce into one run; runs are never merged
/// across unmodified bytes (exactness requirement above).
pub fn diff_runs(twin: &[u8], current: &[u8]) -> Vec<DiffRun> {
    debug_assert_eq!(twin.len(), current.len());
    let mut runs = Vec::new();
    let mut i = 0;
    let n = twin.len();
    while i < n {
        if twin[i] == current[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && twin[i] != current[i] {
            i += 1;
        }
        runs.push(DiffRun {
            offset: start,
            len: i - start,
        });
    }
    runs
}

/// Total modified bytes across runs.
pub fn diff_bytes(runs: &[DiffRun]) -> usize {
    runs.iter().map(|r| r.len).sum()
}

/// Apply a diff (run list + corresponding byte slices) onto `target`.
/// Used by tests to verify the round trip; in the live system the runs are
/// RDMA-written to the home individually.
pub fn apply_runs(target: &mut [u8], source: &[u8], runs: &[DiffRun]) {
    for r in runs {
        target[r.offset..r.offset + r.len].copy_from_slice(&source[r.offset..r.offset + r.len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_pages_have_no_diff() {
        let a = vec![7u8; 4096];
        assert!(diff_runs(&a, &a).is_empty());
    }

    #[test]
    fn single_byte_change() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[10] = 5;
        let runs = diff_runs(&twin, &cur);
        assert_eq!(runs, vec![DiffRun { offset: 10, len: 1 }]);
        assert_eq!(diff_bytes(&runs), 1);
    }

    #[test]
    fn adjacent_changes_coalesce_gaps_do_not() {
        let twin = vec![0u8; 32];
        let mut cur = twin.clone();
        cur[4] = 1;
        cur[5] = 1;
        cur[6] = 1;
        cur[10] = 2;
        let runs = diff_runs(&twin, &cur);
        assert_eq!(
            runs,
            vec![
                DiffRun { offset: 4, len: 3 },
                DiffRun { offset: 10, len: 1 }
            ]
        );
    }

    #[test]
    fn change_to_same_value_is_invisible() {
        // Writing the value that was already there produces no diff —
        // exactly like a real byte-compare diff.
        let twin = vec![9u8; 16];
        let cur = twin.clone();
        assert!(diff_runs(&twin, &cur).is_empty());
    }

    #[test]
    fn false_sharing_round_trip_preserves_both_writers() {
        // Node A writes even slots, node B writes odd slots of one page.
        // Applying both exact diffs at the home must preserve both.
        let home_orig = vec![0u8; 256];
        let twin = home_orig.clone();
        let mut a = twin.clone();
        let mut b = twin.clone();
        for i in (0..256).step_by(2) {
            a[i] = 0xAA;
        }
        for i in (1..256).step_by(2) {
            b[i] = 0xBB;
        }
        let mut home = home_orig.clone();
        apply_runs(&mut home, &a, &diff_runs(&twin, &a));
        apply_runs(&mut home, &b, &diff_runs(&twin, &b));
        for (i, &got) in home.iter().enumerate() {
            let want = if i % 2 == 0 { 0xAA } else { 0xBB };
            assert_eq!(got, want, "byte {i}");
        }
    }

    #[test]
    fn full_page_change_is_one_run() {
        let twin = vec![0u8; 4096];
        let cur = vec![1u8; 4096];
        let runs = diff_runs(&twin, &cur);
        assert_eq!(
            runs,
            vec![DiffRun {
                offset: 0,
                len: 4096
            }]
        );
    }
}
