//! Property-based end-to-end transport tests: arbitrary operation
//! sequences under arbitrary fault rates must leave the receiver's memory
//! exactly equal to a reference model.

use integration_tests::rig;
use multiedge::{OpFlags, SystemConfig};
use netsim::FaultModel;
use proptest::prelude::*;

/// One randomized remote write: (address bucket, length, fill byte, flags).
#[derive(Debug, Clone)]
struct WriteOp {
    bucket: u8,
    len: usize,
    fill: u8,
    bwd: bool,
    fwd: bool,
}

fn arb_op() -> impl Strategy<Value = WriteOp> {
    (
        0u8..8,
        1usize..20_000,
        any::<u8>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(bucket, len, fill, bwd, fwd)| WriteOp {
            bucket,
            len,
            fill,
            bwd,
            fwd,
        })
}

fn run_case(ops: Vec<WriteOp>, rails: usize, loss: f64, seed: u64) {
    let mut cfg = if rails == 2 {
        SystemConfig::two_link_1g_unordered(2)
    } else {
        SystemConfig::one_link_1g(2)
    };
    cfg.fault = FaultModel {
        loss_rate: loss,
        corrupt_rate: loss / 4.0,
    };
    cfg.seed = seed;
    let (sim, _cl, eps, conns) = rig(cfg);
    // Reference model: ops to the same bucket are ordered by fences only if
    // requested; to keep the model simple we give every op to the same
    // bucket a backward fence, making last-issued-wins deterministic.
    let mut reference: Vec<Vec<u8>> = vec![Vec::new(); 8];
    for op in &ops {
        let buf = vec![op.fill; op.len];
        let slot = &mut reference[op.bucket as usize];
        if slot.len() < op.len {
            slot.resize(op.len, 0);
        }
        slot[..op.len].copy_from_slice(&buf);
    }
    let ep = eps[0].clone();
    let c = conns[0][1].unwrap();
    let ops2 = ops.clone();
    let done = sim.spawn("writer", async move {
        let mut handles = Vec::new();
        for op in ops2 {
            let mut flags = OpFlags {
                fence_backward: true, // model simplicity: same-bucket order
                fence_forward: op.fwd,
                notify: false,
            };
            if op.bwd {
                flags.fence_backward = true;
            }
            let h = ep
                .write_bytes(c, (op.bucket as u64) << 20, vec![op.fill; op.len], flags)
                .await;
            handles.push(h);
        }
        for h in &handles {
            h.wait().await;
        }
        true
    });
    sim.run().expect_quiescent();
    assert_eq!(done.try_take(), Some(true), "transfer must complete");
    for (b, want) in reference.iter().enumerate() {
        if want.is_empty() {
            continue;
        }
        let got = eps[1].mem_read((b as u64) << 20, want.len());
        assert_eq!(
            &got, want,
            "bucket {b} diverged (rails={rails} loss={loss})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Clean single link: arbitrary op sequences land exactly.
    #[test]
    fn ops_exact_on_clean_link(ops in proptest::collection::vec(arb_op(), 1..25), seed in 0u64..1000) {
        run_case(ops, 1, 0.0, seed);
    }

    /// Two unordered rails: reordering never corrupts fenced streams.
    #[test]
    fn ops_exact_on_two_rails(ops in proptest::collection::vec(arb_op(), 1..25), seed in 0u64..1000) {
        run_case(ops, 2, 0.0, seed);
    }

    /// Lossy, corrupting network: reliability holds to the byte.
    #[test]
    fn ops_exact_under_loss(
        ops in proptest::collection::vec(arb_op(), 1..15),
        loss in 0.0f64..0.08,
        seed in 0u64..1000,
    ) {
        run_case(ops, 2, loss, seed);
    }
}
