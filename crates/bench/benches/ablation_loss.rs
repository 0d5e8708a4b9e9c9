//! Ablation: transient frame-loss sweep — i.i.d. and bursty.
//!
//! §2.4 claims reliable completion under transient loss with low overhead
//! (drops ≈20% of the already-small extra traffic in the paper's healthy
//! network). The first sweep injects increasing i.i.d. loss and reports
//! goodput and recovery traffic, each row the mean over seeds 1–8: at 5 %
//! a run is decided by a few tail losses only the RTO repairs, and one
//! seed's goodput swings by half. The second, at seed 1, holds the *mean* loss rate
//! fixed and reshapes it into Gilbert–Elliott bursts: the same average drop
//! probability concentrated into bad-state episodes, which is what real
//! failing links do. The shape matters: NACK-driven selective
//! retransmission repairs a contiguous burst in a single gap-repair cycle,
//! while the same mean spread as isolated i.i.d. drops pays the NACK delay
//! once per scattered gap — so at equal mean, bursty loss keeps *more*
//! goodput, at the price of occasional RTO-recovered episodes when a burst
//! swallows the retransmissions too.

use me_stats::table::{fmt_f, fmt_pct};
use me_stats::Table;
use multiedge::SystemConfig;
use multiedge_bench::{run_micro, run_micro_with_plan, MicroKind, MicroResult};
use netsim::time::Dur;
use netsim::{FaultModel, FaultPlan, FaultTarget, GilbertElliott};

fn main() {
    let mut t = Table::new(
        "Ablation: loss rate vs goodput and recovery (1L-1G one-way, 1MB ops, mean of seeds 1-8)",
        &["loss/hop", "MB/s", "retransmits", "nacks", "extra-frames"],
    );
    for loss in [0.0, 1e-4, 1e-3, 1e-2, 5e-2] {
        let runs: Vec<MicroResult> = (1..=8)
            .map(|seed| {
                let mut cfg = SystemConfig::one_link_1g(2);
                cfg.seed = seed;
                cfg.fault = FaultModel {
                    loss_rate: loss,
                    corrupt_rate: 0.0,
                };
                run_micro(&cfg, MicroKind::OneWay, 1 << 20, 12)
            })
            .collect();
        let mean = |f: fn(&MicroResult) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
        t.row(vec![
            format!("{loss}"),
            fmt_f(mean(|r| r.throughput_mb_s)),
            format!("{:.1}", mean(|r| r.proto.retransmits() as f64)),
            format!("{:.1}", mean(|r| r.proto.nacks_sent as f64)),
            fmt_pct(mean(|r| r.proto.extra_frame_fraction())),
        ]);
    }
    t.print();

    // Same mean loss, different shape: i.i.d. vs Gilbert–Elliott bursts.
    // Each GE model drops half the frames while in the bad state; the
    // good→bad / bad→good rates are chosen so the stationary mean matches
    // the i.i.d. column next to it.
    let mut b = Table::new(
        "Ablation: loss shape at matched mean (1L-1G one-way, 1MB ops, seed 1)",
        &[
            "mean loss",
            "shape",
            "MB/s",
            "retransmits",
            "rto",
            "extra-frames",
        ],
    );
    for (p_g2b, p_b2g) in [(5e-4, 0.2495), (5e-3, 0.2450)] {
        let ge = GilbertElliott::bursty_loss(p_g2b, p_b2g, 0.5);
        let mean = ge.mean_loss();
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.fault = FaultModel {
            loss_rate: mean,
            corrupt_rate: 0.0,
        };
        let iid = run_micro(&cfg, MicroKind::OneWay, 1 << 20, 12);
        b.row(vec![
            format!("{mean:.4}"),
            "i.i.d.".to_string(),
            fmt_f(iid.throughput_mb_s),
            format!("{}", iid.proto.retransmits()),
            format!("{}", iid.proto.retransmits_rto),
            fmt_pct(iid.proto.extra_frame_fraction()),
        ]);

        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.fault = FaultModel::default();
        let plan = FaultPlan::new().burst(Dur::ZERO, FaultTarget::Rail { rail: 0 }, ge);
        let bursty = run_micro_with_plan(&cfg, MicroKind::OneWay, 1 << 20, 12, &plan);
        b.row(vec![
            format!("{mean:.4}"),
            "bursty".to_string(),
            fmt_f(bursty.throughput_mb_s),
            format!("{}", bursty.proto.retransmits()),
            format!("{}", bursty.proto.retransmits_rto),
            fmt_pct(bursty.proto.extra_frame_fraction()),
        ]);
    }
    b.print();
    println!("expected: goodput degrades gracefully; all transfers still complete exactly");
    println!("expected: at equal mean loss, clustered (bursty) drops repair in fewer NACK");
    println!("          cycles than scattered i.i.d. drops and so retain more goodput");
}
