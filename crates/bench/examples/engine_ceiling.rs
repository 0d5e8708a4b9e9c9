//! Diagnostic: how fast can the simulation engine execute events? The
//! datapath executes several events per data frame, so the engine's raw
//! event rate bounds the frame rate any protocol optimization can reach.
//!
//! ```text
//! cargo run --offline --release -p multiedge-bench --example engine_ceiling
//! ```

use frame::{Frame, FrameHeader, MacAddr};
use netsim::shard::{run_sharded, ShardNet, ShardRunConfig};
use netsim::time::ns;
use netsim::{ClusterSpec, RxFrame, Sim, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

const N: u64 = 2_000_000;

fn step(sim: &Sim, count: Rc<Cell<u64>>) {
    let n = count.get() + 1;
    count.set(n);
    if n < N {
        let sim2 = sim.clone();
        sim.schedule_at(sim.now() + ns(3_000), move |_| step(&sim2, count));
    }
}

fn main() {
    // (a) One chain of events, each scheduling the next 3µs out — the same
    // temporal pattern as protocol timers and NIC completions.
    let sim = Sim::new(1);
    let count = Rc::new(Cell::new(0u64));
    let c = count.clone();
    let s2 = sim.clone();
    sim.schedule_at(SimTime::ZERO, move |_| step(&s2, c));
    let t = Instant::now();
    sim.run();
    let dt = t.elapsed();
    println!(
        "chain:    {N} events in {dt:.2?}  -> {:.2}M events/s",
        N as f64 / dt.as_secs_f64() / 1e6
    );

    // (b) 16 interleaved chains so each wheel quantum holds several events
    // (matches the datapath's slot population).
    let sim = Sim::new(1);
    let count = Rc::new(Cell::new(0u64));
    for lane in 0..16u64 {
        let c = count.clone();
        let s2 = sim.clone();
        sim.schedule_at(SimTime::ZERO + ns(lane * 200), move |_| step(&s2, c));
    }
    let t = Instant::now();
    sim.run();
    let dt = t.elapsed();
    println!(
        "16 lanes: {} events in {dt:.2?}  -> {:.2}M events/s",
        count.get(),
        count.get() as f64 / dt.as_secs_f64() / 1e6
    );

    // (c) Lane-density sweep: how the per-event cost of the queue moves
    // with the number of events sharing a wheel quantum. An event scheduled
    // into the quantum being drained goes to the heap, so the cost grows
    // with log2(lanes), not with lanes; the queue counters beside each row
    // show where the entries went.
    println!("\nlane-density sweep (1M events each):");
    println!(
        "  {:>5}  {:>9}  {:>9}  {:>10}  {:>10}  {:>10}  {:>11}",
        "lanes", "Mevents/s", "max slot", "mid-drain", "heap push", "heap pop", "steps/event"
    );
    for lanes in [16u64, 64, 256, 1024, 4096] {
        let sim = Sim::new(1);
        let count = Rc::new(Cell::new(0u64));
        let per = 1_000_000 / lanes;
        for lane in 0..lanes {
            let c = count.clone();
            sim.schedule_at(SimTime::ZERO + ns(lane % 3_000), move |sim| {
                fn tick(sim: &Sim, c: Rc<Cell<u64>>, left: u64) {
                    c.set(c.get() + 1);
                    if left > 1 {
                        let s = sim.clone();
                        sim.schedule_at(sim.now() + ns(3_000), move |_| {
                            tick(&s, c, left - 1)
                        });
                    }
                }
                tick(sim, c, per);
            });
        }
        let t = Instant::now();
        sim.run();
        let dt = t.elapsed();
        let q = sim.queue_stats();
        println!(
            "  {lanes:>5}  {:>9.2}  {:>9}  {:>10}  {:>10}  {:>10}  {:>11.2}",
            count.get() as f64 / dt.as_secs_f64() / 1e6,
            q.max_slot_population,
            q.mid_drain_arrivals,
            q.heap_pushes,
            q.heap_pops,
            q.order_steps as f64 / count.get() as f64,
        );
    }

    // (d) The sharded runtime on a raw-frame all-to-all burst: per-shard
    // event throughput, boundary-channel occupancy and lookahead stalls.
    // Same workload at every shard count, all on this one thread: what
    // differs between the rows is the window-synchronization overhead.
    println!("\nsharded raw-frame all-to-all (32 nodes, 4 rails, 40 frames/pair):");
    let spec = ClusterSpec::gbe_1(32, 4);
    for shards in [1usize, 2, 4] {
        let cfg = ShardRunConfig {
            wall_limit: Some(std::time::Duration::from_secs(120)),
            ..Default::default()
        };
        let t = Instant::now();
        let (report, outs) = run_sharded(
            &spec,
            shards,
            7,
            None,
            &cfg,
            |sn: &ShardNet| {
                let got: Rc<Cell<u64>> = Rc::default();
                for &node in sn.local_nodes().iter() {
                    for rail in 0..4 {
                        let g = got.clone();
                        sn.net()
                            .set_rx_handler(sn.nics(node)[rail], move |_, _: RxFrame| {
                                g.set(g.get() + 1);
                            });
                    }
                    for peer in 0..32u16 {
                        if peer as usize == node {
                            continue;
                        }
                        for k in 0..40u64 {
                            let rail = (k % 4) as u8;
                            let f = Frame {
                                src: MacAddr::new(node as u16, rail),
                                dst: MacAddr::new(peer, rail),
                                header: FrameHeader::default(),
                                payload: bytes::Bytes::from(vec![0u8; 256]),
                            };
                            let net = sn.net().clone();
                            let nic = sn.nics(node)[rail as usize];
                            sn.sim().schedule_at(SimTime(k), move |_| {
                                net.nic_send(nic, f);
                            });
                        }
                    }
                }
                got
            },
            |_, got: Rc<Cell<u64>>| got.get(),
        )
        .expect("sharded raw-frame cell");
        let dt = t.elapsed();
        let delivered: u64 = outs.iter().sum();
        let events: u64 = report.per_shard.iter().map(|s| s.events).sum();
        println!(
            "  shards {shards}: {delivered} delivered, {:.2}M events/s total, {} windows",
            events as f64 / dt.as_secs_f64() / 1e6,
            report.windows,
        );
        for (i, s) in report.per_shard.iter().enumerate() {
            println!(
                "    shard {i}: {:>7} events ({:.2}M/s)  stalls {:>4}  \
                 boundary in/out {:>6}/{:<6}  max inbox {:>4}",
                s.events,
                s.events as f64 / dt.as_secs_f64() / 1e6,
                s.idle_windows,
                s.boundary_in,
                s.boundary_out,
                s.max_inbox_depth,
            );
        }
    }
}
