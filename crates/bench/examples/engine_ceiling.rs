//! Diagnostic: how fast can the simulation engine execute events? The
//! datapath executes several events per data frame, so the engine's raw
//! event rate bounds the frame rate any protocol optimization can reach.
//!
//! ```text
//! cargo run --offline --release -p multiedge-bench --example engine_ceiling
//! ```

use netsim::time::ns;
use netsim::{Sim, SimTime};
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
}
