//! Properties of the event queue behind [`netsim::Sim`].
//!
//! * **Order is a heap's order.** A random program — absolute and relative
//!   times with same-instant ties, events that schedule into the quantum
//!   being drained, entries beyond the ~134 ms wheel horizon, timers armed,
//!   cancelled and re-armed, bursts that fill more than one wheel chunk of
//!   a quantum, dozens of entries parked beyond the horizon while the
//!   drained quantum takes arrivals, `advance_until` idle jumps and early stops,
//!   `next_event_time` peeks, and scheduling from outside between them — runs
//!   on the engine and on a reference model that is nothing but one binary
//!   heap. Each kind of event captures a size drawn from every closure slot
//!   class (one, two and three cache lines) and the boxed fallback. The executed `(time, event)` sequence, the clock, the event count
//!   and the pending count must agree after every step. Scheduling under
//!   a reserved order stamp (`hold`/`release`, `reserve_order`/
//!   `schedule_stamped`) is internal to netsim, and its unit test
//!   `engine::tests::stamped_scheduling_matches_a_heap` holds it to the
//!   same kind of model.
//! * **Scheduling is O(log n).** 4 096 self-rescheduling lanes sharing one
//!   wheel quantum spend at most `2·log₂(n)` ordering steps per event, by the
//!   engine's own [`netsim::QueueStats`] — a count, so the gate does not
//!   depend on the host's speed.

use netsim::time::ns;
use netsim::{Dur, Sim, SimTime, TimerId};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// One wheel quantum (2^15 ns) and the wheel horizon (2^12 quanta), as the
/// engine's module documentation states them.
const QUANTUM_NS: u64 = 1 << 15;
const HORIZON_NS: u64 = QUANTUM_NS << 12;
/// Events one program may schedule before children stop being spawned.
const SPAWN_BUDGET: u32 = 4_000;
/// Marks a cancel's result in [`Trace::log`], apart from any template index.
const CANCEL_TAG: u64 = 1 << 32;
/// Wheel entries per chunk, as the engine stores a quantum's chain.
const CHUNK_ENTRIES: u64 = 7;
/// Bytes of padding an event closure captures beside its 16 B of state, one
/// per closure size: a one-, two- or three-line slot, or boxed.
const PADS: [usize; 4] = [0, 80, 160, 400];

/// When a scheduled event is due.
#[derive(Debug, Clone, Copy)]
enum When {
    /// `schedule_in`: relative to the scheduling instant.
    In(u64),
    /// `schedule_at`: absolute, clamped to now when already past.
    At(u64),
}

/// One thing an event does when it runs.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Schedule template `target`, as a cancellable timer when `timer`.
    Spawn {
        when: When,
        target: usize,
        timer: bool,
    },
    /// Cancel the `k`-th timer armed so far (modulo how many there are).
    Cancel(usize),
}

/// One step of the driver between events.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `advance_until(now + dt)`, stopping early after `stop_after` events.
    Advance { dt: u64, stop_after: u64 },
    /// `next_event_time()`.
    Peek,
    /// Schedule from outside the event loop.
    Inject(Action),
    /// Schedule `n` events of kind `target` (every other one a timer) into
    /// the quantum `quanta` ahead, then cancel every `cancel_every`-th timer
    /// armed, newest first.
    Burst {
        quanta: u64,
        n: u64,
        target: usize,
        cancel_every: usize,
    },
    /// Schedule `n` events of kind `target` past the wheel horizon, so the
    /// heap is large while the quantum being drained takes arrivals.
    Fill { n: u64, target: usize },
}

#[derive(Debug, Clone)]
struct Program {
    /// `templates[i]` is what an event of kind `i` does; spawn targets are
    /// taken modulo the table, and the spawn budget ends every program.
    templates: Vec<Vec<Action>>,
    /// `pads[i]` indexes [`PADS`]: the capture size of an event of kind `i`.
    pads: Vec<usize>,
    steps: Vec<Step>,
}

/// What running a program leaves behind, compared field by field.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    /// `(now, template)` per executed event and `(now, CANCEL_TAG | result)`
    /// per cancel, in execution order.
    log: Vec<(u64, u64)>,
    /// `(now, events executed, pending entries, peeked next time)` after
    /// every driver step and after the final drain.
    checkpoints: Vec<(u64, u64, usize, Option<u64>)>,
}

/// The scheduling surface both sides implement; [`fire`] is written once
/// against it so the two cannot drift.
trait Host {
    fn now(&self) -> u64;
    fn schedule(self: &Rc<Self>, when: When, template: usize, timer: bool);
    fn cancel(&self, k: usize) -> bool;
    /// Timers armed so far.
    fn armed(&self) -> usize;
    fn world(&self) -> &World;
}

/// Program plus the state an executing event reads and writes.
struct World {
    templates: Vec<Vec<Action>>,
    budget: Cell<u32>,
    log: RefCell<Vec<(u64, u64)>>,
}

impl World {
    fn new(p: &Program) -> Self {
        Self {
            templates: p.templates.clone(),
            budget: Cell::new(SPAWN_BUDGET),
            log: RefCell::default(),
        }
    }
}

fn apply<H: Host>(host: &Rc<H>, action: Action) {
    let w = host.world();
    match action {
        Action::Spawn {
            when,
            target,
            timer,
        } => {
            if w.budget.get() > 0 {
                w.budget.set(w.budget.get() - 1);
                host.schedule(when, target % w.templates.len(), timer);
            }
        }
        Action::Cancel(k) => {
            let hit = host.cancel(k);
            let entry = (host.now(), CANCEL_TAG | u64::from(hit));
            w.log.borrow_mut().push(entry);
        }
    }
}

/// Run one [`Step::Burst`]: every entry lands in the same quantum, so its
/// wheel slot chains more than one chunk when `n` exceeds a chunk.
fn burst<H: Host>(host: &Rc<H>, quanta: u64, n: u64, target: usize, cancel_every: usize) {
    let base = (host.now() / QUANTUM_NS + quanta) * QUANTUM_NS;
    let before = host.armed();
    for i in 0..n {
        let spawn = Action::Spawn {
            when: When::At(base + i * 7_919 % QUANTUM_NS),
            target,
            timer: i % 2 == 0,
        };
        apply(host, spawn);
    }
    for k in (before..host.armed()).rev().step_by(cancel_every) {
        apply(host, Action::Cancel(k));
    }
}

/// Run one [`Step::Fill`].
fn fill<H: Host>(host: &Rc<H>, n: u64, target: usize) {
    for i in 0..n {
        let spawn = Action::Spawn {
            when: When::In(HORIZON_NS + i * 7_919),
            target,
            timer: false,
        };
        apply(host, spawn);
    }
}

/// Run one event of kind `template`.
fn fire<H: Host>(host: &Rc<H>, template: usize) {
    let w = host.world();
    w.log.borrow_mut().push((host.now(), template as u64));
    for &action in &w.templates[template] {
        apply(host, action);
    }
}

// --- the engine ------------------------------------------------------------

struct EngineHost {
    sim: Sim,
    world: World,
    pads: Vec<usize>,
    timers: RefCell<Vec<TimerId>>,
}

/// An event closure of kind `template` carrying `P` bytes of padding.
fn padded<const P: usize>(me: Rc<EngineHost>, template: usize) -> impl FnOnce(&Sim) + 'static {
    let pad = [0u8; P];
    move |_: &Sim| {
        std::hint::black_box(pad);
        fire(&me, template)
    }
}

impl EngineHost {
    fn arm(self: &Rc<Self>, when: When, timer: bool, f: impl FnOnce(&Sim) + 'static) {
        match (when, timer) {
            (When::In(d), false) => self.sim.schedule_in(Dur(d), f),
            (When::At(t), false) => self.sim.schedule_at(SimTime(t), f),
            (When::In(d), true) => {
                let id = self.sim.schedule_timer_in(Dur(d), f);
                self.timers.borrow_mut().push(id);
            }
            (When::At(t), true) => {
                let id = self.sim.schedule_timer_at(SimTime(t), f);
                self.timers.borrow_mut().push(id);
            }
        }
    }
}

impl Host for EngineHost {
    fn now(&self) -> u64 {
        self.sim.now().as_nanos()
    }
    fn schedule(self: &Rc<Self>, when: When, template: usize, timer: bool) {
        let me = self.clone();
        match PADS[self.pads[template]] {
            0 => self.arm(when, timer, padded::<0>(me, template)),
            80 => self.arm(when, timer, padded::<80>(me, template)),
            160 => self.arm(when, timer, padded::<160>(me, template)),
            _ => self.arm(when, timer, padded::<400>(me, template)),
        }
    }
    fn cancel(&self, k: usize) -> bool {
        let timers = self.timers.borrow();
        !timers.is_empty() && self.sim.cancel_timer(timers[k % timers.len()])
    }
    fn armed(&self) -> usize {
        self.timers.borrow().len()
    }
    fn world(&self) -> &World {
        &self.world
    }
}

fn run_engine(p: &Program) -> Trace {
    let host = Rc::new(EngineHost {
        sim: Sim::new(0),
        world: World::new(p),
        pads: p.pads.clone(),
        timers: RefCell::default(),
    });
    let sim = &host.sim;
    let mut checkpoints = Vec::new();
    let mut checkpoint = |peek: Option<u64>| {
        checkpoints.push((
            sim.now().as_nanos(),
            sim.events_executed(),
            sim.pending_events(),
            peek,
        ));
    };
    for &step in &p.steps {
        let mut peek = None;
        match step {
            Step::Advance { dt, stop_after } => {
                let start = sim.events_executed();
                sim.advance_until(sim.now() + Dur(dt), || {
                    sim.events_executed() - start >= stop_after
                });
            }
            Step::Peek => peek = sim.next_event_time().map(|t| t.as_nanos()),
            Step::Inject(action) => apply(&host, action),
            Step::Burst {
                quanta,
                n,
                target,
                cancel_every,
            } => burst(&host, quanta, n, target, cancel_every),
            Step::Fill { n, target } => fill(&host, n, target),
        }
        checkpoint(peek);
    }
    sim.run();
    checkpoint(None);
    let log = host.world.log.take();
    Trace { log, checkpoints }
}

// --- the reference model: one binary heap ----------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerState {
    Pending,
    Fired,
    Cancelled,
}

/// `(time, seq, template, timer index)` in a min-heap, and nothing else.
type ModelEntry = Reverse<(u64, u64, usize, Option<usize>)>;

struct ModelHost {
    now: Cell<u64>,
    seq: Cell<u64>,
    executed: Cell<u64>,
    heap: RefCell<BinaryHeap<ModelEntry>>,
    timers: RefCell<Vec<TimerState>>,
    world: World,
}

impl Host for ModelHost {
    fn now(&self) -> u64 {
        self.now.get()
    }
    fn schedule(self: &Rc<Self>, when: When, template: usize, timer: bool) {
        let at = match when {
            When::In(d) => self.now.get() + d,
            When::At(t) => t.max(self.now.get()),
        };
        let timer = timer.then(|| {
            let mut timers = self.timers.borrow_mut();
            timers.push(TimerState::Pending);
            timers.len() - 1
        });
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.heap
            .borrow_mut()
            .push(Reverse((at, seq, template, timer)));
    }
    fn cancel(&self, k: usize) -> bool {
        let mut timers = self.timers.borrow_mut();
        if timers.is_empty() {
            return false;
        }
        let i = k % timers.len();
        let pending = timers[i] == TimerState::Pending;
        if pending {
            timers[i] = TimerState::Cancelled;
        }
        pending
    }
    fn armed(&self) -> usize {
        self.timers.borrow().len()
    }
    fn world(&self) -> &World {
        &self.world
    }
}

impl ModelHost {
    /// Pop and run the earliest live event due by `limit`; cancelled
    /// entries are dropped without touching the clock or the count.
    fn step(self: &Rc<Self>, limit: Option<u64>) -> bool {
        loop {
            let Some(&Reverse((at, _, template, timer))) = self.heap.borrow().peek() else {
                return false;
            };
            if limit.is_some_and(|lim| at > lim) {
                return false;
            }
            self.heap.borrow_mut().pop();
            if let Some(i) = timer {
                let mut timers = self.timers.borrow_mut();
                if timers[i] == TimerState::Cancelled {
                    continue;
                }
                timers[i] = TimerState::Fired;
            }
            self.now.set(at);
            self.executed.set(self.executed.get() + 1);
            fire(self, template);
            return true;
        }
    }
}

fn run_model(p: &Program) -> Trace {
    let host = Rc::new(ModelHost {
        now: Cell::new(0),
        seq: Cell::new(0),
        executed: Cell::new(0),
        heap: RefCell::default(),
        timers: RefCell::default(),
        world: World::new(p),
    });
    let mut checkpoints = Vec::new();
    let mut checkpoint = |peek: Option<u64>| {
        checkpoints.push((
            host.now.get(),
            host.executed.get(),
            host.heap.borrow().len(),
            peek,
        ));
    };
    for &step in &p.steps {
        let mut peek = None;
        match step {
            Step::Advance { dt, stop_after } => {
                let limit = host.now.get() + dt;
                let start = host.executed.get();
                let mut stopped = false;
                loop {
                    if host.executed.get() - start >= stop_after {
                        stopped = true;
                        break;
                    }
                    if !host.step(Some(limit)) {
                        break;
                    }
                }
                if !stopped {
                    host.now.set(limit);
                }
            }
            Step::Peek => peek = host.heap.borrow().peek().map(|e| e.0 .0),
            Step::Inject(action) => apply(&host, action),
            Step::Burst {
                quanta,
                n,
                target,
                cancel_every,
            } => burst(&host, quanta, n, target, cancel_every),
            Step::Fill { n, target } => fill(&host, n, target),
        }
        checkpoint(peek);
    }
    while host.step(None) {}
    checkpoint(None);
    let log = host.world.log.take();
    Trace { log, checkpoints }
}

// --- program generation -----------------------------------------------------

/// Delays that land on every queue path: the same instant, inside the
/// quantum being drained, a few quanta out, either side of the horizon.
fn arb_when() -> impl Strategy<Value = When> {
    prop_oneof![
        Just(When::In(0)),
        (0u64..QUANTUM_NS).prop_map(When::In),
        (0u64..40 * QUANTUM_NS).prop_map(When::In),
        (HORIZON_NS - 4 * QUANTUM_NS..HORIZON_NS + 4 * QUANTUM_NS).prop_map(When::In),
        (HORIZON_NS..3 * HORIZON_NS).prop_map(When::In),
        // Absolute times on a coarse grid, so separately scheduled events
        // tie and many are already past.
        (0u64..64).prop_map(|k| When::At(k * 5 * QUANTUM_NS / 2)),
        (0u64..4 * HORIZON_NS).prop_map(When::At),
    ]
}

/// Two spawns (a third of them timers) to every cancel.
fn arb_action() -> impl Strategy<Value = Action> {
    let spawn = || {
        (arb_when(), 0usize..64, 0u8..3).prop_map(|(when, target, t)| Action::Spawn {
            when,
            target,
            timer: t == 0,
        })
    };
    prop_oneof![spawn(), spawn(), (0usize..1024).prop_map(Action::Cancel)]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Listed twice: outside scheduling is what seeds every program.
        arb_action().prop_map(Step::Inject),
        arb_action().prop_map(Step::Inject),
        Just(Step::Peek),
        // Short hops that stop mid-quantum, and idle jumps past the horizon.
        (0u64..3 * QUANTUM_NS, 0u64..6).prop_map(|(dt, n)| Step::Advance {
            dt,
            stop_after: 1 + n,
        }),
        (0u64..2 * HORIZON_NS).prop_map(|dt| Step::Advance {
            dt,
            stop_after: u64::MAX,
        }),
        // One to four chunks' worth of one quantum, a few quanta out.
        (
            1u64..6,
            CHUNK_ENTRIES + 1..4 * CHUNK_ENTRIES,
            0usize..64,
            1usize..4
        )
            .prop_map(|(quanta, n, target, cancel_every)| Step::Burst {
                quanta,
                n,
                target,
                cancel_every,
            }),
        (32u64..64, 0usize..64).prop_map(|(n, target)| Step::Fill { n, target }),
    ]
}

fn arb_program() -> impl Strategy<Value = Program> {
    let template = (proptest::collection::vec(arb_action(), 0..4), 0..PADS.len());
    (
        proptest::collection::vec(template, 1..24),
        proptest::collection::vec(arb_step(), 1..60),
    )
        .prop_map(|(templates, steps)| {
            let (templates, pads) = templates.into_iter().unzip();
            Program {
                templates,
                pads,
                steps,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The engine executes exactly what a single binary heap would, in the
    /// same order, at the same times.
    #[test]
    fn engine_matches_heap_only_model(program in arb_program()) {
        let (engine, model) = (run_engine(&program), run_model(&program));
        prop_assert_eq!(engine.checkpoints, model.checkpoints);
        prop_assert_eq!(engine.log, model.log);
    }
}

/// The lane-density shape: `lanes` chains whose events all share one wheel
/// quantum, each rescheduling itself 3 µs ahead (what it costs per event is
/// `engine.ns_per_event` / `engine.sparse_ns_per_event` in `perf/`).
fn tick(sim: &Sim, left: u32) {
    if left > 1 {
        sim.schedule_in(ns(3_000), move |sim| tick(sim, left - 1));
    }
}

#[test]
fn dense_quantum_scheduling_is_logarithmic() {
    const LANES: u64 = 4_096;
    const ROUNDS: u32 = 64;
    let sim = Sim::new(1);
    for lane in 0..LANES {
        sim.schedule_at(SimTime(lane % 3_000), move |sim| tick(sim, ROUNDS));
    }
    sim.run().expect_quiescent();
    let events = sim.events_executed();
    assert_eq!(events, LANES * u64::from(ROUNDS));
    let q = sim.queue_stats();
    // The shape must actually hit the dense path, or the bound says nothing.
    assert!(
        q.mid_drain_arrivals > events / 2 && q.max_slot_population >= LANES / 2,
        "lanes did not share a quantum: {q:?}"
    );
    let bound = 2 * u64::from(LANES.ilog2());
    assert!(
        q.order_steps <= events * bound,
        "{:.1} ordering steps per event scheduling into a quantum of {LANES} \
         (bound {bound}): {q:?}",
        q.order_steps as f64 / events as f64
    );
}
