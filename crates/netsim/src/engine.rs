//! The discrete-event engine and its cooperative task executor.
//!
//! A [`Sim`] owns a priority queue of events keyed by `(time, sequence)`.
//! Events are either closures (used by the network and protocol state
//! machines) or *task polls*. Tasks are ordinary Rust futures driven by a
//! bespoke single-threaded executor: every leaf future in this workspace
//! ([`crate::sync::Delay`], [`crate::sync::Flag`], …) registers the task that
//! polled it with a simulator event, and event completion schedules a re-poll.
//! There are no OS threads and no real wakers, so a run is bit-for-bit
//! deterministic for a given seed.
//!
//! # Mechanical sympathy
//!
//! The event queue is the innermost loop of every benchmark, so it avoids
//! per-event heap traffic and waits on memory as little as it can:
//!
//! * **Closures in cache-line slots.** An event closure is written straight
//!   into a slot of one, two or three 64-byte lines, the smallest that
//!   holds it (a larger or over-aligned one is boxed), and moved out once,
//!   by its own monomorphized `call`, when it runs; queue entries carry a
//!   4-byte handle. Each class grows in blocks that never move, so it holds
//!   what its own peak needs and a slot's address is stable. Handing out an
//!   event prefetches the slot of the one after it.
//!
//! * **A staging timer wheel in front of one heap.** An event for a later
//!   quantum (2^15 ns) lands in a hashed wheel (slot = quantum mod wheel
//!   size), in the slot's newest chunk of seven entries. When the drain
//!   reaches a quantum, its chunks are copied out into the *run*, a vector
//!   sorted once and popped from the back. An event scheduled into the
//!   quantum already being drained, due in a later one of its 64 sub-slots
//!   of 512 ns, is chained in that sub-slot (the same chunks), and the
//!   sub-slot is sorted into the run's tail once nothing queued precedes
//!   its start. Everything else goes to the `BinaryHeap`: events beyond the
//!   wheel horizon, and events due in the sub-slot being drained — O(log n)
//!   in the entries that share it, never a walk over them. The pop loop
//!   takes the `(time, seq)` minimum of run and heap, and every chained
//!   entry is later than both, so execution order — and therefore every
//!   RNG draw and statistic — is bit-identical to a heap-only engine.
//!   [`Sim::queue_stats`] counts how the queue was used.
//!
//! High-churn timers (interrupt moderation and the like) can additionally be
//! armed through [`Sim::schedule_timer_in`], which returns a [`TimerId`]
//! whose [`Sim::cancel_timer`] is an O(1) tombstone: the queue entry is
//! skipped at pop time without executing or counting it.
//!
//! The paper's "application CPU vs. protocol CPU" split maps onto this:
//! application code runs in tasks; protocol processing runs in event closures
//! whose costs are charged to the node's second CPU (see
//! [`crate::cpu::CpuTimeline`]).

use crate::time::{Dur, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::future::Future;
use std::mem::MaybeUninit;
use std::num::NonZeroU64;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Identifier of a spawned task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(u32);

// ---------------------------------------------------------------------------
// Event storage
// ---------------------------------------------------------------------------

/// Slots, chunks and prefetches are sized in cache lines.
const LINE: usize = 64;
/// A storage block holds at most 2^9 items; the first holds a 4 KiB page
/// of them and each later one twice the one before.
const BLOCK_SHIFT: u32 = 9;

/// Items in blocks that never move, indexed `block << BLOCK_SHIFT | pos`.
/// Released items are reused first, so the count pushed is the peak in use.
pub(crate) struct Pool<T> {
    blocks: Vec<Vec<T>>,
    free: Vec<u32>,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self {
            blocks: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Pool<T> {
    /// A released item, left as it was, else a fresh `vacant()`.
    pub(crate) fn take(&mut self, vacant: impl FnOnce() -> T) -> u32 {
        if let Some(i) = self.free.pop() {
            return i;
        }
        let cap = |k: usize| ((4096 / size_of::<T>()) << k.min(9)).min(1 << BLOCK_SHIFT);
        let k = self.blocks.len();
        if k == 0 || self.blocks[k - 1].len() == cap(k - 1) {
            // Pushes stay within this capacity: the block never moves.
            self.blocks.push(Vec::with_capacity(cap(k)));
        }
        let k = self.blocks.len() - 1;
        self.blocks[k].push(vacant());
        let i = k << BLOCK_SHIFT | (self.blocks[k].len() - 1);
        u32::try_from(i).expect("a pool index fits in 32 bits")
    }

    pub(crate) fn at(&mut self, i: u32) -> &mut T {
        &mut self.blocks[(i >> BLOCK_SHIFT) as usize][i as usize % (1 << BLOCK_SHIFT)]
    }

    pub(crate) fn get(&self, i: u32) -> &T {
        &self.blocks[(i >> BLOCK_SHIFT) as usize][i as usize % (1 << BLOCK_SHIFT)]
    }

    /// Release item `i`, to be taken again as it is left.
    pub(crate) fn recycle(&mut self, i: u32) {
        self.free.push(i);
    }

    fn peak(&self) -> u64 {
        self.blocks.iter().map(Vec::len).sum::<usize>() as u64
    }
}

/// A stored closure's one entry point: [`finish`] for its type.
type Finish = unsafe fn(*mut u8, Option<&Sim>);

/// Move the `F` at `p` out and run it on `sim`, or drop it without one.
/// # Safety
/// `p` holds a live `F` that nothing reads or drops afterwards.
unsafe fn finish<F: FnOnce(&Sim)>(p: *mut u8, sim: Option<&Sim>) {
    // SAFETY: the caller hands over the only live `F` at `p`.
    let f = unsafe { std::ptr::read(p.cast::<F>()) };
    if let Some(sim) = sim {
        f(sim);
    }
}

/// A closure stored in place: `W` words at the start of a line-aligned
/// slot, its [`Finish`] in the slot's last word.
#[repr(C, align(64))]
struct EventSlot<const W: usize> {
    buf: [MaybeUninit<u64>; W],
    /// `None` while empty or once taken — the Drop guard: a live entry
    /// point means the buffer holds a value to destroy.
    finish: Option<Finish>,
}

/// Closure words of a slot of one, two and three lines (56, 120, 184 B).
const ONE_LINE: usize = LINE / 8 - 1;
const TWO_LINES: usize = 2 * LINE / 8 - 1;
const THREE_LINES: usize = 3 * LINE / 8 - 1;
const _: () = assert!(size_of::<EventSlot<THREE_LINES>>() == 3 * LINE);

impl<const W: usize> EventSlot<W> {
    fn empty() -> Self {
        Self {
            buf: [MaybeUninit::uninit(); W],
            finish: None,
        }
    }

    /// Move `f` into this (empty) slot.
    fn put<F: FnOnce(&Sim) + 'static>(&mut self, f: F) {
        assert!(size_of::<F>() <= W * 8 && align_of::<F>() <= LINE);
        debug_assert!(self.finish.is_none(), "slot already holds a closure");
        // SAFETY: the buffer starts the `align(64)` slot and holds `F`
        // (asserted above); a closure already there would leak, not be read.
        unsafe { std::ptr::write(self.buf.as_mut_ptr().cast::<F>(), f) };
        self.finish = Some(finish::<F>);
    }

    /// Empty the slot, handing back its closure to run or drop exactly once.
    fn take(&mut self) -> Option<(Finish, *mut u8)> {
        Some((self.finish.take()?, self.buf.as_mut_ptr().cast::<u8>()))
    }
}

impl<const W: usize> Drop for EventSlot<W> {
    fn drop(&mut self) {
        if let Some((finish, p)) = self.take() {
            // SAFETY: the slot owned the closure; taking it makes this its only drop.
            unsafe { finish(p, None) }
        }
    }
}

impl<const W: usize> Pool<EventSlot<W>> {
    fn put<F: FnOnce(&Sim) + 'static>(&mut self, f: F) -> u32 {
        let i = self.take(EventSlot::empty);
        self.at(i).put(f);
        i
    }

    fn release(&mut self, i: u32) -> Option<(Finish, *mut u8)> {
        self.free.push(i);
        self.at(i).take()
    }

    fn prefetch(&mut self, i: u32) {
        let p = std::ptr::from_mut(self.at(i)).cast::<u8>();
        for line in 0..size_of::<EventSlot<W>>() / LINE {
            prefetch_line(p.wrapping_add(line * LINE));
        }
    }
}

/// A hint that the line at `p` is read soon; no-op off x86-64.
#[cfg(target_arch = "x86_64")]
fn prefetch_line(p: *const u8) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch is a hint that never faults, whatever the address.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) }
}

#[cfg(not(target_arch = "x86_64"))]
fn prefetch_line(_: *const u8) {}

/// Handle of a stored closure: its slot class (lines − 1) in the low two
/// bits, its index in that class's pool above them.
#[derive(Clone, Copy)]
struct SlotRef(u32);

/// Every queued closure, in the smallest slot class that holds it; a larger
/// or over-aligned one is boxed into a one-line slot.
#[derive(Default)]
struct Closures {
    one: Pool<EventSlot<ONE_LINE>>,
    two: Pool<EventSlot<TWO_LINES>>,
    three: Pool<EventSlot<THREE_LINES>>,
}

impl Closures {
    fn store<F: FnOnce(&Sim) + 'static>(&mut self, f: F) -> SlotRef {
        let size = size_of::<F>();
        if align_of::<F>() > LINE || size > THREE_LINES * 8 {
            let boxed: Box<dyn FnOnce(&Sim)> = Box::new(f);
            return self.store(boxed);
        }
        let (class, i) = if size <= ONE_LINE * 8 {
            (0, self.one.put(f))
        } else if size <= TWO_LINES * 8 {
            (1, self.two.put(f))
        } else {
            (2, self.three.put(f))
        };
        assert!(i < 1 << 30, "a pool index fits in a handle");
        SlotRef(i << 2 | class)
    }

    /// Free slot `h`, handing back its closure. The bytes stay at their
    /// stable address until a later `store` reuses the slot: consume them
    /// before anything can schedule.
    fn release(&mut self, h: SlotRef) -> Option<(Finish, *mut u8)> {
        match h.0 & 3 {
            0 => self.one.release(h.0 >> 2),
            1 => self.two.release(h.0 >> 2),
            _ => self.three.release(h.0 >> 2),
        }
    }

    fn prefetch(&mut self, h: SlotRef) {
        match h.0 & 3 {
            0 => self.one.prefetch(h.0 >> 2),
            1 => self.two.prefetch(h.0 >> 2),
            _ => self.three.prefetch(h.0 >> 2),
        }
    }
}

// ---------------------------------------------------------------------------
// Cancellable timers
// ---------------------------------------------------------------------------

/// Handle to a timer armed with [`Sim::schedule_timer_in`] /
/// [`Sim::schedule_timer_at`]. Generation-checked, so a stale id (fired or
/// already cancelled) is a harmless no-op to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    idx: u32,
    gen: u32,
}

impl TimerId {
    /// Sentinel meaning "no timer armed"; cancelling it is a no-op.
    pub const NONE: TimerId = TimerId {
        idx: u32::MAX,
        gen: 0,
    };
}

/// An event's place among the events of its instant, reserved ahead of the
/// event by [`Sim::reserve_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct OrderStamp(
    /// The sequence number plus one, so that `Option<OrderStamp>` costs
    /// nothing.
    NonZeroU64,
);

impl OrderStamp {
    fn seq(self) -> u64 {
        self.0.get() - 1
    }
}

/// An event stored by [`Sim::hold`], with its order stamp, awaiting its
/// time; [`Sim::release`] queues it. One that is never released is dropped
/// unrun with the simulator. Packed to 12 bytes: a NIC keeps one per
/// frame waiting for its wire.
#[must_use]
#[repr(C, packed(4))]
pub(crate) struct Held {
    stamp: OrderStamp,
    slot: SlotRef,
}

#[derive(Clone, Copy)]
struct TimerRec {
    gen: u32,
    armed: bool,
}

// ---------------------------------------------------------------------------
// Queue entries
// ---------------------------------------------------------------------------

/// What a queue entry runs. `Call` holds a handle to the closure's slot
/// rather than the closure itself, keeping queue entries small and `Copy` —
/// heap sifts and run sorts move 32 bytes, not a closure.
#[derive(Clone, Copy)]
enum What {
    Call(SlotRef),
    Poll(TaskId),
}

#[derive(Clone, Copy)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    /// Handle of the owning timer, or [`TimerId::NONE`]. A cancelled
    /// timer's entry is skipped at pop time.
    timer: TimerId,
    what: What,
}

const _: () = assert!(size_of::<What>() == 8 && size_of::<Scheduled>() == 32);

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // Reverse order: BinaryHeap is a max-heap, we want the earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// How the event queue was used since the [`Sim`] was created — the numbers
/// that show a dense quantum directly (see [`Sim::queue_stats`]). Plain
/// counters, always on; they feed no protocol or network statistic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Most entries a wheel slot held when the drain reached it.
    pub max_slot_population: u64,
    /// Events scheduled into the quantum already being drained; those due
    /// in a later sub-slot of it are chained there, the rest go to the
    /// heap.
    pub mid_drain_arrivals: u64,
    /// Heap insertions: mid-drain arrivals due in the sub-slot being
    /// drained, events beyond the wheel horizon, and a run (with its
    /// sub-slots) that an earlier arrival preempted.
    pub heap_pushes: u64,
    /// Heap removals (executed or cancelled).
    pub heap_pops: u64,
    /// Upper bound on the key comparisons spent ordering events: the
    /// heap's depth, ⌊log₂ len⌋, per heap insertion (a sift-up compares at
    /// most once per level), and n·⌈log₂ n⌉ per sort of n entries, when a
    /// quantum is loaded into the run and when a sub-slot is merged into
    /// it. A wheel or sub-slot insert compares nothing.
    pub order_steps: u64,
    /// Most closures held at once in one-, two- and three-line slots.
    pub slots_peak: [u64; 3],
}

/// log2 of the wheel quantum in nanoseconds (2^15 ns ≈ 32.8 µs).
const QUANTUM_SHIFT: u32 = 15;
/// Number of wheel slots. Horizon = slots × quantum ≈ 134 ms, comfortably
/// past the protocol's largest timer (`rto_max` = 100 ms); later events go
/// to the heap.
const WHEEL_SLOTS: u64 = 1 << 12;

/// Null pool index: no chunk, no queued frame.
pub(crate) const NIL: u32 = u32::MAX;
/// Entries per wheel chunk: what four cache lines hold beside two links.
const CHUNK_ENTRIES: usize = 7;

/// Some of a wheel slot's entries, linked to its older chunks. Chunks come
/// from one pool, not a `Vec` per slot (which would allocate in proportion
/// to simulated time), so storage follows the most concurrent entries.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Chunk {
    entries: [Scheduled; CHUNK_ENTRIES],
    len: u32,
    next: u32,
}

const _: () = assert!(size_of::<Chunk>() == 4 * LINE);

impl Pool<Chunk> {
    /// Add `ev` to the chain whose newest chunk is `*head` (`NIL`: none).
    fn push(&mut self, head: &mut u32, ev: Scheduled) {
        match (*head != NIL).then(|| self.at(*head)) {
            Some(c) if (c.len as usize) < CHUNK_ENTRIES => {
                c.entries[c.len as usize] = ev;
                c.len += 1;
            }
            _ => {
                let i = self.take(|| Chunk {
                    entries: [ev; CHUNK_ENTRIES],
                    len: 0,
                    next: NIL,
                });
                let c = self.at(i);
                (c.entries[0], c.len, c.next) = (ev, 1, *head);
                *head = i;
            }
        }
    }

    /// Move every entry of the chain whose newest chunk is `head` into
    /// `out`, freeing its chunks.
    fn drain_into(&mut self, mut head: u32, out: &mut impl Extend<Scheduled>) {
        while head != NIL {
            let c = self.at(head);
            out.extend(c.entries[..c.len as usize].iter().copied());
            let next = c.next;
            self.free.push(head);
            head = next;
        }
    }
}

fn quantum(t: SimTime) -> u64 {
    t.as_nanos() >> QUANTUM_SHIFT
}

/// log2 of a sub-slot of the drained quantum in nanoseconds (512 ns, 64 to
/// a quantum).
const SUB_SHIFT: u32 = 9;
const _: () = assert!(
    QUANTUM_SHIFT - SUB_SHIFT == 6,
    "a quantum's sub-slots fill a u64 mask"
);

/// `t`'s sub-slot within its quantum.
fn sub_slot(t: SimTime) -> u64 {
    (t.as_nanos() >> SUB_SHIFT) & ((1 << (QUANTUM_SHIFT - SUB_SHIFT)) - 1)
}

/// The comparison bound [`QueueStats::order_steps`] charges a sort of `n`
/// entries: n·⌈log₂ n⌉.
fn sort_steps(n: usize) -> u64 {
    n as u64 * u64::from(n.next_power_of_two().trailing_zeros())
}

struct Task {
    future: Pin<Box<dyn Future<Output = ()>>>,
    name: String,
    /// A poll event is already queued; avoids redundant polls.
    poll_queued: bool,
}

struct SimInner {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Scheduled>,
    /// Each slot's newest chunk (`NIL` when empty); only it may have room.
    wheel: Vec<u32>,
    chunks: Pool<Chunk>,
    /// Entries staged in the wheel (the run is not counted).
    wheel_len: usize,
    /// The slot being drained, moved out of the wheel and sorted descending
    /// so the earliest entry pops off the back.
    run: Vec<Scheduled>,
    /// Quantum `run` was loaded from.
    run_q: u64,
    /// Arrivals due in a later sub-slot of the drained quantum, unsorted,
    /// one chain of wheel chunks per sub-slot (its newest chunk, or `NIL`);
    /// bit `s` of `sub_mask` marks a non-empty `subs[s]`. The earliest is merged into the run once nothing queued
    /// precedes its start, so such an arrival never pays the heap.
    subs: [u32; 1 << (QUANTUM_SHIFT - SUB_SHIFT)],
    sub_mask: u64,
    /// Entries held in `subs`.
    sub_len: usize,
    /// The sub-slot last merged into the run: an arrival due at or before
    /// it goes to the heap.
    sub_floor: u64,
    /// Reused while merging a sub-slot into the run.
    merge: Vec<Scheduled>,
    /// No occupied slot has a quantum below this (scan start hint).
    wheel_min_q: u64,
    timers: Vec<TimerRec>,
    timer_free: Vec<u32>,
    /// Queued closures, addressed by [`What::Call`] handles.
    closures: Closures,
    tasks: Vec<Option<Task>>,
    live_tasks: usize,
    current_task: Option<TaskId>,
    seed: u64,
    rng: SmallRng,
    events_executed: u64,
    queue_stats: QueueStats,
}

impl SimInner {
    /// Take the next sequence number as a stamp.
    fn next_stamp(&mut self) -> OrderStamp {
        self.seq += 1;
        OrderStamp(NonZeroU64::MIN.saturating_add(self.seq - 1))
    }

    /// Assign the next sequence number and enqueue.
    fn push_event(&mut self, at: SimTime, timer: TimerId, what: What) {
        let seq = self.seq;
        self.seq += 1;
        self.enqueue(at, seq, timer, what);
    }

    /// Enqueue under sequence number `seq`: later quanta inside the horizon
    /// are staged in the wheel, everything else goes to the heap.
    fn enqueue(&mut self, at: SimTime, seq: u64, timer: TimerId, what: What) {
        let at = at.max(self.now);
        let ev = Scheduled {
            time: at,
            seq,
            timer,
            what,
        };
        let q = quantum(at);
        let mid_drain = q == self.run_q;
        if mid_drain {
            let current = match quantum(self.now) == q {
                true => sub_slot(self.now),
                false => 0,
            };
            let sub = sub_slot(at);
            if sub > current.max(self.sub_floor) {
                self.chunks.push(&mut self.subs[sub as usize], ev);
                self.sub_mask |= 1 << sub;
                self.sub_len += 1;
                self.queue_stats.mid_drain_arrivals += 1;
                return;
            }
        }
        if mid_drain || q >= quantum(self.now) + WHEEL_SLOTS {
            self.heap.push(ev);
            let stats = &mut self.queue_stats;
            stats.mid_drain_arrivals += u64::from(mid_drain);
            stats.heap_pushes += 1;
            stats.order_steps += u64::from(self.heap.len().ilog2());
            return;
        }
        self.chunks
            .push(&mut self.wheel[(q % WHEEL_SLOTS) as usize], ev);
        self.wheel_len += 1;
        self.wheel_min_q = self.wheel_min_q.min(q);
    }

    /// The earliest occupied wheel quantum. Only called when `wheel_len > 0`.
    ///
    /// The hint may be stale after an idle gap (e.g. only heap events ran
    /// for a while): every staged entry's quantum lies in
    /// `[quantum(now), quantum(now) + WHEEL_SLOTS)`, so scanning from below
    /// `quantum(now)` could wrap onto a slot whose occupants belong to a
    /// *later* quantum with the same residue. Clamping the scan start to
    /// `quantum(now)` keeps one residue per live window.
    fn staged_quantum(&mut self) -> u64 {
        let mut q = self.wheel_min_q.max(quantum(self.now));
        while self.wheel[(q % WHEEL_SLOTS) as usize] == NIL {
            q += 1;
        }
        self.wheel_min_q = q;
        q
    }

    /// Move quantum `q`'s chain out of the wheel into `run`, sorted.
    fn load_run(&mut self, q: u64) {
        // A run loaded ahead of the clock (by `next_event_time`) that an
        // earlier arrival now preempts waits in the heap instead, and so do
        // its sub-slots.
        self.queue_stats.heap_pushes += (self.run.len() + self.sub_len) as u64;
        self.heap.extend(self.run.drain(..));
        while self.sub_mask != 0 {
            let sub = self.sub_mask.trailing_zeros() as usize;
            let head = std::mem::replace(&mut self.subs[sub], NIL);
            self.chunks.drain_into(head, &mut self.heap);
            self.sub_mask &= self.sub_mask - 1;
        }
        (self.sub_len, self.sub_floor) = (0, 0);
        let head = std::mem::replace(&mut self.wheel[(q % WHEEL_SLOTS) as usize], NIL);
        self.chunks.drain_into(head, &mut self.run);
        self.wheel_len -= self.run.len();
        let stats = &mut self.queue_stats;
        stats.max_slot_population = stats.max_slot_population.max(self.run.len() as u64);
        stats.order_steps += sort_steps(self.run.len());
        self.run
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        self.run_q = q;
        self.wheel_min_q = q + 1;
    }

    /// Merge sub-slot `sub` of the drained quantum into the run: its
    /// arrivals and the run's entries due within it, sorted together.
    fn merge_sub(&mut self, sub: u64) {
        let end = SimTime((self.run_q << QUANTUM_SHIFT) + ((sub + 1) << SUB_SHIFT));
        while self.run.last().is_some_and(|e| e.time < end) {
            self.merge.extend(self.run.pop());
        }
        let (tail, head) = (
            self.merge.len(),
            std::mem::replace(&mut self.subs[sub as usize], NIL),
        );
        self.chunks.drain_into(head, &mut self.merge);
        self.sub_len -= self.merge.len() - tail;
        self.queue_stats.order_steps += sort_steps(self.merge.len());
        self.merge
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        self.run.append(&mut self.merge);
        self.sub_mask &= !(1 << sub);
        self.sub_floor = sub;
    }

    /// Time of the globally earliest entry and whether it heads the run
    /// (else the heap).
    fn front(&mut self) -> Option<(SimTime, bool)> {
        // The drained quantum's sub-slots precede the wheel: merge the
        // earliest once nothing in the run or the heap is due before it.
        while self.sub_mask != 0 {
            let sub = u64::from(self.sub_mask.trailing_zeros());
            let start = SimTime((self.run_q << QUANTUM_SHIFT) + (sub << SUB_SHIFT));
            let first = match (self.run.last(), self.heap.peek()) {
                (Some(r), Some(h)) => Some(r.time.min(h.time)),
                (r, h) => r.or(h).map(|e| e.time),
            };
            if first.is_some_and(|t| t < start) {
                break;
            }
            self.merge_sub(sub);
        }
        if self.wheel_len > 0 && (self.run.is_empty() || self.wheel_min_q < self.run_q) {
            let q = self.staged_quantum();
            // Sort a slot only once nothing in the heap precedes it.
            if self.heap.peek().is_none_or(|h| quantum(h.time) >= q) {
                self.load_run(q);
            }
        }
        let r = self.run.last().map(|e| (e.time, e.seq));
        let h = self.heap.peek().map(|e| (e.time, e.seq));
        match (r, h) {
            (Some(r), Some(h)) if h < r => Some((h.0, false)),
            (Some(r), _) => Some((r.0, true)),
            (None, h) => h.map(|h| (h.0, false)),
        }
    }

    /// Pop the globally earliest event, skipping cancelled timers. Advances
    /// `now` and the event counter for the returned event. Returns `None`
    /// when the queue is empty or the next event lies beyond `limit` (the
    /// event stays queued).
    fn pop_next(&mut self, limit: Option<SimTime>) -> Option<Scheduled> {
        loop {
            let (time, from_run) = self.front()?;
            if limit.is_some_and(|lim| time > lim) {
                return None;
            }
            let ev = if from_run {
                self.run.pop()
            } else {
                self.queue_stats.heap_pops += 1;
                self.heap.pop()
            }
            .expect("front() saw this entry");
            if ev.timer != TimerId::NONE {
                let rec = &mut self.timers[ev.timer.idx as usize];
                if !(rec.armed && rec.gen == ev.timer.gen) {
                    // Cancelled: drop the closure without running it. The
                    // clock and event counter are untouched — a later live
                    // event will advance them past this point anyway.
                    if let What::Call(h) = ev.what {
                        if let Some((finish, p)) = self.closures.release(h) {
                            // SAFETY: `release` emptied the slot: the only drop.
                            unsafe { finish(p, None) }
                        }
                    }
                    continue;
                }
                // Fires now: retire the slab entry so the id goes stale.
                rec.armed = false;
                rec.gen = rec.gen.wrapping_add(1);
                self.timer_free.push(ev.timer.idx);
            }
            self.now = ev.time;
            self.events_executed += 1;
            // Prefetch the closure that runs next: the run's tail, or the
            // heap's top if earlier (`Scheduled` orders earliest greatest).
            let next = match (self.run.last(), self.heap.peek()) {
                (Some(r), Some(h)) if h > r => Some(h.what),
                (r, h) => r.or(h).map(|e| e.what),
            };
            if let Some(What::Call(h)) = next {
                self.closures.prefetch(h);
            }
            return Some(ev);
        }
    }

    fn alloc_timer(&mut self) -> TimerId {
        if let Some(idx) = self.timer_free.pop() {
            let rec = &mut self.timers[idx as usize];
            rec.armed = true;
            TimerId { idx, gen: rec.gen }
        } else {
            let idx = self.timers.len() as u32;
            self.timers.push(TimerRec {
                gen: 0,
                armed: true,
            });
            TimerId { idx, gen: 0 }
        }
    }
}

/// Outcome of [`Sim::run`].
#[derive(Debug)]
pub struct RunReport {
    /// Virtual time when the event queue drained (or the limit fired).
    pub end_time: SimTime,
    /// Total events executed.
    pub events: u64,
    /// Names of tasks that never completed — non-empty means deadlock (a
    /// task is waiting on an event nobody will fire).
    pub stuck_tasks: Vec<String>,
}

impl RunReport {
    /// Panic with a readable message if any task never completed.
    pub fn expect_quiescent(&self) {
        assert!(
            self.stuck_tasks.is_empty(),
            "simulation deadlock: stuck tasks {:?}",
            self.stuck_tasks
        );
    }
}

/// Handle to the simulator. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<RefCell<SimInner>>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Sim {
    /// Fresh simulator with the given RNG seed. Identical seeds yield
    /// identical runs.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: Rc::new(RefCell::new(SimInner {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                wheel: vec![NIL; WHEEL_SLOTS as usize],
                chunks: Pool::default(),
                wheel_len: 0,
                run: Vec::new(),
                run_q: 0,
                subs: [NIL; 1 << (QUANTUM_SHIFT - SUB_SHIFT)],
                sub_mask: 0,
                sub_len: 0,
                sub_floor: 0,
                merge: Vec::new(),
                wheel_min_q: 0,
                timers: Vec::new(),
                timer_free: Vec::new(),
                closures: Closures::default(),
                tasks: Vec::new(),
                live_tasks: 0,
                current_task: None,
                seed,
                rng: SmallRng::seed_from_u64(seed),
                events_executed: 0,
                queue_stats: QueueStats::default(),
            })),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Total events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.inner.borrow().events_executed
    }

    /// Number of queued entries (wheel + heap). Counts cancelled-timer
    /// tombstones still awaiting their lazy pop, so `0` means the queue is
    /// truly drained — a driver loop's quiescence check.
    pub fn pending_events(&self) -> usize {
        let inner = self.inner.borrow();
        inner.wheel_len + inner.run.len() + inner.sub_len + inner.heap.len()
    }

    /// Timestamp of the earliest queued entry, or `None` when the queue is
    /// empty. Cancelled-timer tombstones count (their entries are popped
    /// lazily), so this is a conservative lower bound on the next time
    /// anything can execute — what a windowed driver loop needs to skip
    /// idle windows.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.inner.borrow_mut().front().map(|(t, _)| t)
    }

    /// Queue-shape counters since creation (see [`QueueStats`]).
    pub fn queue_stats(&self) -> QueueStats {
        let inner = self.inner.borrow();
        let c = &inner.closures;
        QueueStats {
            slots_peak: [c.one.peak(), c.two.peak(), c.three.peak()],
            ..inner.queue_stats
        }
    }

    /// Number of spawned tasks that have not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.inner.borrow().live_tasks
    }

    /// Names of tasks that have not completed. With an empty event queue a
    /// non-empty result means deadlock: the tasks wait on events nobody
    /// will fire.
    pub fn stuck_task_names(&self) -> Vec<String> {
        self.inner
            .borrow()
            .tasks
            .iter()
            .filter_map(|t| t.as_ref().map(|t| t.name.clone()))
            .collect()
    }

    /// Schedule `f` to run at absolute time `at` (clamped to now).
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce(&Sim) + 'static) {
        let mut inner = self.inner.borrow_mut();
        let h = inner.closures.store(f);
        inner.push_event(at, TimerId::NONE, What::Call(h));
    }

    /// Reserve the order stamp the next scheduled event would take, for an
    /// event whose time is not known yet: [`Self::schedule_stamped`] later
    /// puts it among the events of its instant as if it had been scheduled
    /// now.
    pub(crate) fn reserve_order(&self) -> OrderStamp {
        self.inner.borrow_mut().next_stamp()
    }

    /// Schedule `f` at `at` (clamped to now) under a stamp from
    /// [`Self::reserve_order`]: events of equal time run in stamp order,
    /// whenever they were queued. `at` must lie after every event already
    /// run under a later stamp, as it does for any `at` later than now.
    pub(crate) fn schedule_stamped(
        &self,
        at: SimTime,
        stamp: OrderStamp,
        f: impl FnOnce(&Sim) + 'static,
    ) {
        let mut inner = self.inner.borrow_mut();
        let h = inner.closures.store(f);
        inner.enqueue(at, stamp.seq(), TimerId::NONE, What::Call(h));
    }

    /// Store `f` now, under the next order stamp, as an event whose time is
    /// not known yet; [`Self::release`] queues it, as
    /// [`Self::schedule_stamped`] would have.
    pub(crate) fn hold(&self, f: impl FnOnce(&Sim) + 'static) -> Held {
        let mut inner = self.inner.borrow_mut();
        Held {
            slot: inner.closures.store(f),
            stamp: inner.next_stamp(),
        }
    }

    /// Queue a held event at `at` (clamped to now), under the same rule as
    /// [`Self::schedule_stamped`].
    pub(crate) fn release(&self, h: Held, at: SimTime) {
        let what = What::Call(h.slot);
        let mut inner = self.inner.borrow_mut();
        inner.enqueue(at, h.stamp.seq(), TimerId::NONE, what);
    }

    /// Schedule `f` to run after `d`.
    pub fn schedule_in(&self, d: Dur, f: impl FnOnce(&Sim) + 'static) {
        let at = self.now() + d;
        self.schedule_at(at, f);
    }

    /// Schedule `f` at absolute time `at` as a *cancellable* timer. The
    /// returned id is single-shot: it goes stale once the timer fires.
    pub fn schedule_timer_at(&self, at: SimTime, f: impl FnOnce(&Sim) + 'static) -> TimerId {
        let mut inner = self.inner.borrow_mut();
        let id = inner.alloc_timer();
        let h = inner.closures.store(f);
        inner.push_event(at, id, What::Call(h));
        id
    }

    /// Schedule `f` after `d` as a *cancellable* timer.
    pub fn schedule_timer_in(&self, d: Dur, f: impl FnOnce(&Sim) + 'static) -> TimerId {
        let at = self.now() + d;
        self.schedule_timer_at(at, f)
    }

    /// Cancel a timer in O(1). The queued closure is dropped unexecuted at
    /// pop time (it does not count as an executed event). Returns whether
    /// the timer was still pending; cancelling a fired or already-cancelled
    /// timer is a no-op.
    pub fn cancel_timer(&self, id: TimerId) -> bool {
        if id == TimerId::NONE {
            return false;
        }
        let mut inner = self.inner.borrow_mut();
        let Some(rec) = inner.timers.get_mut(id.idx as usize) else {
            return false;
        };
        if rec.armed && rec.gen == id.gen {
            rec.armed = false;
            rec.gen = rec.gen.wrapping_add(1);
            inner.timer_free.push(id.idx);
            true
        } else {
            false
        }
    }

    /// The seed this simulator was created with.
    pub fn seed(&self) -> u64 {
        self.inner.borrow().seed
    }

    /// Run `f` with the simulator RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        f(&mut self.inner.borrow_mut().rng)
    }

    /// The task currently being polled.
    ///
    /// # Panics
    ///
    /// Panics when called outside a task poll — leaf futures are the only
    /// legitimate callers.
    pub(crate) fn current_task(&self) -> TaskId {
        self.inner
            .borrow()
            .current_task
            .expect("current_task() called outside a task poll")
    }

    /// Queue a re-poll of `task` at the current time. Idempotent while a
    /// poll is already queued.
    pub(crate) fn wake_task(&self, task: TaskId) {
        let mut inner = self.inner.borrow_mut();
        let Some(slot) = inner.tasks.get_mut(task.0 as usize) else {
            return;
        };
        let Some(t) = slot.as_mut() else {
            return; // already finished
        };
        if t.poll_queued {
            return;
        }
        t.poll_queued = true;
        let now = inner.now;
        inner.push_event(now, TimerId::NONE, What::Poll(task));
    }

    /// Queue a re-poll of `task` at absolute time `at` (used by timers).
    pub(crate) fn wake_task_at(&self, task: TaskId, at: SimTime) {
        self.inner
            .borrow_mut()
            .push_event(at, TimerId::NONE, What::Poll(task));
    }

    /// Spawn a future as a simulation task; it begins running at the current
    /// virtual time. Returns a [`crate::sync::JoinHandle`] yielding its output.
    pub fn spawn<T: 'static>(
        &self,
        name: impl Into<String>,
        fut: impl Future<Output = T> + 'static,
    ) -> crate::sync::JoinHandle<T> {
        let flag = crate::sync::Flag::new(self);
        let cell: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let handle = crate::sync::JoinHandle::new(cell.clone(), flag.clone());
        let wrapper = async move {
            let out = fut.await;
            *cell.borrow_mut() = Some(out);
            flag.fire();
        };
        {
            let mut inner = self.inner.borrow_mut();
            let id = TaskId(u32::try_from(inner.tasks.len()).expect("fewer than 2^32 tasks"));
            inner.tasks.push(Some(Task {
                future: Box::pin(wrapper),
                name: name.into(),
                poll_queued: true,
            }));
            inner.live_tasks += 1;
            let now = inner.now;
            inner.push_event(now, TimerId::NONE, What::Poll(id));
        }
        handle
    }

    fn poll_task(&self, id: TaskId) {
        // Take the task out so the future can re-borrow the simulator.
        let mut task = {
            let mut inner = self.inner.borrow_mut();
            let Some(slot) = inner.tasks.get_mut(id.0 as usize) else {
                return;
            };
            let Some(mut t) = slot.take() else {
                return;
            };
            t.poll_queued = false;
            inner.current_task = Some(id);
            t
        };
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let poll = task.future.as_mut().poll(&mut cx);
        let mut inner = self.inner.borrow_mut();
        inner.current_task = None;
        match poll {
            Poll::Ready(()) => {
                inner.live_tasks -= 1;
                // slot stays None: task retired
            }
            Poll::Pending => {
                inner.tasks[id.0 as usize] = Some(task);
            }
        }
    }

    /// Pop and execute the earliest event due by `limit`, if there is one.
    fn step(&self, limit: Option<SimTime>) -> bool {
        let Some(ev) = self.inner.borrow_mut().pop_next(limit) else {
            return false;
        };
        match ev.what {
            What::Call(h) => {
                let taken = self.inner.borrow_mut().closures.release(h);
                if let Some((finish, p)) = taken {
                    // SAFETY: the slot was live, so `p` holds the closure
                    // and emptying it made this the only read. Its block
                    // never moves or is freed while the simulator lives, and
                    // nothing has run since `release` to reuse the slot;
                    // `finish` moves the closure out before running it.
                    unsafe { finish(p, Some(self)) }
                }
            }
            What::Poll(id) => self.poll_task(id),
        }
        true
    }

    /// Run until the event queue is empty or virtual time would exceed
    /// `limit` (if given). Returns a report including any stuck tasks.
    pub fn run_with_limit(&self, limit: Option<SimTime>) -> RunReport {
        while self.step(limit) {}
        RunReport {
            end_time: self.now(),
            events: self.events_executed(),
            stuck_tasks: self.stuck_task_names(),
        }
    }

    /// Run to quiescence (no virtual-time limit).
    pub fn run(&self) -> RunReport {
        self.run_with_limit(None)
    }

    /// Drive the simulator from an external deadline loop: execute every
    /// event with `time <= limit`, checking `stop()` between events and
    /// returning early (at the current clock) as soon as it reports true.
    ///
    /// Unlike [`Sim::run_with_limit`], when the queue drains — or only
    /// events beyond `limit` remain — the clock is **advanced to `limit`**
    /// before returning, so an idle simulation still reaches an externally
    /// imposed deadline. This is the primitive the sim transport backplane
    /// uses: the protocol driver computes its next timer deadline, calls
    /// `advance_until(deadline, ..)`, and the stop predicate fires the
    /// moment a frame is delivered so the driver can process it at the
    /// correct virtual time instead of at the deadline.
    ///
    /// Forcing the clock forward is safe because every scheduling entry
    /// point clamps new events to `at.max(now)` — nothing can be scheduled
    /// in the skipped-over span.
    pub fn advance_until(&self, limit: SimTime, mut stop: impl FnMut() -> bool) -> SimTime {
        while !stop() {
            if !self.step(Some(limit)) {
                let mut inner = self.inner.borrow_mut();
                inner.now = inner.now.max(limit);
                return inner.now;
            }
        }
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{ms, us};
    use std::cell::Cell;

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let (a, b, c, d) = (log.clone(), log.clone(), log.clone(), log.clone());
        sim.schedule_in(us(10), move |_| a.borrow_mut().push(2));
        sim.schedule_in(us(5), move |_| b.borrow_mut().push(1));
        sim.schedule_in(us(10), move |_| c.borrow_mut().push(3)); // tie: after first us(10)
        sim.schedule_in(us(20), move |_| d.borrow_mut().push(4));
        let report = sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4]);
        assert_eq!(report.end_time, SimTime::ZERO + us(20));
        assert_eq!(report.events, 4);
    }

    #[test]
    fn nested_scheduling_advances_time() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let l = log.clone();
        sim.schedule_in(us(1), move |sim| {
            let l2 = l.clone();
            l.borrow_mut().push(sim.now().as_nanos());
            sim.schedule_in(us(2), move |sim| {
                l2.borrow_mut().push(sim.now().as_nanos());
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1_000, 3_000]);
    }

    #[test]
    fn deterministic_rng() {
        use rand::Rng;
        let draws = |seed| {
            let sim = Sim::new(seed);
            (0..4)
                .map(|_| sim.with_rng(|r| r.gen::<u64>()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn run_with_limit_stops_before_later_events() {
        let sim = Sim::new(0);
        let hit: Rc<RefCell<u32>> = Rc::default();
        let h = hit.clone();
        sim.schedule_in(us(100), move |_| *h.borrow_mut() += 1);
        let report = sim.run_with_limit(Some(SimTime::ZERO + us(10)));
        assert_eq!(*hit.borrow(), 0);
        assert!(report.end_time <= SimTime::ZERO + us(10));
        // The event is still queued and fires on a later unrestricted run.
        sim.run();
        assert_eq!(*hit.borrow(), 1);
    }

    #[test]
    fn wheel_and_heap_interleave_in_time_order() {
        // Mix near events (wheel) with far ones (beyond the ~134 ms wheel
        // horizon, so they sit in the heap) and events scheduled from inside
        // events; order must be globally sorted regardless of the backing
        // structure.
        let sim = Sim::new(3);
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let mut expect = Vec::new();
        for &t_us in &[250_000u64, 3, 140_000, 7, 500_000, 7, 33, 160_000] {
            let l = log.clone();
            sim.schedule_in(us(t_us), move |sim| {
                l.borrow_mut().push(sim.now().as_nanos())
            });
            expect.push(t_us * 1_000);
        }
        let l = log.clone();
        sim.schedule_in(us(1), move |sim| {
            // From t=1µs, +200ms is beyond the horizon (heap), +5µs is not.
            let l2 = l.clone();
            sim.schedule_in(ms(200), move |sim| {
                l2.borrow_mut().push(sim.now().as_nanos())
            });
            let l3 = l.clone();
            sim.schedule_in(us(5), move |sim| l3.borrow_mut().push(sim.now().as_nanos()));
        });
        expect.push(200_001_000);
        expect.push(6_000);
        expect.sort_unstable();
        sim.run().expect_quiescent();
        assert_eq!(*log.borrow(), expect);
    }

    #[test]
    fn fifo_ties_hold_across_wheel_and_heap() {
        // Two events at the same instant, one landing in the wheel and one
        // diverted to the heap (scheduled before the horizon reaches it),
        // must still run in scheduling order.
        let sim = Sim::new(0);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let (a, b) = (log.clone(), log.clone());
        sim.schedule_in(ms(200), move |_| a.borrow_mut().push(1)); // heap (beyond horizon)
        let s = sim.clone();
        sim.schedule_in(ms(190), move |_| {
            // Now ms(200) is within the horizon: lands in the wheel, but
            // carries a later seq than the heap-resident tie.
            s.schedule_in(ms(10), move |_| b.borrow_mut().push(2));
        });
        sim.run().expect_quiescent();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn equal_times_run_in_stamp_order_not_queue_order() {
        let sim = Sim::new(0);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let (a, b, c, d) = (log.clone(), log.clone(), log.clone(), log.clone());
        let first = sim.reserve_order();
        let second = sim.hold(move |_| b.borrow_mut().push(2));
        sim.schedule_in(us(100), move |_| c.borrow_mut().push(3));
        let last = sim.hold(move |_| d.borrow_mut().push(4));
        let s = sim.clone();
        // Queued last, in reverse, from an event of the same quantum (so
        // into the heap, beside the wheel entry now in the run), yet run in
        // stamp order around it.
        sim.schedule_in(us(99), move |_| {
            let at = SimTime::ZERO + us(100);
            s.release(last, at);
            s.release(second, at);
            s.schedule_stamped(at, first, move |_| a.borrow_mut().push(1));
        });
        sim.run().expect_quiescent();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4]);
    }

    /// Arrivals into the quantum being drained keep `(time, stamp)` order
    /// whichever way they are filed: into a later sub-slot (merged into the
    /// run when the drain reaches it), into the current one (the heap), or
    /// released from a hold with a stamp older than the run's entries.
    #[test]
    fn drained_quantum_arrivals_keep_time_then_stamp_order() {
        let sim = Sim::new(0);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let base = 3 << QUANTUM_SHIFT;
        let at = move |ns: u64| SimTime(base + ns);
        let push = |label: u32| {
            let l = log.clone();
            move |_: &Sim| l.borrow_mut().push(label)
        };
        let held = sim.hold(push(4));
        for (ns, label) in [(100, 1), (5_000, 2), (20_000, 3)] {
            sim.schedule_at(at(ns), push(label));
        }
        let (s, p5, p6, p7, p8) = (sim.clone(), push(5), push(6), push(7), push(8));
        sim.schedule_at(at(100), move |_| {
            s.schedule_at(at(5_000), p5);
            s.schedule_at(at(20_000), p6);
            s.schedule_at(at(150), p7);
            s.schedule_at(at(30_000), p8);
            s.release(held, at(5_000));
        });
        sim.run().expect_quiescent();
        assert_eq!(*log.borrow(), [1, 7, 4, 2, 5, 3, 6, 8]);
        let q = sim.queue_stats();
        assert_eq!(q.mid_drain_arrivals, 5, "{q:?}");
        assert_eq!(q.heap_pushes, 1, "only 7 took the heap");
    }

    /// A dense drained quantum: hundreds of arrivals at scattered and tied
    /// times, most filed in sub-slots, run in exactly `(time, push order)`.
    #[test]
    fn a_dense_drained_quantum_runs_in_time_then_push_order() {
        let sim = Sim::new(0);
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::default();
        let base = 5u64 << QUANTUM_SHIFT;
        let (s, l) = (sim.clone(), log.clone());
        sim.schedule_at(SimTime(base + 10), move |_| {
            let mut x = 0x9E37_79B9_u64;
            for label in 0..600 {
                x = crate::faults::splitmix64(x);
                // Every 7th lands on one of a few shared instants.
                let ns = match label % 7 {
                    0 => 20_000 + (x % 4) * 512,
                    _ => 11 + x % ((1 << QUANTUM_SHIFT) - 11),
                };
                let l = l.clone();
                s.schedule_at(SimTime(base + ns), move |sim| {
                    l.borrow_mut().push((sim.now().as_nanos(), label))
                });
            }
        });
        sim.run().expect_quiescent();
        let got = log.borrow();
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(*got, sorted);
        assert_eq!(got.len(), 600);
        assert!(
            sim.queue_stats().heap_pushes < 100,
            "sub-slots took the arrivals"
        );
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let sim = Sim::new(0);
        let hit: Rc<RefCell<u32>> = Rc::default();
        let h = hit.clone();
        let id = sim.schedule_timer_in(us(10), move |_| *h.borrow_mut() += 1);
        assert!(sim.cancel_timer(id));
        assert!(!sim.cancel_timer(id), "double cancel is a no-op");
        let report = sim.run();
        assert_eq!(*hit.borrow(), 0);
        // The tombstone is skipped silently: no event executed.
        assert_eq!(report.events, 0);
    }

    #[test]
    fn fired_timer_id_goes_stale() {
        let sim = Sim::new(0);
        let hit: Rc<RefCell<u32>> = Rc::default();
        let h = hit.clone();
        let id = sim.schedule_timer_in(us(10), move |_| *h.borrow_mut() += 1);
        sim.run();
        assert_eq!(*hit.borrow(), 1);
        assert!(!sim.cancel_timer(id), "cancel after fire is a no-op");
        // Slab slot reuse must not resurrect the stale id.
        let h2 = hit.clone();
        let id2 = sim.schedule_timer_in(us(10), move |_| *h2.borrow_mut() += 10);
        assert_ne!(id, id2);
        assert!(!sim.cancel_timer(id));
        sim.run();
        assert_eq!(*hit.borrow(), 11);
    }

    #[test]
    fn cancel_reschedule_churn_is_correct() {
        // The moderation pattern: arm, cancel, re-arm many times; only the
        // last armed timer fires.
        let sim = Sim::new(0);
        let hits: Rc<RefCell<Vec<u32>>> = Rc::default();
        let mut last = None;
        for i in 0..100u32 {
            if let Some(id) = last.take() {
                sim.cancel_timer(id);
            }
            let h = hits.clone();
            last = Some(
                sim.schedule_timer_in(us(10 + (i % 7) as u64), move |_| h.borrow_mut().push(i)),
            );
        }
        sim.run().expect_quiescent();
        assert_eq!(*hits.borrow(), vec![99]);
    }

    thread_local! {
        /// Runs and drops of [`Capture`]s on this test thread.
        static RUNS: Cell<u32> = const { Cell::new(0) };
        static DROPS: Cell<u32> = const { Cell::new(0) };
    }

    /// `N` bytes of byte-aligned capture that count their drops, so a
    /// closure holding one is exactly `N` bytes.
    struct Capture<const N: usize>([u8; N]);

    impl<const N: usize> Drop for Capture<N> {
        fn drop(&mut self) {
            DROPS.set(DROPS.get() + 1);
        }
    }

    /// Capture whose alignment is past a cache line.
    #[repr(align(128))]
    struct OverAligned(u8);

    impl Drop for OverAligned {
        fn drop(&mut self) {
            DROPS.set(DROPS.get() + 1);
        }
    }

    fn sized<const N: usize>() -> impl FnOnce(&Sim) + 'static {
        let c = Capture([1; N]);
        let f = move |_: &Sim| {
            let c = c;
            RUNS.set(RUNS.get() + u32::from(c.0[N - 1]));
        };
        assert_eq!(std::mem::size_of_val(&f), N);
        f
    }

    fn over_aligned() -> impl FnOnce(&Sim) + 'static {
        let c = OverAligned(1);
        let f = move |_: &Sim| {
            let c = c;
            RUNS.set(RUNS.get() + u32::from(c.0));
        };
        assert_eq!(std::mem::align_of_val(&f), 128);
        f
    }

    /// One closure shape: how to make it, and the class (as
    /// [`QueueStats::slots_peak`] counts it) it must land in.
    fn run_dropped_cancelled_pending<F: FnOnce(&Sim) + 'static>(
        make: impl Fn() -> F,
        class: usize,
        what: &str,
    ) {
        let counts = || (RUNS.get(), DROPS.get());
        let mut peak = [0; 3];
        peak[class] = 1;
        let (runs, drops) = counts();
        let sim = Sim::new(0);
        sim.schedule_in(us(1), make());
        sim.run().expect_quiescent();
        assert_eq!(counts(), (runs + 1, drops + 1), "{what}: run");
        assert_eq!(sim.queue_stats().slots_peak, peak, "{what}: class");

        let sim = Sim::new(0);
        let id = sim.schedule_timer_in(us(1), make());
        assert!(sim.cancel_timer(id));
        sim.run().expect_quiescent();
        assert_eq!(counts(), (runs + 1, drops + 2), "{what}: cancelled");

        let sim = Sim::new(0);
        sim.schedule_in(us(1), make());
        drop(sim);
        assert_eq!(counts(), (runs + 1, drops + 3), "{what}: pending at drop");
    }

    #[test]
    fn pool_blocks_grow_from_a_page_and_never_move() {
        let mut pool: Pool<Chunk> = Pool::default();
        let vacant = || Chunk {
            entries: [Scheduled {
                time: SimTime::ZERO,
                seq: 0,
                timer: TimerId::NONE,
                what: What::Poll(TaskId(0)),
            }; CHUNK_ENTRIES],
            len: 0,
            next: NIL,
        };
        let ids: Vec<u32> = (0..3_000).map(|_| pool.take(vacant)).collect();
        let addrs: Vec<*const Chunk> = ids.iter().map(|&i| &raw const *pool.at(i)).collect();
        // A page of 256-byte chunks, then doubling to 512 per block.
        let caps: Vec<usize> = pool.blocks.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [16, 32, 64, 128, 256, 512, 512, 512, 512, 512]);
        for &i in ids.iter().rev().take(1_000) {
            pool.free.push(i);
        }
        for _ in 0..1_500 {
            pool.take(vacant);
        }
        assert_eq!(pool.peak(), 3_500, "released items are reused first");
        let stable = ids
            .iter()
            .zip(&addrs)
            .all(|(&i, &a)| std::ptr::eq(pool.at(i), a));
        assert!(stable, "an item moved when its pool grew");
    }

    #[test]
    fn closures_take_the_smallest_slot_class_at_its_edges() {
        // One line holds 56 B of closure, two 120 B, three 184 B; anything
        // larger or aligned past a line is boxed into a one-line slot.
        run_dropped_cancelled_pending(sized::<56>, 0, "56 B");
        run_dropped_cancelled_pending(sized::<57>, 1, "57 B");
        run_dropped_cancelled_pending(sized::<120>, 1, "120 B");
        run_dropped_cancelled_pending(sized::<121>, 2, "121 B");
        run_dropped_cancelled_pending(sized::<184>, 2, "184 B");
        run_dropped_cancelled_pending(sized::<185>, 0, "185 B, boxed");
        run_dropped_cancelled_pending(over_aligned, 0, "align 128, boxed");
    }

    #[test]
    fn advance_until_reaches_deadline_when_idle() {
        let sim = Sim::new(0);
        // No events at all: the clock must still reach the deadline.
        let end = sim.advance_until(SimTime::ZERO + ms(3), || false);
        assert_eq!(end, SimTime::ZERO + ms(3));
        assert_eq!(sim.now(), SimTime::ZERO + ms(3));
        // Events beyond the limit stay queued and the clock stops at the
        // new, later limit — not at the event.
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        sim.schedule_in(ms(10), move |_| *f.borrow_mut() = true);
        let end = sim.advance_until(SimTime::ZERO + ms(5), || false);
        assert_eq!(end, SimTime::ZERO + ms(5));
        assert!(!*fired.borrow());
        // A later advance past the event runs it.
        sim.advance_until(SimTime::ZERO + ms(20), || false);
        assert!(*fired.borrow());
        assert_eq!(sim.now(), SimTime::ZERO + ms(20));
    }

    #[test]
    fn advance_until_stops_early_on_predicate() {
        let sim = Sim::new(0);
        let hits: Rc<RefCell<Vec<u64>>> = Rc::default();
        for t in [1u64, 2, 3] {
            let h = hits.clone();
            sim.schedule_in(ms(t), move |s| h.borrow_mut().push(s.now().as_nanos()));
        }
        // Stop as soon as the first event has run: the clock must sit at
        // that event's time, with the later events still queued.
        let h = hits.clone();
        let end = sim.advance_until(SimTime::ZERO + ms(10), move || !h.borrow().is_empty());
        assert_eq!(end, SimTime::ZERO + ms(1));
        assert_eq!(hits.borrow().len(), 1);
        // Resuming without the predicate drains the rest and pins to limit.
        let end = sim.advance_until(SimTime::ZERO + ms(10), || false);
        assert_eq!(end, SimTime::ZERO + ms(10));
        assert_eq!(hits.borrow().len(), 3);
    }

    #[test]
    fn stale_wheel_hint_after_idle_gap_keeps_order() {
        // Wheel never touched before t=1s (heap event), so wheel_min_q
        // stays at its initial 0 while now jumps to 1s. The far event
        // then schedules two near events whose slot residues straddle
        // the stale hint phase.
        let sim = Sim::new(0);
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let l = log.clone();
        sim.schedule_at(SimTime::ZERO + ms(1000), move |sim| {
            let (a, b) = (l.clone(), l.clone());
            // X: 1us out -> small residue-distance in *time*, large residue.
            sim.schedule_in(us(1), move |s| a.borrow_mut().push(s.now().as_nanos()));
            // Y: ~73.8ms out -> later in time, but residue 0 (slot 0).
            let target_q = ((quantum(sim.now()) / WHEEL_SLOTS) + 1) * WHEEL_SLOTS;
            let delta_ns = (target_q << QUANTUM_SHIFT) - sim.now().as_nanos();
            sim.schedule_in(Dur(delta_ns), move |s| {
                b.borrow_mut().push(s.now().as_nanos())
            });
        });
        sim.run().expect_quiescent();
        let v = log.borrow().clone();
        assert_eq!(v.len(), 2);
        assert!(v[0] < v[1], "events ran out of order: {v:?}");
    }

    #[test]
    fn every_closure_is_dropped_exactly_once() {
        // Run, cancelled, and still queued when the simulator goes away:
        // each path must release the closure's captures once, in every
        // slot class and boxed.
        fn schedule<const PAD: usize>(sim: &Sim, token: &Rc<()>) {
            let pad = |t: Rc<()>| {
                let pad = [0u8; PAD];
                move |_: &Sim| drop((t, pad))
            };
            sim.schedule_in(us(1), pad(token.clone()));
            let id = sim.schedule_timer_in(us(2), pad(token.clone()));
            sim.cancel_timer(id);
            for far in [us(50), ms(300)] {
                sim.schedule_in(far, pad(token.clone()));
            }
        }
        let token = Rc::new(());
        let sim = Sim::new(0);
        schedule::<0>(&sim, &token);
        schedule::<100>(&sim, &token);
        schedule::<160>(&sim, &token);
        schedule::<400>(&sim, &token);
        assert_eq!(sim.queue_stats().slots_peak, [8, 4, 4]);
        assert_eq!(Rc::strong_count(&token), 17);
        sim.run_with_limit(Some(SimTime::ZERO + us(10)));
        assert_eq!(Rc::strong_count(&token), 9, "ran four, discarded four");
        drop(sim);
        assert_eq!(Rc::strong_count(&token), 1, "queued closures leaked");
    }

    /// What an event of a stamped-scheduling program does when it runs.
    #[derive(Debug, Clone, Copy)]
    enum Act {
        /// Schedule a new event this many ns from now.
        Spawn(u64),
        /// Hold a new event, its stamp taken now.
        Hold,
        /// Reserve a stamp for a new event.
        Reserve,
        /// Queue the oldest held or reserved event this many ns from now.
        Release(u64),
    }

    /// Events one program may create before spawns stop.
    const BUDGET: u64 = 3_000;

    /// `templates[id % len]` is what event `id` does; the `outside` acts
    /// run first, at time zero, after `beyond` events are scheduled
    /// past the wheel's horizon.
    #[derive(Debug, Clone)]
    struct StampedProgram {
        beyond: usize,
        outside: Vec<Act>,
        templates: Vec<Vec<Act>>,
    }

    /// An event created but not yet queued, in creation order.
    enum Pending {
        Held(Held),
        Stamp(OrderStamp, u64),
    }

    struct EngineWorld {
        templates: Vec<Vec<Act>>,
        next_id: Cell<u64>,
        pending: RefCell<std::collections::VecDeque<Pending>>,
        log: RefCell<Vec<(u64, u64)>>,
    }

    fn event(w: &Rc<EngineWorld>, id: u64) -> impl FnOnce(&Sim) + 'static {
        let w = w.clone();
        move |sim| {
            w.log.borrow_mut().push((sim.now().as_nanos(), id));
            for &act in &w.templates[id as usize % w.templates.len()] {
                engine_act(sim, &w, act);
            }
        }
    }

    fn engine_act(sim: &Sim, w: &Rc<EngineWorld>, act: Act) {
        let fresh = || {
            let id = w.next_id.get();
            w.next_id.set(id + 1);
            (id < BUDGET).then_some(id)
        };
        let at = |d: u64| sim.now() + Dur(d);
        match act {
            Act::Spawn(d) => {
                if let Some(id) = fresh() {
                    sim.schedule_at(at(d), event(w, id));
                }
            }
            Act::Hold => {
                if let Some(id) = fresh() {
                    let h = sim.hold(event(w, id));
                    w.pending.borrow_mut().push_back(Pending::Held(h));
                }
            }
            Act::Reserve => {
                if let Some(id) = fresh() {
                    let stamp = sim.reserve_order();
                    w.pending.borrow_mut().push_back(Pending::Stamp(stamp, id));
                }
            }
            Act::Release(d) => match w.pending.borrow_mut().pop_front() {
                Some(Pending::Held(h)) => sim.release(h, at(d)),
                Some(Pending::Stamp(stamp, id)) => sim.schedule_stamped(at(d), stamp, event(w, id)),
                None => {}
            },
        }
    }

    fn run_stamped_engine(p: &StampedProgram) -> Vec<(u64, u64)> {
        let sim = Sim::new(0);
        for _ in 0..p.beyond {
            sim.schedule_in(ms(200), |_| {});
        }
        let w = Rc::new(EngineWorld {
            templates: p.templates.clone(),
            next_id: Cell::new(0),
            pending: RefCell::default(),
            log: RefCell::default(),
        });
        for &act in &p.outside {
            engine_act(&sim, &w, act);
        }
        sim.run();
        w.log.take()
    }

    /// The same program on one binary heap of `(time, stamp, id)`: a stamp
    /// is the count of events and stamps taken before it.
    fn run_stamped_model(p: &StampedProgram) -> Vec<(u64, u64)> {
        let mut heap = BinaryHeap::new();
        let mut pending = std::collections::VecDeque::new();
        let (mut seq, mut next_id, mut now) = (p.beyond as u64, 0, 0);
        let mut log = Vec::new();
        let mut act = |a: Act, now: u64, heap: &mut BinaryHeap<_>| {
            let mut fresh = || {
                let id = next_id;
                next_id += 1;
                (id < BUDGET).then_some(id)
            };
            match a {
                Act::Spawn(d) => {
                    if let Some(id) = fresh() {
                        heap.push(std::cmp::Reverse((now + d, seq, id)));
                        seq += 1;
                    }
                }
                Act::Hold | Act::Reserve => {
                    if let Some(id) = fresh() {
                        pending.push_back((seq, id));
                        seq += 1;
                    }
                }
                Act::Release(d) => {
                    if let Some((stamp, id)) = pending.pop_front() {
                        heap.push(std::cmp::Reverse((now + d, stamp, id)));
                    }
                }
            }
        };
        for &a in &p.outside {
            act(a, now, &mut heap);
        }
        while let Some(std::cmp::Reverse((t, _, id))) = heap.pop() {
            now = t;
            log.push((now, id));
            for &a in &p.templates[id as usize % p.templates.len()] {
                act(a, now, &mut heap);
            }
        }
        log
    }

    /// Delays that tie on a sub-slot grid, land in the quantum being
    /// drained, or a few quanta out.
    fn arb_delay() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::prelude::*;
        let quantum = 1u64 << QUANTUM_SHIFT;
        prop_oneof![
            Just(0u64),
            (0u64..64).prop_map(|k| k << SUB_SHIFT),
            0..quantum,
            0..4 * quantum,
        ]
    }

    fn arb_act() -> impl proptest::strategy::Strategy<Value = Act> {
        use proptest::prelude::*;
        prop_oneof![
            arb_delay().prop_map(Act::Spawn),
            arb_delay().prop_map(Act::Spawn),
            Just(Act::Hold),
            Just(Act::Reserve),
            arb_delay().prop_map(Act::Release),
            arb_delay().prop_map(Act::Release),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Events scheduled, held and released, or queued under a reserved
        /// stamp — from outside or from events of the quantum being
        /// drained, with stamps older than the events around them — run
        /// exactly as one heap ordered by `(time, stamp)` runs them.
        #[test]
        fn stamped_scheduling_matches_a_heap(
            beyond in proptest::prop_oneof![proptest::strategy::Just(0usize), 0usize..64],
            outside in proptest::collection::vec(arb_act(), 1..24),
            templates in proptest::collection::vec(proptest::collection::vec(arb_act(), 0..5), 1..16),
        ) {
            let p = StampedProgram { beyond, outside, templates };
            proptest::prop_assert_eq!(run_stamped_engine(&p), run_stamped_model(&p));
        }
    }
}
