//! Futures and synchronization primitives for simulation tasks.
//!
//! All primitives are single-threaded (the executor never runs two tasks
//! concurrently) and integrate with the [`Sim`] event queue: blocking a task
//! costs no host resources, and waking is an ordinary simulator event.

use crate::engine::{Sim, TaskId};
use crate::time::{Dur, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

fn register(waiters: &mut Vec<TaskId>, task: TaskId) {
    if !waiters.contains(&task) {
        waiters.push(task);
    }
}

// ---------------------------------------------------------------------------
// Delay
// ---------------------------------------------------------------------------

/// Future that completes at an absolute virtual time. Created via
/// [`sleep`] / [`sleep_until`].
pub struct Delay {
    sim: Sim,
    deadline: SimTime,
    armed: bool,
}

/// Suspend the current task for `d` of virtual time.
pub fn sleep(sim: &Sim, d: Dur) -> Delay {
    sleep_until(sim, sim.now() + d)
}

/// Suspend the current task until the absolute instant `at`.
pub fn sleep_until(sim: &Sim, at: SimTime) -> Delay {
    Delay {
        sim: sim.clone(),
        deadline: at,
        armed: false,
    }
}

impl Future for Delay {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.armed {
            self.armed = true;
            let task = self.sim.current_task();
            self.sim.wake_task_at(task, self.deadline);
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Flag (one-shot event)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct FlagState {
    fired_at: Option<SimTime>,
    waiters: Vec<TaskId>,
}

/// One-shot event: any number of tasks can [`Flag::wait`]; a single
/// [`Flag::fire`] releases them all. Waiting on an already-fired flag
/// completes immediately.
#[derive(Clone)]
pub struct Flag {
    sim: Sim,
    st: Rc<RefCell<FlagState>>,
}

impl Flag {
    /// New unfired flag.
    pub fn new(sim: &Sim) -> Self {
        Self {
            sim: sim.clone(),
            st: Rc::default(),
        }
    }

    /// Fire the flag now, waking all waiters. Idempotent.
    pub fn fire(&self) {
        self.fire_at(self.sim.now());
    }

    /// Fire the flag, recording `at` as the instant it fired, and wake all
    /// waiters. Idempotent: only the first firing is recorded.
    pub fn fire_at(&self, at: SimTime) {
        let waiters = {
            let mut st = self.st.borrow_mut();
            if st.fired_at.is_some() {
                return;
            }
            st.fired_at = Some(at);
            std::mem::take(&mut st.waiters)
        };
        for t in waiters {
            self.sim.wake_task(t);
        }
    }

    /// Has the flag fired?
    pub fn is_fired(&self) -> bool {
        self.st.borrow().fired_at.is_some()
    }

    /// The instant the flag fired, if it has.
    pub fn fired_at(&self) -> Option<SimTime> {
        self.st.borrow().fired_at
    }

    /// Future resolving when the flag fires.
    pub fn wait(&self) -> FlagWait {
        FlagWait { flag: self.clone() }
    }
}

/// Future returned by [`Flag::wait`].
pub struct FlagWait {
    flag: Flag,
}

impl Future for FlagWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.flag.st.borrow_mut();
        if st.fired_at.is_some() {
            Poll::Ready(())
        } else {
            let task = self.flag.sim.current_task();
            register(&mut st.waiters, task);
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// JoinHandle
// ---------------------------------------------------------------------------

/// Handle to a spawned task; awaiting it yields the task's output.
pub struct JoinHandle<T> {
    cell: Rc<RefCell<Option<T>>>,
    flag: Flag,
}

impl<T> JoinHandle<T> {
    pub(crate) fn new(cell: Rc<RefCell<Option<T>>>, flag: Flag) -> Self {
        Self { cell, flag }
    }

    /// Has the task completed?
    pub fn is_done(&self) -> bool {
        self.flag.is_fired()
    }

    /// Take the output if the task has completed (once).
    pub fn try_take(&self) -> Option<T> {
        self.cell.borrow_mut().take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        if self.flag.is_fired() {
            Poll::Ready(
                self.cell
                    .borrow_mut()
                    .take()
                    .expect("JoinHandle polled after completion was consumed"),
            )
        } else {
            let mut st = self.flag.st.borrow_mut();
            let task = self.flag.sim.current_task();
            register(&mut st.waiters, task);
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// join_all
// ---------------------------------------------------------------------------

/// Future combinator awaiting a set of futures, yielding their outputs in
/// input order. Safe with this executor because every leaf future registers
/// the *enclosing* task, so any child's progress re-polls the whole set.
pub struct JoinAll<F: Future> {
    futs: Vec<Option<Pin<Box<F>>>>,
    outs: Vec<Option<F::Output>>,
    remaining: usize,
}

/// Await all futures; resolve with all outputs (input order).
pub fn join_all<F: Future>(futs: impl IntoIterator<Item = F>) -> JoinAll<F> {
    let futs: Vec<_> = futs.into_iter().map(|f| Some(Box::pin(f))).collect();
    let n = futs.len();
    JoinAll {
        outs: (0..n).map(|_| None).collect(),
        remaining: n,
        futs,
    }
}

// The child futures are heap-pinned (`Pin<Box<F>>`), so moving the `JoinAll`
// itself never moves pinned data.
impl<F: Future> Unpin for JoinAll<F> {}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<F::Output>> {
        // All fields are `Unpin` (`Vec`s), so `JoinAll` is `Unpin`.
        let this = self.get_mut();
        for i in 0..this.futs.len() {
            if let Some(f) = this.futs[i].as_mut() {
                if let Poll::Ready(v) = f.as_mut().poll(cx) {
                    this.outs[i] = Some(v);
                    this.futs[i] = None;
                    this.remaining -= 1;
                }
            }
        }
        if this.remaining == 0 {
            Poll::Ready(this.outs.iter_mut().map(|o| o.take().unwrap()).collect())
        } else {
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Channel (unbounded async queue)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ChannelState<T> {
    queue: VecDeque<T>,
    waiters: Vec<TaskId>,
    closed: bool,
}

/// Unbounded single-threaded async queue. Multiple producers and consumers
/// are allowed; items are delivered in FIFO order to whichever consumer
/// polls first after a push.
pub struct Channel<T> {
    sim: Sim,
    st: Rc<RefCell<ChannelState<T>>>,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Self {
            sim: self.sim.clone(),
            st: self.st.clone(),
        }
    }
}

impl<T> Channel<T> {
    /// New empty channel.
    pub fn new(sim: &Sim) -> Self {
        Self {
            sim: sim.clone(),
            st: Rc::new(RefCell::new(ChannelState {
                queue: VecDeque::new(),
                waiters: Vec::new(),
                closed: false,
            })),
        }
    }

    /// Push an item, waking all waiting consumers. Items pushed after
    /// [`Channel::close`] are silently dropped.
    pub fn push(&self, item: T) {
        let waiters = {
            let mut st = self.st.borrow_mut();
            if st.closed {
                return;
            }
            st.queue.push_back(item);
            std::mem::take(&mut st.waiters)
        };
        for t in waiters {
            self.sim.wake_task(t);
        }
    }

    /// Close the channel: queued items still drain, then [`Channel::pop`]
    /// resolves `None`. Idempotent.
    pub fn close(&self) {
        let waiters = {
            let mut st = self.st.borrow_mut();
            st.closed = true;
            std::mem::take(&mut st.waiters)
        };
        for t in waiters {
            self.sim.wake_task(t);
        }
    }

    /// Has the channel been closed?
    pub fn is_closed(&self) -> bool {
        self.st.borrow().closed
    }

    /// Pop without waiting.
    pub fn try_pop(&self) -> Option<T> {
        self.st.borrow_mut().queue.pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.st.borrow().queue.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Future resolving with the next item, or `None` once the channel is
    /// closed and drained.
    pub fn pop(&self) -> ChannelPop<T> {
        ChannelPop { ch: self.clone() }
    }
}

/// Future returned by [`Channel::pop`].
pub struct ChannelPop<T> {
    ch: Channel<T>,
}

impl<T> Future for ChannelPop<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut st = self.ch.st.borrow_mut();
        if let Some(v) = st.queue.pop_front() {
            Poll::Ready(Some(v))
        } else if st.closed {
            Poll::Ready(None)
        } else {
            let task = self.ch.sim.current_task();
            register(&mut st.waiters, task);
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

#[derive(Default)]
struct SemState {
    permits: usize,
    waiters: Vec<TaskId>,
}

/// Counting semaphore (used e.g. to bound outstanding operations).
#[derive(Clone)]
pub struct Semaphore {
    sim: Sim,
    st: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Semaphore with `permits` initial permits.
    pub fn new(sim: &Sim, permits: usize) -> Self {
        Self {
            sim: sim.clone(),
            st: Rc::new(RefCell::new(SemState {
                permits,
                waiters: Vec::new(),
            })),
        }
    }

    /// Return one permit, waking waiters.
    pub fn release(&self) {
        let waiters = {
            let mut st = self.st.borrow_mut();
            st.permits += 1;
            std::mem::take(&mut st.waiters)
        };
        for t in waiters {
            self.sim.wake_task(t);
        }
    }

    /// Future resolving once a permit is taken.
    pub fn acquire(&self) -> SemAcquire {
        SemAcquire { sem: self.clone() }
    }

    /// Currently available permits.
    pub fn permits(&self) -> usize {
        self.st.borrow().permits
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct SemAcquire {
    sem: Semaphore,
}

impl Future for SemAcquire {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.sem.st.borrow_mut();
        if st.permits > 0 {
            st.permits -= 1;
            Poll::Ready(())
        } else {
            let task = self.sem.sim.current_task();
            register(&mut st.waiters, task);
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new(0);
        let s = sim.clone();
        let h = sim.spawn("sleeper", async move {
            let t0 = s.now();
            sleep(&s, us(42)).await;
            (s.now() - t0).as_nanos()
        });
        sim.run().expect_quiescent();
        assert_eq!(h.try_take(), Some(42_000));
    }

    #[test]
    fn flag_releases_multiple_waiters() {
        let sim = Sim::new(0);
        let flag = Flag::new(&sim);
        let hits: Rc<RefCell<u32>> = Rc::default();
        for i in 0..3 {
            let (f, h) = (flag.clone(), hits.clone());
            sim.spawn(format!("w{i}"), async move {
                f.wait().await;
                *h.borrow_mut() += 1;
            });
        }
        let (f, s) = (flag.clone(), sim.clone());
        sim.spawn("firer", async move {
            sleep(&s, us(5)).await;
            f.fire();
        });
        sim.run().expect_quiescent();
        assert_eq!(*hits.borrow(), 3);
        assert_eq!(flag.fired_at(), Some(SimTime(5_000)));
    }

    #[test]
    fn flag_records_only_the_first_firing() {
        let sim = Sim::new(0);
        let flag = Flag::new(&sim);
        assert_eq!(flag.fired_at(), None);
        flag.fire_at(SimTime(7));
        flag.fire_at(SimTime(9));
        flag.fire();
        assert!(flag.is_fired());
        assert_eq!(flag.fired_at(), Some(SimTime(7)));
    }

    #[test]
    fn wait_on_fired_flag_is_immediate() {
        let sim = Sim::new(0);
        let flag = Flag::new(&sim);
        flag.fire();
        let f = flag.clone();
        let h = sim.spawn("w", async move {
            f.wait().await;
            1u32
        });
        let report = sim.run();
        report.expect_quiescent();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(h.try_take(), Some(1));
    }

    #[test]
    fn join_handle_returns_output() {
        let sim = Sim::new(0);
        let s = sim.clone();
        let inner = sim.spawn("inner", async move {
            sleep(&s, us(10)).await;
            7u32
        });
        let outer = sim.spawn("outer", async move { inner.await + 1 });
        sim.run().expect_quiescent();
        assert_eq!(outer.try_take(), Some(8));
    }

    #[test]
    fn join_all_collects_in_order() {
        let sim = Sim::new(0);
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let s = sim.clone();
            handles.push(sim.spawn(format!("t{i}"), async move {
                // Later-indexed tasks finish earlier.
                sleep(&s, us(40 - i * 10)).await;
                i
            }));
        }
        let joined = sim.spawn("join", async move { join_all(handles).await });
        sim.run().expect_quiescent();
        assert_eq!(joined.try_take(), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn channel_fifo_and_blocking() {
        let sim = Sim::new(0);
        let ch: Channel<u32> = Channel::new(&sim);
        let c = ch.clone();
        let consumer = sim.spawn("consumer", async move {
            let a = c.pop().await.unwrap();
            let b = c.pop().await.unwrap();
            (a, b)
        });
        let (c2, s) = (ch.clone(), sim.clone());
        sim.spawn("producer", async move {
            sleep(&s, us(1)).await;
            c2.push(10);
            sleep(&s, us(1)).await;
            c2.push(20);
        });
        sim.run().expect_quiescent();
        assert_eq!(consumer.try_take(), Some((10, 20)));
    }

    #[test]
    fn channel_close_drains_then_none() {
        let sim = Sim::new(0);
        let ch: Channel<u32> = Channel::new(&sim);
        ch.push(1);
        ch.close();
        ch.push(2); // dropped
        let c = ch.clone();
        let got = sim.spawn("c", async move {
            let a = c.pop().await;
            let b = c.pop().await;
            (a, b)
        });
        sim.run().expect_quiescent();
        assert_eq!(got.try_take(), Some((Some(1), None)));
    }

    #[test]
    fn channel_close_wakes_blocked_consumer() {
        let sim = Sim::new(0);
        let ch: Channel<u32> = Channel::new(&sim);
        let c = ch.clone();
        let got = sim.spawn("c", async move { c.pop().await });
        let c2 = ch.clone();
        let s = sim.clone();
        sim.spawn("closer", async move {
            sleep(&s, us(5)).await;
            c2.close();
        });
        sim.run().expect_quiescent();
        assert_eq!(got.try_take(), Some(None));
    }

    #[test]
    fn semaphore_bounds_concurrency() {
        let sim = Sim::new(0);
        let sem = Semaphore::new(&sim, 2);
        let active: Rc<RefCell<(u32, u32)>> = Rc::default(); // (current, max)
        for i in 0..5 {
            let (sm, a, s) = (sem.clone(), active.clone(), sim.clone());
            sim.spawn(format!("t{i}"), async move {
                sm.acquire().await;
                {
                    let mut g = a.borrow_mut();
                    g.0 += 1;
                    g.1 = g.1.max(g.0);
                }
                sleep(&s, us(10)).await;
                a.borrow_mut().0 -= 1;
                sm.release();
            });
        }
        sim.run().expect_quiescent();
        assert_eq!(active.borrow().1, 2);
    }

    #[test]
    fn deadlock_is_reported() {
        let sim = Sim::new(0);
        let flag = Flag::new(&sim);
        let f = flag.clone();
        sim.spawn("stuck-task", async move {
            f.wait().await; // nobody fires it
        });
        let report = sim.run();
        assert_eq!(report.stuck_tasks, vec!["stuck-task".to_string()]);
    }
}
