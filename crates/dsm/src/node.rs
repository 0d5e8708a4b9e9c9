//! The per-node DSM engine.
//!
//! Home-based lazy release consistency in the GeNIMA style:
//!
//! * Pages have static homes (block-cyclic). The home's copy is the master;
//!   it lives in the home's application memory at the page's own address.
//! * A read miss RDMA-**reads** the page from the home (no home-side
//!   software involvement — exactly the property GeNIMA buys from NIC
//!   remote operations).
//! * A write miss additionally snapshots a **twin**. At a release the twin
//!   vs. current **diff runs** are RDMA-**written** to the home; the release
//!   only proceeds once all diffs are acknowledged (applied).
//! * **Write notices** (dirty page ranges) ride on lock transfers and
//!   barrier traffic; acquirers invalidate noticed pages.
//! * Locks and barriers are built purely from ordered remote writes with
//!   notifications into per-sender mailbox rings; a per-node *service task*
//!   dispatches them. There is no asynchronous protocol processing beyond
//!   that task, mirroring GeNIMA's design goal.

use crate::diff::{diff_bytes, diff_runs};
use crate::layout::{self, home_of, is_mailbox, mailbox_slot, page_addr, pages_covering};
use crate::msg::{merge_pages, union_ranges, CtlMsg, PageRange};
use crate::stats::DsmStats;
use frame::FastMap;
use multiedge::{Endpoint, OpFlags, PAGE_SIZE};
use netsim::sync::Flag;
use netsim::time::Dur;
use netsim::Sim;
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// State of one cached (non-home) page.
#[derive(Debug, Default)]
struct PageMeta {
    valid: bool,
    dirty: bool,
    twin: Option<Vec<u8>>,
}

/// Lock-manager state (lives on the lock's home node).
#[derive(Debug, Default)]
struct LockMgr {
    held_by: Option<usize>,
    queue: VecDeque<usize>,
    /// Per page: serial of the latest release that dirtied it.
    page_serials: FastMap<u64, u64>,
    serial: u64,
    /// Per node: serial as of its latest grant.
    last_seen: FastMap<usize, u64>,
}

impl LockMgr {
    /// Notices a grantee must invalidate: pages dirtied by releases it has
    /// not observed.
    fn grant_notices(&mut self, to: usize) -> Vec<PageRange> {
        let seen = self.last_seen.get(&to).copied().unwrap_or(0);
        let mut pages: Vec<u64> = self
            .page_serials
            .iter()
            .filter(|&(_, &s)| s > seen)
            .map(|(&p, _)| p)
            .collect();
        pages.sort_unstable();
        self.last_seen.insert(to, self.serial);
        merge_pages(pages)
    }
}

/// Barrier-manager state (lives on the barrier's home node).
#[derive(Debug, Default)]
struct BarrierMgr {
    epoch: u64,
    arrived: Vec<(usize, Vec<PageRange>)>,
}

/// A local wait for a grant or barrier release, carrying the notices the
/// waiting task must apply once woken.
struct Wait {
    flag: Flag,
    notices: Vec<PageRange>,
}

struct NodeInner {
    id: usize,
    nnodes: usize,
    /// Per-page home overrides (set at allocation time by the cluster);
    /// pages not present fall back to block-cyclic placement.
    homes: Rc<RefCell<FastMap<u64, u16>>>,
    /// `conns[peer]` is the connection id toward `peer`.
    conns: Vec<Option<usize>>,
    pages: FastMap<u64, PageMeta>,
    /// Home-owned pages dirtied locally (master updated in place; only the
    /// notices matter).
    home_dirty: BTreeSet<u64>,
    /// All pages dirtied since the last barrier (feeds barrier notices).
    notices_acc: BTreeSet<u64>,
    lock_waits: FastMap<u32, Wait>,
    lock_mgrs: FastMap<u32, LockMgr>,
    barrier_mgrs: FastMap<u32, BarrierMgr>,
    barrier_waits: FastMap<(u32, u64), Wait>,
    /// Local view of each barrier's next epoch.
    barrier_epochs: FastMap<u32, u64>,
    /// Outgoing mailbox ring cursors, per destination.
    ring: Vec<u64>,
    stats: DsmStats,
}

/// Handle to one node's DSM engine. Cheap to clone.
#[derive(Clone)]
pub struct DsmNode {
    sim: Sim,
    ep: Endpoint,
    inner: Rc<RefCell<NodeInner>>,
}

impl DsmNode {
    /// Wrap `ep` (node `id` of `nnodes`) as a DSM node. `conns[peer]` must
    /// hold the MultiEdge connection toward each peer.
    pub fn new(
        sim: &Sim,
        ep: Endpoint,
        id: usize,
        nnodes: usize,
        conns: Vec<Option<usize>>,
        homes: Rc<RefCell<FastMap<u64, u16>>>,
    ) -> Self {
        Self {
            sim: sim.clone(),
            ep,
            inner: Rc::new(RefCell::new(NodeInner {
                id,
                nnodes,
                homes,
                conns,
                pages: FastMap::default(),
                home_dirty: BTreeSet::new(),
                notices_acc: BTreeSet::new(),
                lock_waits: FastMap::default(),
                lock_mgrs: FastMap::default(),
                barrier_mgrs: FastMap::default(),
                barrier_waits: FastMap::default(),
                barrier_epochs: FastMap::default(),
                ring: vec![0; nnodes],
                stats: DsmStats::default(),
            })),
        }
    }

    /// This node's rank.
    pub fn id(&self) -> usize {
        self.inner.borrow().id
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.inner.borrow().nnodes
    }

    /// The simulator handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The underlying MultiEdge endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// DSM statistics snapshot.
    pub fn stats(&self) -> DsmStats {
        self.inner.borrow().stats
    }

    /// Model `d` of application computation: virtual time advances and the
    /// application CPU is accounted busy.
    pub async fn compute(&self, d: Dur) {
        self.ep.charge_app(d);
        self.inner.borrow_mut().stats.compute_ns += d.as_nanos();
        netsim::sync::sleep(&self.sim, d).await;
    }

    /// Home node of `page`: allocation-time placement if set, else
    /// block-cyclic fallback.
    pub fn home(&self, page: u64) -> usize {
        let inner = self.inner.borrow();
        if let Some(&h) = inner.homes.borrow().get(&page) {
            return h as usize;
        }
        home_of(page, inner.nnodes)
    }

    // ------------------------------------------------------------------
    // Shared-memory access
    // ------------------------------------------------------------------

    /// Batched prefetch: fault in every page covering any of `ranges`,
    /// issuing all fetches before waiting (one pipelined burst instead of
    /// one round trip per range).
    pub async fn fetch_ranges(&self, ranges: &[(u64, usize)]) {
        let t0 = self.sim.now();
        let mut handles = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for &(addr, len) in ranges {
            for page in pages_covering(addr, len) {
                if !seen.insert(page) {
                    continue;
                }
                let is_home = self.home(page) == self.id();
                let valid = is_home
                    || self
                        .inner
                        .borrow()
                        .pages
                        .get(&page)
                        .map(|m| m.valid)
                        .unwrap_or(false);
                if is_home || valid {
                    continue;
                }
                let home = self.home(page);
                let conn = self.conn_to(home);
                let a = page_addr(page);
                let h = self.ep.read(conn, a, a, PAGE_SIZE, OpFlags::RELAXED).await;
                self.inner.borrow_mut().stats.page_fetches += 1;
                handles.push((page, h));
            }
        }
        if handles.is_empty() {
            return;
        }
        for (page, h) in handles {
            h.wait().await;
            let mut inner = self.inner.borrow_mut();
            inner.pages.entry(page).or_default().valid = true;
        }
        let dt = self.sim.now().since(t0);
        self.inner.borrow_mut().stats.data_wait_ns += dt.as_nanos();
    }

    /// Ensure every page covering `[addr, addr+len)` is locally valid,
    /// fetching missing pages from their homes in parallel.
    pub async fn fetch_range(&self, addr: u64, len: usize) {
        let t0 = self.sim.now();
        let mut handles = Vec::new();
        {
            let pages = pages_covering(addr, len);
            for page in pages {
                let is_home = self.home(page) == self.id();
                let valid = is_home
                    || self
                        .inner
                        .borrow()
                        .pages
                        .get(&page)
                        .map(|m| m.valid)
                        .unwrap_or(false);
                if is_home || valid {
                    continue;
                }
                let home = self.home(page);
                let conn = self.conn_to(home);
                let a = page_addr(page);
                let h = self.ep.read(conn, a, a, PAGE_SIZE, OpFlags::RELAXED).await;
                self.inner.borrow_mut().stats.page_fetches += 1;
                handles.push((page, h));
            }
        }
        if handles.is_empty() {
            return;
        }
        for (page, h) in handles {
            h.wait().await;
            let mut inner = self.inner.borrow_mut();
            let meta = inner.pages.entry(page).or_default();
            meta.valid = true;
        }
        let dt = self.sim.now().since(t0);
        self.inner.borrow_mut().stats.data_wait_ns += dt.as_nanos();
    }

    /// Read shared memory (fetching pages as needed).
    pub async fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        self.fetch_range(addr, len).await;
        self.ep.mem_read(addr, len)
    }

    /// Write shared memory: write-faults fetch the page and snapshot a twin
    /// so an exact diff can be flushed at the next release.
    pub async fn write_bytes(&self, addr: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.fetch_range(addr, data.len()).await;
        {
            for page in pages_covering(addr, data.len()) {
                let is_home = self.home(page) == self.id();
                let mut inner = self.inner.borrow_mut();
                inner.notices_acc.insert(page);
                if is_home {
                    inner.home_dirty.insert(page);
                } else {
                    let meta = inner.pages.entry(page).or_default();
                    debug_assert!(meta.valid, "write fault must have fetched");
                    meta.dirty = true;
                    if meta.twin.is_none() {
                        // Endpoint memory lives behind its own RefCell, so
                        // snapshotting here is safe.
                        meta.twin = Some(self.ep.mem_read(page_addr(page), PAGE_SIZE));
                    }
                }
            }
        }
        self.ep.mem_write(addr, data);
    }

    // ------------------------------------------------------------------
    // Release / acquire machinery
    // ------------------------------------------------------------------

    /// Flush all dirty pages' diffs to their homes; returns the released
    /// page set (merged ranges) for use as write notices.
    pub async fn flush_dirty(&self) -> Vec<PageRange> {
        let mut dirty_pages: Vec<u64> = {
            let inner = self.inner.borrow();
            inner
                .pages
                .iter()
                .filter(|(_, m)| m.dirty)
                .map(|(&p, _)| p)
                .collect()
        };
        // Flush in page order, not hash order: same seed, same run.
        dirty_pages.sort_unstable();
        let mut released: Vec<u64> = dirty_pages.clone();
        let mut handles = Vec::new();
        for page in dirty_pages {
            let twin = {
                let mut inner = self.inner.borrow_mut();
                let meta = inner.pages.get_mut(&page).expect("dirty page");
                meta.dirty = false;
                meta.twin.take().expect("dirty page has twin")
            };
            let current = self.ep.mem_read(page_addr(page), PAGE_SIZE);
            let runs = diff_runs(&twin, &current);
            let home = self.home(page);
            let conn = self.conn_to(home);
            {
                let mut inner = self.inner.borrow_mut();
                inner.stats.diff_ops += runs.len() as u64;
                inner.stats.diff_bytes += diff_bytes(&runs) as u64;
            }
            for run in runs {
                let a = page_addr(page) + run.offset as u64;
                let h = self.ep.write(conn, a, a, run.len, OpFlags::RELAXED).await;
                handles.push(h);
            }
        }
        // Home-owned dirty pages: master already updated in place; only the
        // notices matter.
        released.extend(std::mem::take(&mut self.inner.borrow_mut().home_dirty));
        for h in handles {
            h.wait().await;
        }
        released.sort_unstable();
        released.dedup();
        merge_pages(released)
    }

    /// Flush one page's diff if dirty (used when an invalidation hits a
    /// locally dirty page — only possible under application races or
    /// cross-lock false sharing).
    async fn flush_one(&self, page: u64) {
        let twin = {
            let mut inner = self.inner.borrow_mut();
            match inner.pages.get_mut(&page) {
                Some(m) if m.dirty => {
                    m.dirty = false;
                    m.twin.take()
                }
                _ => None,
            }
        };
        let Some(twin) = twin else { return };
        let current = self.ep.mem_read(page_addr(page), PAGE_SIZE);
        let runs = diff_runs(&twin, &current);
        let conn = self.conn_to(self.home(page));
        let mut handles = Vec::new();
        for run in runs {
            let a = page_addr(page) + run.offset as u64;
            handles.push(self.ep.write(conn, a, a, run.len, OpFlags::RELAXED).await);
        }
        for h in handles {
            h.wait().await;
        }
    }

    /// Invalidate noticed pages (the acquire side of LRC).
    async fn invalidate(&self, notices: &[PageRange]) {
        for r in notices {
            for page in r.start..r.start + r.count as u64 {
                let is_home = self.home(page) == self.id();
                let (present, dirty) = {
                    let inner = self.inner.borrow();
                    match inner.pages.get(&page) {
                        Some(m) => (true, m.dirty),
                        None => (false, false),
                    }
                };
                if is_home || !present {
                    continue;
                }
                if dirty {
                    self.flush_one(page).await;
                }
                let mut inner = self.inner.borrow_mut();
                let mut was_valid = false;
                if let Some(m) = inner.pages.get_mut(&page) {
                    was_valid = m.valid;
                    m.valid = false;
                    m.twin = None;
                    m.dirty = false;
                }
                if was_valid {
                    inner.stats.invalidations += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Locks
    // ------------------------------------------------------------------

    fn lock_manager(&self, lock: u32) -> usize {
        (lock as usize) % self.inner.borrow().nnodes
    }

    /// Acquire lock `lock` (GeNIMA-style: request to the manager, grant
    /// carries write notices to invalidate).
    pub async fn lock(&self, lock: u32) {
        let t0 = self.sim.now();
        let flag = Flag::new(&self.sim);
        {
            let mut inner = self.inner.borrow_mut();
            let prev = inner.lock_waits.insert(
                lock,
                Wait {
                    flag: flag.clone(),
                    notices: Vec::new(),
                },
            );
            assert!(prev.is_none(), "double acquire of lock {lock} on one node");
        }
        let mgr = self.lock_manager(lock);
        self.deliver(mgr, CtlMsg::LockRequest { lock }).await;
        flag.wait().await;
        let notices = {
            let mut inner = self.inner.borrow_mut();
            inner
                .lock_waits
                .remove(&lock)
                .expect("wait present")
                .notices
        };
        self.invalidate(&notices).await;
        let mut inner = self.inner.borrow_mut();
        inner.stats.lock_acquires += 1;
        inner.stats.sync_ns += self.sim.now().since(t0).as_nanos();
    }

    /// Release lock `lock`: flush diffs, then hand the notices to the
    /// manager.
    pub async fn unlock(&self, lock: u32) {
        let t0 = self.sim.now();
        let notices = self.flush_dirty().await;
        let mgr = self.lock_manager(lock);
        self.deliver(mgr, CtlMsg::LockRelease { lock, notices })
            .await;
        let mut inner = self.inner.borrow_mut();
        inner.stats.sync_ns += self.sim.now().since(t0).as_nanos();
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    fn barrier_manager(&self, barrier: u32) -> usize {
        (barrier as usize) % self.inner.borrow().nnodes
    }

    /// Global barrier `barrier`: flush diffs, exchange write notices through
    /// the manager, invalidate what others dirtied.
    pub async fn barrier(&self, barrier: u32) {
        let t0 = self.sim.now();
        let flushed = self.flush_dirty().await;
        let _ = flushed; // accumulated in notices_acc already
        let (epoch, notices, flag) = {
            let mut inner = self.inner.borrow_mut();
            let epoch = *inner.barrier_epochs.entry(barrier).or_insert(0);
            inner.barrier_epochs.insert(barrier, epoch + 1);
            let pages: Vec<u64> = std::mem::take(&mut inner.notices_acc).into_iter().collect();
            let notices = merge_pages(pages);
            let flag = Flag::new(&self.sim);
            inner.barrier_waits.insert(
                (barrier, epoch),
                Wait {
                    flag: flag.clone(),
                    notices: Vec::new(),
                },
            );
            (epoch, notices, flag)
        };
        let mgr = self.barrier_manager(barrier);
        self.deliver(
            mgr,
            CtlMsg::BarrierArrive {
                barrier,
                epoch,
                notices,
            },
        )
        .await;
        flag.wait().await;
        let notices = {
            let mut inner = self.inner.borrow_mut();
            inner
                .barrier_waits
                .remove(&(barrier, epoch))
                .expect("barrier wait")
                .notices
        };
        self.invalidate(&notices).await;
        let mut inner = self.inner.borrow_mut();
        inner.stats.barriers += 1;
        inner.stats.sync_ns += self.sim.now().since(t0).as_nanos();
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    fn conn_to(&self, peer: usize) -> usize {
        self.inner.borrow().conns[peer].expect("connection to peer")
    }

    /// Run a message addressed to this node through the state machine,
    /// following any self-addressed outputs locally and sending the rest
    /// over the wire.
    pub async fn process_local(&self, from: usize, msg: CtlMsg) {
        let me = self.id();
        let mut inbox: VecDeque<(usize, CtlMsg)> = VecDeque::new();
        inbox.push_back((from, msg));
        while let Some((f, m)) = inbox.pop_front() {
            for (to, out) in self.handle_ctl(f, m) {
                if to == me {
                    inbox.push_back((me, out));
                } else {
                    self.send_ctl(to, out).await;
                }
            }
        }
    }

    /// Application-side send: short-circuits self-addressed messages.
    async fn deliver(&self, to: usize, msg: CtlMsg) {
        if to == self.id() {
            self.process_local(self.id(), msg).await;
        } else {
            self.send_ctl(to, msg).await;
        }
    }

    /// Pure control-message state machine; returns messages to send.
    fn handle_ctl(&self, from: usize, msg: CtlMsg) -> Vec<(usize, CtlMsg)> {
        let mut out = Vec::new();
        let mut inner = self.inner.borrow_mut();
        match msg {
            CtlMsg::LockRequest { lock } => {
                let mgr = inner.lock_mgrs.entry(lock).or_default();
                if mgr.held_by.is_none() {
                    mgr.held_by = Some(from);
                    let notices = mgr.grant_notices(from);
                    out.push((from, CtlMsg::LockGrant { lock, notices }));
                } else {
                    mgr.queue.push_back(from);
                }
            }
            CtlMsg::LockGrant { lock, notices } => {
                let w = inner
                    .lock_waits
                    .get_mut(&lock)
                    .expect("grant without a pending acquire");
                w.notices = notices;
                w.flag.fire();
            }
            CtlMsg::LockRelease { lock, notices } => {
                let mgr = inner.lock_mgrs.entry(lock).or_default();
                debug_assert_eq!(mgr.held_by, Some(from), "release by non-holder");
                mgr.serial += 1;
                let s = mgr.serial;
                for page in crate::msg::expand_ranges(&notices) {
                    mgr.page_serials.insert(page, s);
                }
                mgr.held_by = None;
                if let Some(next) = mgr.queue.pop_front() {
                    mgr.held_by = Some(next);
                    let notices = mgr.grant_notices(next);
                    out.push((next, CtlMsg::LockGrant { lock, notices }));
                }
            }
            CtlMsg::BarrierArrive {
                barrier,
                epoch,
                notices,
            } => {
                let nnodes = inner.nnodes;
                let mgr = inner.barrier_mgrs.entry(barrier).or_default();
                debug_assert_eq!(epoch, mgr.epoch, "barrier epoch skew");
                mgr.arrived.push((from, notices));
                if mgr.arrived.len() == nnodes {
                    let arrived = std::mem::take(&mut mgr.arrived);
                    mgr.epoch += 1;
                    for &(node, _) in &arrived {
                        let others: Vec<&[PageRange]> = arrived
                            .iter()
                            .filter(|(n, _)| *n != node)
                            .map(|(_, r)| r.as_slice())
                            .collect();
                        let union = union_ranges(&others);
                        out.push((
                            node,
                            CtlMsg::BarrierRelease {
                                barrier,
                                epoch,
                                notices: union,
                            },
                        ));
                    }
                }
            }
            CtlMsg::BarrierRelease {
                barrier,
                epoch,
                notices,
            } => {
                let w = inner
                    .barrier_waits
                    .get_mut(&(barrier, epoch))
                    .expect("release without a pending barrier wait");
                w.notices = notices;
                w.flag.fire();
            }
        }
        out
    }

    /// Send a control message over the wire: ordered remote write with
    /// notification into the peer's mailbox ring.
    async fn send_ctl(&self, to: usize, msg: CtlMsg) {
        let (conn, slot) = {
            let mut inner = self.inner.borrow_mut();
            let me = inner.id;
            let counter = inner.ring[to];
            inner.ring[to] += 1;
            inner.stats.ctl_msgs += 1;
            (
                inner.conns[to].expect("connection to peer"),
                mailbox_slot(me, counter),
            )
        };
        let bytes = msg.encode();
        let h = self
            .ep
            .write_bytes(conn, slot, bytes, OpFlags::ORDERED_NOTIFY)
            .await;
        // Fire-and-forget: delivery order is guaranteed by the fences and
        // reliability by the transport. (The handle is dropped; completion
        // is not interesting to the sender.)
        let _ = h;
    }

    /// The per-node service loop: dispatch mailbox notifications until the
    /// endpoint's notification channel is closed.
    pub async fn service_loop(&self) {
        while let Some(n) = self.ep.next_notification().await {
            if !is_mailbox(n.addr) {
                continue; // application-level notification, not ours
            }
            let bytes = self.ep.mem_read(n.addr, n.len);
            match CtlMsg::decode(&bytes) {
                Some(msg) => self.process_local(n.from_node, msg).await,
                None => debug_assert!(false, "undecodable control message"),
            }
        }
    }

    /// Page number containing `addr` (helper re-export).
    pub fn page_of(addr: u64) -> u64 {
        layout::page_of(addr)
    }
}
