//! Operation handles and completion notifications.
//!
//! Every RDMA operation returns an [`OpHandle`] the application can poll or
//! await (§2.2: "Each operation can also, when initiated, return a handle.
//! The programmer can query the progress of each issued operation").
//!
//! A remote **write** completes locally once every frame of the operation has
//! been positively acknowledged (so local buffers may be reused and ordering
//! with subsequent control messages can be enforced by completion-waiting,
//! the idiom the DSM uses). A remote **read** completes once all response
//! data has been applied to local memory.

use netsim::sync::{Flag, FlagWait};
use netsim::{Sim, SimTime};

/// Kind of RDMA operation (§2.2 defines remote read and remote write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Remote memory write.
    Write,
    /// Remote memory read.
    Read,
}

/// Options for an RDMA operation (the `flags` bit-field of the paper's
/// `RDMA_operation` call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpFlags {
    /// Backward fence: perform this operation at the destination only after
    /// all previously issued operations to the same destination (§2.5).
    pub fence_backward: bool,
    /// Forward fence: later operations to the same destination are performed
    /// only after this one (§2.5).
    pub fence_forward: bool,
    /// Deliver a notification at the remote node when this remote write has
    /// fully completed there (§2.2).
    pub notify: bool,
}

impl OpFlags {
    /// No fences, no notification (the default: free reordering).
    pub const RELAXED: OpFlags = OpFlags {
        fence_backward: false,
        fence_forward: false,
        notify: false,
    };

    /// Both fences: fully ordered with respect to every other operation.
    pub const ORDERED: OpFlags = OpFlags {
        fence_backward: true,
        fence_forward: true,
        notify: false,
    };

    /// Ordered + notify: the idiom for control messages (mailbox writes).
    pub const ORDERED_NOTIFY: OpFlags = OpFlags {
        fence_backward: true,
        fence_forward: true,
        notify: true,
    };

    /// With the notify bit set.
    pub fn with_notify(mut self) -> Self {
        self.notify = true;
        self
    }

    /// With the backward fence set.
    pub fn with_fence_backward(mut self) -> Self {
        self.fence_backward = true;
        self
    }

    /// With the forward fence set.
    pub fn with_fence_forward(mut self) -> Self {
        self.fence_forward = true;
        self
    }
}

/// Handle to an in-flight RDMA operation. One allocation: the completion
/// flag, which also records when the operation completed.
#[derive(Clone)]
pub struct OpHandle {
    kind: OpKind,
    len: usize,
    issued_at: SimTime,
    flag: Flag,
}

impl OpHandle {
    /// New incomplete handle (protocol-internal).
    pub(crate) fn new(sim: &Sim, kind: OpKind, len: usize) -> Self {
        Self {
            kind,
            len,
            issued_at: sim.now(),
            flag: Flag::new(sim),
        }
    }

    /// Mark complete at `now` (protocol-internal). Only the first
    /// completion counts.
    pub(crate) fn complete(&self, now: SimTime) {
        self.flag.fire_at(now);
    }

    /// Operation kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Operation payload length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length operations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Non-blocking completion test (the paper's progress-query primitive).
    pub fn is_done(&self) -> bool {
        self.flag.is_fired()
    }

    /// Await completion.
    pub fn wait(&self) -> FlagWait {
        self.flag.wait()
    }

    /// Virtual time from issue to completion, if complete.
    pub fn latency(&self) -> Option<netsim::Dur> {
        self.flag.fired_at().map(|c| c.since(self.issued_at))
    }
}

/// Completion notification delivered to the *target* of a remote write whose
/// initiator set [`OpFlags::notify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Node that issued the write.
    pub from_node: usize,
    /// First byte written.
    pub addr: u64,
    /// Bytes written.
    pub len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_completes_once() {
        let sim = Sim::new(0);
        let h = OpHandle::new(&sim, OpKind::Write, 128);
        assert!(!h.is_done());
        assert_eq!(h.latency(), None);
        h.complete(SimTime(5_000));
        assert!(h.is_done());
        assert_eq!(h.latency(), Some(netsim::time::us(5)));
        // Second completion is ignored.
        h.complete(SimTime(9_000));
        assert_eq!(h.latency(), Some(netsim::time::us(5)));
    }

    #[test]
    fn wait_unblocks_on_complete() {
        let sim = Sim::new(0);
        let h = OpHandle::new(&sim, OpKind::Read, 64);
        let h2 = h.clone();
        let s = sim.clone();
        let t = sim.spawn("waiter", async move {
            h2.wait().await;
            s.now()
        });
        let h3 = h.clone();
        sim.schedule_in(netsim::time::us(10), move |sim| h3.complete(sim.now()));
        sim.run().expect_quiescent();
        assert_eq!(t.try_take(), Some(SimTime(10_000)));
    }

    #[test]
    fn flag_builders_compose() {
        let f = OpFlags::RELAXED.with_notify().with_fence_forward();
        assert!(f.notify && f.fence_forward && !f.fence_backward);
        const { assert!(OpFlags::ORDERED.fence_backward && OpFlags::ORDERED.fence_forward) }
        const { assert!(OpFlags::ORDERED_NOTIFY.notify) }
    }
}
