//! Fixed-capacity wraparound buffer of the most recent events.

use crate::event::Event;

/// Ring buffer keeping the latest `capacity` [`Event`]s in arrival order.
///
/// Tracing a long run must not grow memory without bound, so once full the
/// ring overwrites its oldest entry and counts the overwrite — reports can
/// then say "timeline truncated, N earlier events dropped" instead of
/// silently lying about coverage.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    overwritten: u64,
}

impl EventRing {
    /// Ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: Vec::with_capacity(capacity.clamp(1, 1 << 20)),
            capacity: capacity.max(1),
            head: 0,
            overwritten: 0,
        }
    }

    /// Append an event, overwriting the oldest once full.
    pub fn push(&mut self, e: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were overwritten after the ring filled.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The held events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: u64) -> Event {
        Event {
            t_ns: t,
            node: 0,
            conn: None,
            rail: None,
            kind: EventKind::TxPoll,
        }
    }

    #[test]
    fn keeps_latest_in_order_after_wrap() {
        let mut r = EventRing::new(4);
        for t in 0..10u64 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 6);
        let ts: Vec<u64> = r.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn below_capacity_keeps_everything() {
        let mut r = EventRing::new(8);
        for t in 0..5u64 {
            r.push(ev(t));
        }
        assert_eq!(r.overwritten(), 0);
        let ts: Vec<u64> = r.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4]);
    }
}
