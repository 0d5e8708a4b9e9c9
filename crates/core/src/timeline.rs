//! Time-resolved telemetry of the protocol's live state, written once.
//!
//! A [`CoreSampler`] is a [`me_trace::Timeline`] with one column set, the
//! same on every runtime: every monotone [`ProtoStats`] counter
//! ([`ProtoStats::monotone_counters`]), the two endpoint-local counters
//! (`rx_rejected`, `storm_suppressed`), the watchdog's `progress_token` and
//! its age, and the dynamic state the aggregates cannot show, aggregated
//! over all of the node's connections — send-window occupancy, live rails,
//! RTO and its backoff, fence-held fragments, per-rail health and transmit
//! backlog. [`ProtoCore::sample`] fills one row and, when a
//! [`HealthMonitor`] is attached, runs the detectors on it and raises the
//! flight recorder's `Anomaly` trigger for a newly opened incident. Every
//! reading lands in storage preallocated at start, so sampling adds no
//! allocations to the datapath (the telemetry bench gates this).
//!
//! A driver owns only the *when*. [`WireEndpoint`](crate::WireEndpoint)
//! checks the due grid in its `poll`. [`Endpoint::start_timeline`] arms a
//! self-rescheduling simulator event whose closure is stored in place in
//! one of the engine's closure slots; it disarms itself once the simulation has no live
//! tasks left, so an armed sampler never prevents [`netsim::Sim::run`] from
//! quiescing, and [`EndpointSampler::finish`] then takes one final row so
//! the summed per-interval deltas reconcile *exactly* with the endpoint's
//! end-of-run [`ProtoStats`].

use crate::endpoint::Endpoint;
use crate::proto::{Host, ProtoCore};
use crate::railhealth::RailState;
use crate::stats::ProtoStats;
use me_trace::{
    EventKind, HealthConfig, HealthMonitor, HealthReport, SourceId, Timeline, TimelineBuilder,
};
use netsim::{Dur, Sim};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Stable gauge encoding of a rail's health state, for timeline rows.
pub fn rail_state_code(s: RailState) -> u64 {
    match s {
        RailState::Healthy => 0,
        RailState::Degraded => 1,
        RailState::Dead => 2,
        RailState::Probing => 3,
    }
}

/// The sample ring of one node's protocol instance, its source handles,
/// the progress-token tracker behind `token_age_ns`, and the optional
/// streaming health monitor (see the module docs for the column set).
/// Built by [`ProtoCore::start_sampler`], filled by [`ProtoCore::sample`].
pub struct CoreSampler {
    tl: Timeline,
    /// Connection a newly opened incident's `anomaly` event is attributed to.
    conn: Option<usize>,
    /// The monotone [`ProtoStats`] counters in registration order, then
    /// `rx_rejected`, `storm_suppressed`, `progress_token`.
    counters: Vec<SourceId>,
    token_age_ns: SourceId,
    in_flight: SourceId,
    active_rails: SourceId,
    rto_ns: SourceId,
    backoff: SourceId,
    fence_buffered: SourceId,
    /// Per rail: (`railN.state`, `railN.backlog_ns`).
    rails: Vec<(SourceId, SourceId)>,
    last_token: u64,
    token_moved_ns: u64,
    /// Shared so the flight recorder's `health` context source reads
    /// detector state at dump time without re-borrowing the sampler.
    health: Option<Rc<RefCell<HealthMonitor>>>,
}

impl CoreSampler {
    /// Is a row due at `now_ns`?
    pub fn due(&self, now_ns: u64) -> bool {
        self.tl.due(now_ns)
    }

    /// Snapshot the health verdict, if a monitor is attached.
    pub fn health_report(&self) -> Option<HealthReport> {
        self.health.as_ref().map(|h| h.borrow().report())
    }

    /// The sample ring.
    pub fn timeline(&self) -> &Timeline {
        &self.tl
    }

    /// Consume the sampler, keeping only the sample ring.
    pub fn into_timeline(self) -> Timeline {
        self.tl
    }
}

impl<T> ProtoCore<T> {
    /// Register the column set for this instance's rails: one row every
    /// `interval_ns`, at most `capacity` retained rows (oldest evicted
    /// beyond that), grid anchored at `start_ns`. With `health`, a
    /// streaming [`HealthMonitor`] runs on every committed row and its
    /// state rides along in flight dumps as the `health` context source
    /// (attach the flight recorder first). `conn` only attributes the
    /// `anomaly` event a newly opened incident emits.
    pub fn start_sampler(
        &self,
        conn: Option<usize>,
        interval_ns: u64,
        capacity: usize,
        start_ns: u64,
        health: bool,
    ) -> CoreSampler {
        let mut b = TimelineBuilder::new();
        let names = ProtoStats::default().monotone_counters().map(|(name, _)| name);
        let extra = ["rx_rejected", "storm_suppressed", "progress_token"];
        let counters = names.into_iter().chain(extra).map(|n| b.counter(n)).collect();
        let token_age_ns = b.gauge("token_age_ns");
        let in_flight = b.gauge("in_flight");
        let active_rails = b.gauge("active_rails");
        let rto_ns = b.gauge("rto_ns");
        let backoff = b.gauge("rto_backoff");
        let fence_buffered = b.gauge("fence_buffered");
        let rails = (0..self.rails())
            .map(|r| {
                let state = b.gauge(&format!("rail{r}.state"));
                (state, b.gauge(&format!("rail{r}.backlog_ns")))
            })
            .collect();
        let tl = b.build(interval_ns, capacity, start_ns);
        let health = health.then(|| {
            let mon = Rc::new(RefCell::new(HealthMonitor::for_timeline(&tl)));
            if self.obs.flight.is_enabled() {
                let m = mon.clone();
                let source = Rc::new(move || m.borrow().state_json());
                self.obs.flight.add_context_source("health", source);
            }
            mon
        });
        CoreSampler {
            tl,
            conn,
            counters,
            token_age_ns,
            in_flight,
            active_rails,
            rto_ns,
            backoff,
            fence_buffered,
            rails,
            last_token: 0,
            token_moved_ns: start_ns,
            health,
        }
    }

    /// Read every registered signal and commit one row stamped `now_ns`;
    /// with a monitor attached, run the detectors on the committed row and
    /// report a newly opened incident to the flight recorder.
    /// Allocation-free.
    ///
    /// Gauges aggregate over all connections: `in_flight` and
    /// `fence_buffered` sum, `active_rails` is the minimum, `rto_ns`,
    /// `rto_backoff` and `railN.state` the maximum (the worst, by
    /// [`rail_state_code`]). `token_age_ns` is the time since the progress
    /// token last moved *while any connection is not quiesced*, and 0
    /// otherwise — an idle endpoint is not a stalled one, which is also
    /// the watchdog's rule.
    pub fn sample(&self, s: &mut CoreSampler, host: &impl Host<T>, now_ns: u64) {
        let token = self.progress_token();
        if token != s.last_token || self.quiesced() {
            s.last_token = token;
            s.token_moved_ns = now_ns;
        }
        let stats = self.stats().monotone_counters().map(|(_, v)| v);
        let extra = [self.rx_rejected(), self.storm_suppressed(), token];
        for (&id, v) in s.counters.iter().zip(stats.into_iter().chain(extra)) {
            s.tl.set(id, v);
        }
        let conns = self.conns();
        let rto = conns.iter().map(|c| c.current_rto().as_nanos()).max();
        s.tl.set(s.token_age_ns, now_ns.saturating_sub(s.token_moved_ns));
        s.tl.set(s.in_flight, conns.iter().map(|c| c.in_flight()).sum());
        s.tl.set(s.active_rails, self.min_active_rails().unwrap_or(0) as u64);
        s.tl.set(s.rto_ns, rto.unwrap_or(0));
        s.tl.set(s.backoff, u64::from(self.max_backoff()));
        s.tl.set(s.fence_buffered, self.fence_buffered_total() as u64);
        for (r, &(state, backlog)) in s.rails.iter().enumerate() {
            let codes = conns.iter().map(|c| rail_state_code(c.rail_state(r)));
            s.tl.set(state, codes.max().unwrap_or(0));
            s.tl.set(backlog, host.tx_backlog_ns(r));
        }
        s.tl.sample(now_ns);
        let Some(health) = &s.health else { return };
        let i = s.tl.len() - 1;
        let (t, vals) = s.tl.row(i);
        let opened = health.borrow_mut().observe(t, vals, s.tl.stale_words(i));
        // The monitor borrow is released before the flight recorder runs:
        // its dump evaluates the `health` context source.
        if let Some(cause) = opened {
            let open = health.borrow().open_incidents() as u32;
            let event = EventKind::Anomaly { cause, open };
            self.obs.emit(now_ns, s.conn, None, event);
        }
    }
}

/// Handle to a running simulator-driven sampler (see
/// [`Endpoint::start_timeline`]).
pub struct EndpointSampler {
    ep: Endpoint,
    sampler: Rc<RefCell<CoreSampler>>,
    stop: Rc<Cell<bool>>,
}

impl EndpointSampler {
    /// Stop re-arming, take one final reconciliation row at the current
    /// virtual time, and return the finished timeline. Call after
    /// `sim.run()`: the final row makes `base + Σ deltas` equal the
    /// endpoint's end-of-run stats exactly.
    pub fn finish(self) -> Timeline {
        self.finish_with_health().0
    }

    /// [`EndpointSampler::finish`], plus the health verdict *including*
    /// the final row, if this sampler was started with a monitor
    /// ([`Endpoint::start_timeline_with_health`]).
    pub fn finish_with_health(self) -> (Timeline, Option<HealthReport>) {
        self.stop.set(true);
        self.ep.sample(&mut self.sampler.borrow_mut());
        let s = self.sampler.borrow();
        (s.timeline().clone(), s.health_report())
    }

    /// Snapshot the health verdict so far, if a monitor is attached.
    pub fn health_report(&self) -> Option<HealthReport> {
        self.sampler.borrow().health_report()
    }
}

fn arm(sim: &Sim, ep: Endpoint, sampler: Rc<RefCell<CoreSampler>>, stop: Rc<Cell<bool>>, d: Dur) {
    // The closure captures ~56 bytes, under the engine's inline-event
    // threshold: re-arming costs no heap allocation per tick.
    sim.schedule_in(d, move |sim| {
        if stop.get() {
            return;
        }
        ep.sample(&mut sampler.borrow_mut());
        // Re-arm only while application tasks are live, so the recurring
        // event never keeps the simulation from quiescing.
        if sim.live_tasks() > 0 {
            arm(sim, ep, sampler, stop, d);
        }
    });
}

impl Endpoint {
    /// Arm a recurring virtual-time sampler on this endpoint: one timeline
    /// row every `interval`, at most `capacity` retained rows (oldest
    /// evicted beyond that). Every column aggregates over all of the
    /// endpoint's connections ([`ProtoCore::sample`]); `conn` only names
    /// the connection a health incident's `anomaly` event is attributed to.
    /// The sampler disarms itself when the simulation runs out of live
    /// tasks; call [`EndpointSampler::finish`] after `sim.run()` for the
    /// final reconciliation row.
    pub fn start_timeline(&self, conn: usize, interval: Dur, capacity: usize) -> EndpointSampler {
        self.start_sampler(conn, interval, capacity, false)
    }

    /// Like [`Endpoint::start_timeline`], but with a streaming
    /// [`HealthMonitor`] attached: the detectors run at every sample tick
    /// (zero allocations in steady state), a newly opened incident arms
    /// the flight recorder's `Anomaly` trigger, and the detector state
    /// rides along in dumps as the `health` context source. Collect the
    /// verdict with [`EndpointSampler::finish_with_health`].
    pub fn start_timeline_with_health(
        &self,
        conn: usize,
        interval: Dur,
        capacity: usize,
        _: HealthConfig,
    ) -> EndpointSampler {
        self.start_sampler(conn, interval, capacity, true)
    }

    fn start_sampler(
        &self,
        conn: usize,
        interval: Dur,
        capacity: usize,
        health: bool,
    ) -> EndpointSampler {
        let sim = self.sim_handle().clone();
        let (start_ns, interval_ns) = (sim.now().as_nanos(), interval.as_nanos());
        let sampler =
            self.core(|c| c.start_sampler(Some(conn), interval_ns, capacity, start_ns, health));
        let sampler = Rc::new(RefCell::new(sampler));
        let stop = Rc::new(Cell::new(false));
        arm(&sim, self.clone(), sampler.clone(), stop.clone(), interval);
        EndpointSampler {
            ep: self.clone(),
            sampler,
            stop,
        }
    }
}
