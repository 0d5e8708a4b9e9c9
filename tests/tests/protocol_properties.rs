//! Property-based tests of the protocol's pure state machines.

use frame::{
    decode_frame, encode_frame, Frame, FrameFlags, FrameHeader, FrameKind, MacAddr, NackRanges,
};
use multiedge::order::{FragMeta, OpOrdering};
use multiedge::recvseq::{Admit, SeqTracker};
use multiedge::seqspace::{from_wire, to_wire};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Data),
        Just(FrameKind::Ack),
        Just(FrameKind::Nack),
        Just(FrameKind::ReadRequest),
        Just(FrameKind::ReadResponse),
        Just(FrameKind::Connect),
        Just(FrameKind::ConnectAck),
    ]
}

proptest! {
    /// Codec round-trip for arbitrary headers and payloads.
    #[test]
    fn frame_codec_round_trips(
        kind in arb_kind(),
        flags in 0u16..64,
        conn in any::<u32>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        op_id in any::<u32>(),
        op_total in any::<u32>(),
        floor in any::<u32>(),
        addr in any::<u64>(),
        aux in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..frame::MAX_PAYLOAD),
    ) {
        let f = Frame {
            src: MacAddr::new(1, 0),
            dst: MacAddr::new(2, 0),
            header: FrameHeader {
                kind,
                flags: FrameFlags::from_bits(flags),
                conn,
                seq,
                ack,
                op_id,
                op_total_len: op_total,
                fence_floor: floor,
                remote_addr: addr,
                aux,
            },
            payload: bytes::Bytes::from(payload),
        };
        let wire = encode_frame(&f);
        prop_assert_eq!(decode_frame(f.src, f.dst, &wire).unwrap(), f);
    }

    /// Damage anywhere in the wire image is rejected: any single flipped
    /// bit, any two flipped bits, and any burst of at most 32 consecutive
    /// bits. CRC32C guarantees all three (and every 3-bit error, at these
    /// lengths) for damage inside the bytes it covers; damage that rewrites
    /// the length field or straddles an edge of the checksum field is left
    /// to the usual 2^-32 odds.
    #[test]
    fn corruption_always_detected(
        payload in proptest::collection::vec(any::<u8>(), 0..frame::MAX_PAYLOAD + 1),
        bits in (any::<usize>(), any::<usize>()),
        burst_at in any::<usize>(),
        burst in any::<u32>(),
    ) {
        let f = Frame {
            src: MacAddr::new(0, 0),
            dst: MacAddr::new(1, 0),
            header: FrameHeader::default(),
            payload: bytes::Bytes::from(payload),
        };
        let wire = encode_frame(&f);
        let nbits = wire.len() * 8;
        let flip = |image: &mut [u8], bit: usize| image[bit / 8] ^= 1 << (bit % 8);

        let first = bits.0 % nbits;
        let mut single = wire.clone();
        flip(&mut single, first);

        let second = bits.1 % nbits;
        let mut double = single.clone();
        flip(&mut double, if second == first { (first + 1) % nbits } else { second });

        // A burst starts at its first damaged bit, so bit 0 of the pattern
        // is set; the other 31 are free.
        let start = burst_at % (nbits - 31);
        let mut run = wire.clone();
        for i in (0..32).filter(|i| (burst | 1) >> i & 1 == 1) {
            flip(&mut run, start + i);
        }

        for damaged in [single, double, run] {
            prop_assert!(decode_frame(f.src, f.dst, &damaged).is_err());
        }
    }

    /// NACK range codec round-trips.
    #[test]
    fn nack_ranges_round_trip(ranges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..64)) {
        let n = NackRanges { ranges: ranges.clone() };
        prop_assert_eq!(NackRanges::parse(&n.encode()).collect::<Vec<_>>(), ranges);
    }

    /// Wire sequence reconstruction is exact within a ±2^31 window.
    #[test]
    fn seqspace_reconstructs(reference in 0u64..u64::MAX / 2, delta in -(1i64 << 30)..(1i64 << 30)) {
        let seq = reference.saturating_add_signed(delta);
        prop_assert_eq!(from_wire(reference, to_wire(seq)), seq);
    }

    /// SeqTracker agrees with a naive set-based model under arbitrary
    /// arrival orders with duplicates, all inside one 200-seq window.
    #[test]
    fn seq_tracker_matches_model(mut seqs in proptest::collection::vec(0u64..200, 1..400)) {
        let mut t = SeqTracker::with_window(200);
        let mut seen = std::collections::BTreeSet::new();
        for &s in &seqs {
            let admit = t.admit(s);
            let fresh = seen.insert(s);
            prop_assert_eq!(matches!(admit, Admit::New{..}), fresh, "seq {}", s);
            // Model: cumulative = smallest missing.
            let mut cum = 0;
            while seen.contains(&cum) {
                cum += 1;
            }
            prop_assert_eq!(t.cumulative(), cum);
            let frontier = seen.iter().next_back().map_or(0, |m| m + 1);
            prop_assert_eq!(t.frontier(), frontier);
            // Missing ranges expand exactly to the missing set below frontier.
            let missing: Vec<u64> = (cum..frontier).filter(|x| !seen.contains(x)).collect();
            let expanded: Vec<u64> = t
                .missing_ranges()
                .iter()
                .flat_map(|&(a, b)| a..b)
                .collect();
            prop_assert_eq!(expanded, missing);
        }
        seqs.sort_unstable();
    }

    /// The reorder buffer delivers every fragment exactly once, and never
    /// violates a fence: when a backward-fenced fragment of op i is
    /// applied, all ops < i are complete; when any fragment with fence
    /// floor f is applied, all ops < f are complete.
    #[test]
    fn op_ordering_respects_fences(
        ops in proptest::collection::vec((1u64..4, any::<bool>(), any::<bool>()), 1..20),
        order_seed in any::<u64>(),
    ) {
        // Build fragment list: op i has ops[i].0 fragments of 1 byte; .1 is
        // backward fence, .2 is forward fence.
        let mut floor = 0u64;
        let mut frags: Vec<FragMeta> = Vec::new();
        for (i, &(nfrag, bwd, fwd)) in ops.iter().enumerate() {
            for _ in 0..nfrag {
                frags.push(FragMeta {
                    op_id: i as u64,
                    op_total: nfrag,
                    fence_floor: floor,
                    fence_backward: bwd,
                    len: 1,
                });
            }
            if fwd {
                floor = i as u64 + 1;
            }
        }
        // Deterministic shuffle.
        let mut rng = order_seed;
        for i in (1..frags.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (rng >> 33) as usize % (i + 1);
            frags.swap(i, j);
        }
        let mut o: OpOrdering<u64> = OpOrdering::new();
        let mut applied_count: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut completed: std::collections::BTreeSet<u64> = Default::default();
        let total = frags.len();
        let mut applied_total = 0usize;
        for f in frags {
            let rel = o.offer(f, f.op_id);
            for (m, _) in &rel.apply {
                applied_total += 1;
                *applied_count.entry(m.op_id).or_default() += 1;
                // Fence floor invariant.
                for e in 0..m.fence_floor {
                    prop_assert!(completed.contains(&e) || {
                        // e may complete within this same release batch
                        // before m; check final set instead below.
                        rel.completed.contains(&e)
                    }, "floor violated: op {} applied before {}", m.op_id, e);
                }
            }
            for c in rel.completed {
                completed.insert(c);
            }
        }
        prop_assert_eq!(applied_total, total, "every fragment applied once");
        for (i, &(nfrag, _, _)) in ops.iter().enumerate() {
            prop_assert_eq!(applied_count[&(i as u64)], nfrag);
            prop_assert!(completed.contains(&(i as u64)));
        }
    }

    /// Diff/patch round-trip: applying the exact diffs of two writers with
    /// disjoint modifications reconstructs both at the home.
    #[test]
    fn diff_patch_round_trip(
        base in proptest::collection::vec(any::<u8>(), 64..512),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..64),
    ) {
        let twin = base.clone();
        let mut cur = base.clone();
        for &(at, v) in &edits {
            let i = at % cur.len();
            cur[i] = v;
        }
        let runs = dsm::diff::diff_runs(&twin, &cur);
        let mut home = base.clone();
        dsm::diff::apply_runs(&mut home, &cur, &runs);
        prop_assert_eq!(home, cur);
    }

    /// Page-range merge/expand round-trips for arbitrary page sets.
    #[test]
    fn page_ranges_round_trip(pages in proptest::collection::btree_set(0u64..10_000, 0..200)) {
        let v: Vec<u64> = pages.iter().copied().collect();
        let ranges = dsm::msg::merge_pages(v.clone());
        let back: Vec<u64> = dsm::msg::expand_ranges(&ranges).collect();
        prop_assert_eq!(back, v);
    }
}

/// One step of the random tx-window workload driven against both the ring
/// and the naive map reference in `tx_ring_matches_map_reference`.
#[derive(Debug, Clone, Copy)]
enum TxOp {
    /// Send the next frame if the window allows.
    Send,
    /// Advance the cumulative ack by the given number of frames.
    Ack(u8),
    /// Mark the in-flight frame at this window offset retransmitted (a NACK
    /// handler resending it on a new rail).
    Retransmit(u8, u8),
    /// Look up the frame at this window offset (may be stale/missing).
    Query(u8),
}

fn arb_tx_op() -> impl Strategy<Value = TxOp> {
    // The vendored prop_oneof has no weight syntax; repeat arms to bias
    // toward sends so windows actually fill.
    prop_oneof![
        Just(TxOp::Send),
        Just(TxOp::Send),
        Just(TxOp::Send),
        Just(TxOp::Send),
        (1u8..16).prop_map(TxOp::Ack),
        (any::<u8>(), 0u8..4).prop_map(|(k, r)| TxOp::Retransmit(k, r)),
        any::<u8>().prop_map(TxOp::Query),
    ]
}

proptest! {
    /// The ring-based sender state (`multiedge::ring::TxRing`) behaves
    /// exactly like a naive seq-keyed map through random send / ack /
    /// retransmit sequences — including windows that straddle the 32-bit
    /// wire wrap, where every in-flight sequence must still round-trip
    /// through its truncated wire form.
    #[test]
    fn tx_ring_matches_map_reference(
        // Bias half the cases onto the 2^32 wire-wrap boundary.
        base in prop_oneof![
            0u64..1024,
            ((1u64 << 32) - 512)..((1u64 << 32) + 512),
        ],
        ops in proptest::collection::vec(arb_tx_op(), 1..400),
    ) {
        use multiedge::ring::{TxRing, TxSlot};
        use std::collections::BTreeMap;

        const WINDOW: usize = 32;
        let mut ring = TxRing::with_window(WINDOW);
        // Reference model: plain map from seq to (rail, retransmitted).
        let mut model: BTreeMap<u64, (usize, bool)> = BTreeMap::new();

        let mut acked = base;
        let mut next_seq = base;
        for op in ops {
            match op {
                TxOp::Send => {
                    if (next_seq - acked) < WINDOW as u64 {
                        ring.insert(TxSlot {
                            seq: next_seq,
                            rail: 0,
                            sent_at: netsim::SimTime::ZERO,
                            retransmitted: false,
                            frame: Frame {
                                src: MacAddr::new(0, 0),
                                dst: MacAddr::new(1, 0),
                                header: FrameHeader {
                                    seq: to_wire(next_seq),
                                    ..FrameHeader::default()
                                },
                                payload: bytes::Bytes::new(),
                            },
                        });
                        model.insert(next_seq, (0, false));
                        next_seq += 1;
                    }
                }
                TxOp::Ack(n) => {
                    let new_acked = (acked + n as u64).min(next_seq);
                    while acked < new_acked {
                        let from_ring = ring.remove(acked).map(|s| (s.rail, s.retransmitted));
                        let from_model = model.remove(&acked);
                        prop_assert_eq!(from_ring, from_model, "ack removal at {}", acked);
                        acked += 1;
                    }
                }
                TxOp::Retransmit(k, rail) => {
                    let seq = acked + (k as u64 % WINDOW as u64);
                    let rail = rail as usize;
                    if let Some(s) = ring.get_mut(seq) {
                        s.retransmitted = true;
                        s.rail = rail;
                    }
                    if let Some(m) = model.get_mut(&seq) {
                        m.1 = true;
                        m.0 = rail;
                    }
                }
                TxOp::Query(k) => {
                    // Offset past the window probes stale / never-sent seqs.
                    let seq = (acked + k as u64).max(base);
                    prop_assert_eq!(
                        ring.get(seq).map(|s| (s.rail, s.retransmitted)),
                        model.get(&seq).copied(),
                        "lookup at {}", seq
                    );
                }
            }
        }

        prop_assert_eq!(ring.len(), model.len());
        for seq in acked..next_seq {
            prop_assert_eq!(
                ring.get(seq).map(|s| (s.rail, s.retransmitted)),
                model.get(&seq).copied(),
                "final state at {}", seq
            );
            // The wrap-sensitive part: the retained frame's 32-bit wire seq
            // must reconstruct to the full sequence relative to the ack.
            let s = ring.get(seq).expect("in flight");
            prop_assert_eq!(from_wire(acked, s.frame.header.seq), seq);
        }
    }

    /// The ring-based receiver gap state (`multiedge::ring::GapRing`)
    /// matches a naive map reference through random out-of-order delivery:
    /// same entries, same first-seen/last-NACK state, same live size —
    /// which stays window-bounded — across wire wrap.
    #[test]
    fn gap_ring_matches_map_reference(
        base in prop_oneof![
            0u64..1024,
            ((1u64 << 32) - 512)..((1u64 << 32) + 512),
        ],
        // Each step delivers the frame at `offset` into the receive window,
        // then runs a NACK tick every few steps.
        offsets in proptest::collection::vec(0u8..32, 1..300),
    ) {
        use multiedge::ring::GapRing;
        use std::collections::BTreeMap;

        const WINDOW: usize = 32;
        let mut seqs = SeqTracker::with_window(WINDOW);
        let mut ring = GapRing::with_window(WINDOW);
        // Reference model: gap start -> (first_seen, last_nack).
        let mut model: BTreeMap<u64, (netsim::SimTime, Option<netsim::SimTime>)> =
            BTreeMap::new();
        // SeqTracker counts from 0; shift by `base` when exercising the
        // wire round-trip below.
        let mut scratch = Vec::new();
        let mut now = netsim::SimTime::ZERO;
        let mut cap_before = ring.capacity();

        for (step, off) in offsets.into_iter().enumerate() {
            now += netsim::time::us(1);
            let seq = seqs.cumulative() + off as u64;
            // Wire round-trip sanity at the wrap: the shifted sequence
            // survives truncation relative to the shifted cumulative.
            prop_assert_eq!(
                from_wire(base + seqs.cumulative(), to_wire(base + seq)),
                base + seq
            );
            match seqs.admit(seq) {
                Admit::New { .. } => {}
                Admit::Duplicate => continue,
            }
            if step % 3 == 0 {
                // NACK tick: record every currently-missing gap start, then
                // purge what the cumulative ack has passed.
                seqs.missing_ranges_into(&mut scratch);
                for &(start, _) in &scratch {
                    let e = ring.entry(start, now);
                    let m = model.entry(start).or_insert((now, None));
                    prop_assert_eq!(e.first_seen, m.0, "first_seen at {}", start);
                    prop_assert_eq!(e.last_nack, m.1, "last_nack at {}", start);
                    e.last_nack = Some(now);
                    m.1 = Some(now);
                    // The ring grows on need: a power of two holding every
                    // live gap, never past the window, never shrinking.
                    let cap = ring.capacity();
                    prop_assert!(cap.is_power_of_two() && cap >= ring.len(), "capacity {}", cap);
                    prop_assert!(cap <= WINDOW && cap >= cap_before, "capacity {} after {}", cap, cap_before);
                    cap_before = cap;
                }
                let cum = seqs.cumulative();
                ring.purge_below(cum);
                model.retain(|&s, _| s >= cum);
                prop_assert_eq!(ring.len(), model.len(), "live gaps after purge");
                prop_assert!(ring.len() <= WINDOW, "gap state exceeds window");
                prop_assert_eq!(ring.capacity(), cap_before, "purging never shrinks");
            }
        }

        let cum = seqs.cumulative();
        ring.purge_below(cum);
        model.retain(|&s, _| s >= cum);
        prop_assert_eq!(ring.len(), model.len());
        for (&s, &(first, last)) in &model {
            let g = ring.get(s).expect("model entry live in ring");
            prop_assert_eq!(g.first_seen, first);
            prop_assert_eq!(g.last_nack, last);
        }
    }
}

/// The reorder buffer as it was kept before the dense ring: an ordered map
/// from op id to entry. The reference for `op_ordering_matches_map_reference`.
#[derive(Default)]
struct MapOrdering {
    ops: std::collections::BTreeMap<u64, MapEntry>,
    applied_below: u64,
    buffered: usize,
    buffered_peak: usize,
}

struct MapEntry {
    total: u64,
    applied: u64,
    fence_floor: u64,
    fence_backward: bool,
    complete: bool,
    buffered: Vec<(FragMeta, u64)>,
}

impl MapOrdering {
    fn can_apply(&self, op_id: u64, floor: u64, backward: bool) -> bool {
        self.applied_below >= floor && !(backward && self.applied_below < op_id)
    }

    fn entry(&mut self, m: &FragMeta) -> &mut MapEntry {
        self.ops.entry(m.op_id).or_insert_with(|| MapEntry {
            total: m.op_total,
            applied: 0,
            fence_floor: m.fence_floor,
            fence_backward: m.fence_backward,
            complete: false,
            buffered: Vec::new(),
        })
    }

    fn offer(&mut self, m: FragMeta, tag: u64) -> (Vec<u64>, Vec<u64>) {
        let (mut apply, mut completed) = (Vec::new(), Vec::new());
        if self.can_apply(m.op_id, m.fence_floor, m.fence_backward) {
            self.apply(m, tag, &mut apply, &mut completed);
            loop {
                let ready = self.ops.iter().find_map(|(&id, e)| {
                    (!e.buffered.is_empty() && self.can_apply(id, e.fence_floor, e.fence_backward))
                        .then_some(id)
                });
                let Some(id) = ready else { break };
                let frags = std::mem::take(&mut self.ops.get_mut(&id).expect("ready").buffered);
                self.buffered -= frags.len();
                for (m, tag) in frags {
                    self.apply(m, tag, &mut apply, &mut completed);
                }
                self.advance();
            }
        } else {
            self.entry(&m).buffered.push((m, tag));
            self.buffered += 1;
            self.buffered_peak = self.buffered_peak.max(self.buffered);
        }
        (apply, completed)
    }

    fn apply(&mut self, m: FragMeta, tag: u64, apply: &mut Vec<u64>, completed: &mut Vec<u64>) {
        let e = self.entry(&m);
        e.applied += m.len;
        let done = !e.complete && e.applied >= e.total;
        e.complete |= done;
        apply.push(tag);
        if done {
            completed.push(m.op_id);
            self.advance();
        }
    }

    fn advance(&mut self) {
        while self
            .ops
            .get(&self.applied_below)
            .is_some_and(|e| e.complete && e.buffered.is_empty())
        {
            self.ops.remove(&self.applied_below);
            self.applied_below += 1;
        }
    }
}

/// One rail's record in the eager reference of
/// `lazy_rail_set_matches_eager_reference`.
#[derive(Clone, Copy)]
struct EagerRail {
    state: multiedge::RailState,
    strikes: u32,
    dead_since: netsim::SimTime,
    probe_seq: Option<u64>,
}

/// Rail health as it was kept before the records became lazy: one record
/// per rail from the start.
struct EagerRails {
    rails: Vec<EagerRail>,
    degraded_after: u32,
    dead_after: u32,
    cooldown: netsim::Dur,
}

impl EagerRails {
    fn on_loss(
        &mut self,
        rail: usize,
        seq: u64,
        now: netsim::SimTime,
    ) -> Option<multiedge::RailEvent> {
        use multiedge::{RailEvent, RailState};
        let r = &mut self.rails[rail];
        r.strikes = r.strikes.saturating_add(1);
        match r.state {
            RailState::Probing if r.probe_seq == Some(seq) => {
                (r.state, r.dead_since, r.probe_seq) = (RailState::Dead, now, None);
                None
            }
            RailState::Healthy | RailState::Degraded if r.strikes >= self.dead_after => {
                (r.state, r.dead_since, r.probe_seq) = (RailState::Dead, now, None);
                Some(RailEvent::Dead(rail))
            }
            RailState::Healthy | RailState::Degraded => {
                if r.strikes >= self.degraded_after {
                    r.state = RailState::Degraded;
                }
                None
            }
            _ => None,
        }
    }

    fn on_ack(&mut self, rail: usize, seq: u64) -> Option<multiedge::RailEvent> {
        use multiedge::{RailEvent, RailState};
        let r = &mut self.rails[rail];
        r.strikes = 0;
        match r.state {
            RailState::Probing if r.probe_seq == Some(seq) => {
                (r.state, r.probe_seq) = (RailState::Healthy, None);
                Some(RailEvent::Readmitted(rail))
            }
            RailState::Healthy | RailState::Degraded => {
                r.state = RailState::Healthy;
                None
            }
            _ => None,
        }
    }

    fn eligible_mask(&mut self, now: netsim::SimTime) -> u64 {
        use multiedge::RailState;
        let mut mask = 0u64;
        for (i, r) in self.rails.iter_mut().enumerate() {
            let eligible = match r.state {
                RailState::Healthy | RailState::Degraded => true,
                RailState::Dead if now.since(r.dead_since) >= self.cooldown => {
                    (r.state, r.probe_seq) = (RailState::Probing, None);
                    true
                }
                RailState::Dead => false,
                RailState::Probing => r.probe_seq.is_none(),
            };
            mask |= u64::from(eligible) << i;
        }
        mask
    }

    fn note_sent(&mut self, rail: usize, seq: u64) {
        let r = &mut self.rails[rail];
        if r.state == multiedge::RailState::Probing && r.probe_seq.is_none() {
            r.probe_seq = Some(seq);
        }
    }
}

/// One step of `lazy_rail_set_matches_eager_reference`.
#[derive(Debug, Clone, Copy)]
enum RailOp {
    Loss(u8, u8),
    Ack(u8, u8),
    NoteSent(u8, u8),
    /// Advance the clock by this many ms, then read the eligibility mask.
    Mask(u8),
}

fn arb_rail_op() -> impl Strategy<Value = RailOp> {
    prop_oneof![
        (any::<u8>(), 0u8..8).prop_map(|(r, s)| RailOp::Loss(r, s)),
        (any::<u8>(), 0u8..8).prop_map(|(r, s)| RailOp::Ack(r, s)),
        (any::<u8>(), 0u8..8).prop_map(|(r, s)| RailOp::NoteSent(r, s)),
        (0u8..6).prop_map(RailOp::Mask),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense-ring reorder buffer releases exactly what the ordered-map
    /// one did — the same fragments in the same order, the same completed
    /// ops, the same frontier and buffer counts after every offer — over
    /// arrival orders a window-bounded sender can produce, with op ids
    /// pushed up to the window edge and mixed backward/forward fences.
    #[test]
    fn op_ordering_matches_map_reference(
        window in 1u64..9,
        ops in proptest::collection::vec((1u64..4, any::<bool>(), any::<bool>()), 1..40),
        picks in proptest::collection::vec(any::<u32>(), 160),
    ) {
        // Fragments of op i carry the floor its sender stamps: one past the
        // latest forward-fenced op before it.
        let mut floor = 0u64;
        let mut pool: Vec<(FragMeta, u64)> = Vec::new();
        for (i, &(nfrag, bwd, fwd)) in ops.iter().enumerate() {
            for k in 0..nfrag {
                let meta = FragMeta {
                    op_id: i as u64,
                    op_total: nfrag,
                    fence_floor: floor,
                    fence_backward: bwd,
                    len: 1,
                };
                pool.push((meta, (i as u64) << 8 | k));
            }
            if fwd {
                floor = i as u64 + 1;
            }
        }
        let mut ring: OpOrdering<u64> = OpOrdering::new();
        let mut model = MapOrdering::default();
        let mut picks = picks.into_iter().cycle();
        while !pool.is_empty() {
            // Only ops inside [applied_below, applied_below + window) can be
            // on the wire; the op at the frontier always has a fragment
            // left, so something is always eligible.
            let edge = ring.applied_below() + window;
            let eligible: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].0.op_id < edge).collect();
            prop_assert!(!eligible.is_empty(), "frontier op has no fragment left");
            let pick = picks.next().expect("cycled");
            // One pick in three takes the highest op on offer: the edge.
            let at = if pick % 3 == 0 {
                *eligible.iter().max_by_key(|&&i| pool[i].0.op_id).expect("non-empty")
            } else {
                eligible[(pick / 3) as usize % eligible.len()]
            };
            let (meta, tag) = pool.swap_remove(at);
            let rel = ring.offer(meta, tag);
            let (apply, completed) = model.offer(meta, tag);
            let got: Vec<u64> = rel.apply.iter().map(|&(_, t)| t).collect();
            prop_assert_eq!(got, apply, "released fragments");
            prop_assert_eq!(rel.completed, completed, "completed ops");
            prop_assert_eq!(ring.applied_below(), model.applied_below);
            prop_assert_eq!(ring.buffered(), model.buffered);
            prop_assert_eq!(ring.buffered_peak(), model.buffered_peak);
        }
        prop_assert_eq!(ring.applied_below(), ops.len() as u64);
    }

    /// A rail set that allocates its per-rail records on the first
    /// attributed loss answers exactly like one that holds them from the
    /// start: the same transitions, eligibility masks, states and live-rail
    /// counts, over random loss / ack / send / mask sequences on 1–64 rails.
    #[test]
    fn lazy_rail_set_matches_eager_reference(
        n in 1usize..65,
        degraded_after in 1u32..4,
        dead_after in 2u32..6,
        cooldown_ms in 1u64..12,
        steps in proptest::collection::vec(arb_rail_op(), 1..200),
    ) {
        use multiedge::{RailSet, RailState};
        let cooldown = netsim::time::ms(cooldown_ms);
        let mut lazy = RailSet::new(n, degraded_after, dead_after, cooldown);
        let healthy = EagerRail {
            state: RailState::Healthy,
            strikes: 0,
            dead_since: netsim::SimTime::ZERO,
            probe_seq: None,
        };
        let mut eager = EagerRails {
            rails: vec![healthy; n],
            degraded_after,
            dead_after,
            cooldown,
        };
        let mut now = netsim::SimTime::ZERO;
        // Losses land on the low rails most of the time, so rails die,
        // probe and come back within a case.
        let rail = |r: u8| if r < 192 { r as usize % n.min(4) } else { r as usize % n };
        for step in steps {
            match step {
                RailOp::Loss(r, s) => {
                    let (r, s) = (rail(r), u64::from(s));
                    prop_assert_eq!(lazy.on_loss(r, s, now), eager.on_loss(r, s, now));
                }
                RailOp::Ack(r, s) => {
                    let (r, s) = (rail(r), u64::from(s));
                    prop_assert_eq!(lazy.on_ack(r, s), eager.on_ack(r, s));
                }
                RailOp::NoteSent(r, s) => {
                    let (r, s) = (rail(r), u64::from(s));
                    lazy.note_sent(r, s);
                    eager.note_sent(r, s);
                }
                RailOp::Mask(dt) => {
                    now += netsim::time::ms(u64::from(dt));
                    prop_assert_eq!(lazy.eligible_mask(now), eager.eligible_mask(now));
                }
            }
            for r in 0..n {
                prop_assert_eq!(lazy.state(r), eager.rails[r].state, "rail {}", r);
            }
            let live = eager.rails.iter().filter(|r| r.state != RailState::Dead).count();
            prop_assert_eq!(lazy.active_rails(), live);
            prop_assert_eq!(lazy.len(), n);
        }
    }
}
