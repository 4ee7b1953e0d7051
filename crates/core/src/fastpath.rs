//! The per-packet fast path.
//!
//! Runs at line rate with no reassembly: one pass of the piece automaton
//! over the payload plus four O(1) anomaly rules (small-segment budget,
//! sequence monotonicity, fragments, URG) against ~12 bytes of
//! per-flow state. Anything suspicious returns a [`DivertReason`]; the
//! engine routes that flow to the slow path. The fast path never alerts by
//! itself — a piece hit is *suspicion*, not detection (benign bytes can
//! contain a piece; only the slow path's full-signature scan confirms).

use std::mem;
use std::sync::Arc;

use sd_flow::{Direction, FlowKey, FlowTable};
use sd_packet::parse::{parse_ipv4, Transport};
use sd_packet::SeqNumber;

use crate::split::SplitPlan;

/// Why the fast path diverted a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivertReason {
    /// A signature piece occurred whole inside one packet.
    PieceMatch,
    /// The flow exceeded its small-segment budget.
    SmallSegments,
    /// A non-monotonic sequence number (reorder/overlap/retransmission).
    OutOfOrder,
    /// An IP fragment (the fast path never interprets fragments).
    Fragment,
    /// A segment with the URG flag (urgent delivery is ambiguous across
    /// stacks; the fast path never interprets it).
    Urgent,
}

impl DivertReason {
    /// All reasons, in reporting order.
    pub const ALL: [DivertReason; 5] = [
        DivertReason::PieceMatch,
        DivertReason::SmallSegments,
        DivertReason::OutOfOrder,
        DivertReason::Fragment,
        DivertReason::Urgent,
    ];

    /// Position in [`DivertReason::ALL`] (and in [`FastPathStats::diverts`]).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DivertReason::PieceMatch => "piece-match",
            DivertReason::SmallSegments => "small-segments",
            DivertReason::OutOfOrder => "out-of-order",
            DivertReason::Fragment => "fragment",
            DivertReason::Urgent => "urgent",
        }
    }
}

/// What the fast path decided about one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing suspicious; forward on the fast path.
    Benign,
    /// The flow was already diverted; hand the packet to the slow path.
    AlreadyDiverted,
    /// This packet triggers diversion.
    Divert(DivertReason),
    /// Malformed; dropped (and counted).
    Drop,
    /// Not something the fast path tracks (non-IP, non-TCP/UDP).
    NonFlow,
}

/// Everything the engine needs from one classified packet: the verdict,
/// the flow, and the parse by-products that would otherwise force a second
/// header parse per packet.
#[derive(Debug, Clone, Copy)]
pub struct Classification {
    /// The packet's canonical flow key, when it has one.
    pub key: Option<FlowKey>,
    /// The fast path's decision.
    pub verdict: Verdict,
    /// Transport payload length (raw IP payload for fragments).
    pub payload_len: usize,
    /// Whether the delay line should retain this packet (data-bearing or
    /// stream-affecting; pure ACKs are skipped).
    pub keep: bool,
}

impl Classification {
    fn non_flow(key: Option<FlowKey>, verdict: Verdict) -> Self {
        Classification {
            key,
            verdict,
            payload_len: 0,
            keep: false,
        }
    }
}

/// Per-flow fast-path state: the whole point is how small this is.
///
/// Two directions × (expected next sequence number + small-segment count),
/// plus validity flags — 12 bytes, versus kilobytes of reassembly buffers
/// per connection on the conventional path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowState {
    next_seq: [u32; 2],
    small_count: [u8; 2],
    /// bit0/bit1: next_seq[dir] is valid.
    flags: u8,
}

impl FlowState {
    /// Size of the per-flow value in bytes (compile-time constant used by
    /// the state experiments).
    pub const STATE_BYTES: usize = mem::size_of::<FlowState>();

    fn has_next(&self, dir: usize) -> bool {
        self.flags & (1 << dir) != 0
    }

    fn set_next(&mut self, dir: usize, seq: SeqNumber) {
        self.next_seq[dir] = seq.raw();
        self.flags |= 1 << dir;
    }

    fn set_fin(&mut self, dir: usize) {
        self.flags |= 1 << (2 + dir);
    }

    fn both_fins(&self) -> bool {
        self.flags & 0b1100 == 0b1100
    }
}

/// Running fast-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Packets classified.
    pub packets: u64,
    /// Payload bytes run through the piece automaton.
    pub bytes_scanned: u64,
    /// Malformed packets dropped.
    pub malformed: u64,
    /// Small data segments observed (pre-diversion).
    pub small_segments: u64,
    /// Out-of-order data segments observed.
    pub out_of_order: u64,
    /// Diversions by reason, indexed as [`DivertReason::ALL`].
    pub diverts: [u64; 5],
    /// Flow-table entries reclaimed on connection close (RST, or FIN seen
    /// in both directions) — what keeps occupancy tracking *live*
    /// connections rather than history.
    pub reclaimed: u64,
}

impl FastPathStats {
    /// Total diversion events.
    pub fn total_diverts(&self) -> u64 {
        self.diverts.iter().sum()
    }
}

/// Where the small-segment counters live.
///
/// The exact flow table is the default; the counting-Bloom backend is the
/// DESIGN §5 ablation — it stores no keys at all (≈1 byte per cell), at
/// the price of collision-induced extra diversion, which experiment E11
/// quantifies. Diversion false positives are safe (the slow path is
/// sound), so this is purely a memory / slow-path-load trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallCounterBackend {
    /// Count in the exact per-flow table entry.
    Exact,
    /// Count in a shared counting Bloom filter.
    Bloom {
        /// Number of 8-bit cells (rounded up to a power of two).
        cells: usize,
        /// Hash functions.
        hashes: u32,
    },
}

/// Validated fast-path parameters (the subset of the engine config the
/// classifier needs).
#[derive(Debug, Clone, Copy)]
pub struct FastPathParams {
    /// Small-segment cutoff c.
    pub cutoff: usize,
    /// Small-segment budget T.
    pub budget: usize,
    /// Divert non-monotonic data segments.
    pub divert_on_out_of_order: bool,
    /// Divert IP fragments.
    pub divert_on_fragments: bool,
    /// Divert URG-flagged segments.
    pub divert_on_urgent: bool,
    /// Flow-table slots.
    pub table_capacity: usize,
    /// Resolved hash seed for the flow table (the Bloom backend derives
    /// its own stream from it). The engine resolves
    /// `SplitDetectConfig::flow_hash_seed` — random when unset — before
    /// building; the `Default` here pins 0 so bare unit tests stay
    /// deterministic.
    pub hash_seed: u64,
    /// Small-segment counter backend.
    pub small_counter: SmallCounterBackend,
}

impl Default for FastPathParams {
    fn default() -> Self {
        FastPathParams {
            cutoff: 15,
            budget: 1,
            divert_on_out_of_order: true,
            divert_on_fragments: true,
            divert_on_urgent: true,
            table_capacity: 1 << 16,
            hash_seed: 0,
            small_counter: SmallCounterBackend::Exact,
        }
    }
}

/// The fast-path classifier.
pub struct FastPath {
    plan: Arc<SplitPlan>,
    params: FastPathParams,
    budget: u8,
    table: FlowTable<FlowState>,
    small_bloom: Option<sd_flow::CountingBloom>,
    stats: FastPathStats,
}

impl FastPath {
    /// Build from a compiled plan, owned or shared, and validated parameters.
    pub fn new(plan: impl Into<Arc<SplitPlan>>, params: FastPathParams) -> Self {
        // Table and Bloom derive distinct hash streams from one resolved
        // seed so neither shares index functions with the other.
        let small_bloom = match params.small_counter {
            SmallCounterBackend::Exact => None,
            SmallCounterBackend::Bloom { cells, hashes } => {
                Some(sd_flow::CountingBloom::with_seed(
                    cells,
                    hashes,
                    params.hash_seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
                ))
            }
        };
        FastPath {
            plan: plan.into(),
            budget: params.budget.min(u8::MAX as usize) as u8,
            table: FlowTable::with_seed(params.table_capacity, params.hash_seed),
            small_bloom,
            params,
            stats: FastPathStats::default(),
        }
    }

    /// The compiled piece plan, shared with every engine built from the
    /// same compile.
    pub fn plan(&self) -> &Arc<SplitPlan> {
        &self.plan
    }

    /// Swap in a freshly compiled piece plan (live rule reload), keeping
    /// every piece of per-flow state: the flow table, the small-segment
    /// counters, and the running stats all survive. The piece scan is
    /// per-packet stateless, so the swap is safe at any packet boundary.
    /// `cutoff` is the new signature set's validated small-segment cutoff
    /// (rule admissibility is per-signature-set, so it moves with the
    /// plan).
    pub fn swap_plan(&mut self, plan: Arc<SplitPlan>, cutoff: usize) {
        self.params.cutoff = cutoff;
        self.plan = plan;
    }

    /// The effective small-segment cutoff.
    pub fn cutoff(&self) -> usize {
        self.params.cutoff
    }

    /// Counters so far.
    pub fn stats(&self) -> FastPathStats {
        self.stats
    }

    /// Per-flow state footprint: the provisioned flow table plus the
    /// Bloom backend's cells when configured.
    pub fn table_memory_bytes(&self) -> usize {
        self.table.memory_bytes() + self.small_bloom.as_ref().map_or(0, |b| b.memory_bytes())
    }

    /// Flow-table statistics (insertions ≈ flows seen).
    pub fn table_stats(&self) -> sd_flow::table::TableStats {
        self.table.stats()
    }

    /// Live flow-table entries.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Shared (non-per-flow) automaton memory.
    pub fn automaton_bytes(&self) -> usize {
        self.plan.memory_bytes()
    }

    /// Halve the counting-Bloom small-segment counters (no-op for the
    /// exact backend, whose counters die with their table entry). Periodic
    /// decay keeps a long-lived filter from saturating on benign churn; it
    /// can *lose* small-segment evidence, which is safe only because
    /// diversion stickiness is owned by the `DiversionManager`, never by
    /// these counters — the divert-stickiness property test pins that.
    pub fn decay_small_counters(&mut self) {
        if let Some(bloom) = &mut self.small_bloom {
            bloom.decay();
        }
    }

    /// Classify one IPv4 packet. `is_diverted` supplies the authoritative
    /// sticky diversion set (owned by the engine, so table evictions cannot
    /// silently un-divert a flow).
    pub fn classify(
        &mut self,
        packet: &[u8],
        is_diverted: impl Fn(&FlowKey) -> bool,
    ) -> (Option<FlowKey>, Verdict) {
        let c = self.classify_full(packet, is_diverted);
        (c.key, c.verdict)
    }

    /// [`classify`](Self::classify) with the parse by-products the engine
    /// needs (payload length, delay-line relevance) so one header parse
    /// serves the whole per-packet pipeline.
    pub fn classify_full(
        &mut self,
        packet: &[u8],
        is_diverted: impl Fn(&FlowKey) -> bool,
    ) -> Classification {
        self.classify_instrumented(packet, is_diverted, || {})
    }

    /// [`classify_full`](Self::classify_full) with a telemetry hook:
    /// `after_parse()` fires as soon as header decode finishes (before
    /// any rule runs), so the engine can split parse latency from
    /// fast-path latency without a second header parse. The uninstrumented
    /// wrapper passes a no-op closure, which the optimizer erases.
    pub fn classify_instrumented(
        &mut self,
        packet: &[u8],
        is_diverted: impl Fn(&FlowKey) -> bool,
        mut after_parse: impl FnMut(),
    ) -> Classification {
        self.stats.packets += 1;
        let parsed = parse_ipv4(packet);
        after_parse();
        let Ok(parsed) = parsed else {
            self.stats.malformed += 1;
            return Classification::non_flow(None, Verdict::Drop);
        };
        let (payload_len, keep) = match &parsed.transport {
            Transport::Tcp(t) => (
                t.payload.len(),
                !t.payload.is_empty()
                    || t.repr.flags.syn()
                    || t.repr.flags.fin()
                    || t.repr.flags.rst(),
            ),
            Transport::Udp(u) => (u.payload.len(), !u.payload.is_empty()),
            Transport::Fragment(raw) | Transport::Other(raw) => (raw.len(), true),
            Transport::NonIp => (0, false),
        };
        let done = |key, verdict| Classification {
            key,
            verdict,
            payload_len,
            keep,
        };
        let Some((flow_key, dir)) = FlowKey::from_parsed(&parsed) else {
            return done(None, Verdict::NonFlow);
        };
        // Diversion, the sticky set, and the delay line are keyed on the
        // IP pair (ports zeroed), not the 5-tuple: non-first fragments
        // carry no ports, so under 5-tuple keys a connection's fragments
        // divert as a *separate* flow and its non-fragment packets (the
        // SYN above all) reach the slow path out of wire order via a later
        // replay — the differential fuzzing oracle caught the slow path
        // adopting a mid-stream origin from a reassembled fragment and
        // then missing a signature the victim received. Per-flow counters
        // below still use the 5-tuple; over-diverting sibling connections
        // of a diverted pair costs only fast-path coverage, never
        // soundness.
        let key = FlowKey::from_ip_pair(&parsed).unwrap_or(flow_key);
        if is_diverted(&key) {
            return done(Some(key), Verdict::AlreadyDiverted);
        }

        let stats = &mut self.stats;
        let (key, verdict) = match parsed.transport {
            Transport::Fragment(_) => {
                if self.params.divert_on_fragments {
                    let v = divert(stats, DivertReason::Fragment);
                    (Some(key), v)
                } else {
                    (Some(key), Verdict::Benign)
                }
            }
            Transport::Tcp(info) => {
                let payload = info.payload;

                // The flow's state is fetched first (a hardware pipeline
                // fetches per-flow state before the payload arrives) and
                // looked up after rules 0 and 1, so the scan hides the
                // memory latency. Every packet, a diverting one too, does
                // that one lookup, which keeps `flows_seen` counting flows
                // whose very first packet diverts; the rules below share
                // `state` until a teardown removes the entry through the
                // same probe.
                let probe = self.table.probe(&flow_key);
                let d = match dir {
                    Direction::Forward => 0usize,
                    Direction::Backward => 1usize,
                };

                // Rule 0: the URG flag. Its delivery semantics differ
                // across stacks (see sd-reassembly::urgent), so the fast
                // path refuses to interpret it — the slow path, which
                // knows the victim's semantics, takes over.
                //
                // Rule 1: piece scan. One window-filtered walk of the piece
                // automaton over the payload; this is the dominant
                // per-byte cost of the whole fast path.
                let early = if self.params.divert_on_urgent && info.repr.flags.urg() {
                    Some(DivertReason::Urgent)
                } else {
                    stats.bytes_scanned += payload.len() as u64;
                    self.plan.scan(payload).map(|_| DivertReason::PieceMatch)
                };
                let (state, _) = self.table.get_or_insert_at(&probe, FlowState::default);
                if let Some(reason) = early {
                    return done(Some(key), divert(stats, reason));
                }

                // Rule 2: sequence monotonicity (data/FIN segments only —
                // pure ACKs carry no stream bytes and repeat seq numbers
                // legitimately).
                let seq = info.repr.seq;
                let consumed = payload.len() as u32
                    + u32::from(info.repr.flags.fin())
                    + u32::from(info.repr.flags.syn());
                let mut out_of_order = false;
                if info.repr.flags.syn() {
                    state.set_next(d, seq + consumed);
                } else if consumed > 0 {
                    if state.has_next(d) {
                        let expected = SeqNumber(state.next_seq[d]);
                        if seq != expected {
                            out_of_order = true;
                        } else {
                            state.set_next(d, seq + consumed);
                        }
                    } else {
                        // Mid-stream pickup: adopt without prejudice.
                        state.set_next(d, seq + consumed);
                    }
                }
                if out_of_order {
                    stats.out_of_order += 1;
                    if self.params.divert_on_out_of_order {
                        let v = divert(stats, DivertReason::OutOfOrder);
                        return done(Some(key), v);
                    }
                }

                // Connection teardown reclaims the slot: an RST kills the
                // flow outright; FINs in both directions end it cleanly.
                // (Diverted flows never reach here — they short-circuit at
                // the sticky set — so reclamation cannot un-divert.)
                if info.repr.flags.rst() {
                    if self.table.remove_at(&probe).is_some() {
                        stats.reclaimed += 1;
                    }
                    return done(Some(key), Verdict::Benign);
                }
                if info.repr.flags.fin() {
                    state.set_fin(d);
                    if state.both_fins() {
                        self.table.remove_at(&probe);
                        stats.reclaimed += 1;
                        return done(Some(key), Verdict::Benign);
                    }
                }

                // Rule 3: small-segment budget (data bytes only).
                if !payload.is_empty() && payload.len() < self.params.cutoff {
                    stats.small_segments += 1;
                    let count = match &mut self.small_bloom {
                        Some(bloom) => bloom.increment(&flow_key),
                        None => {
                            state.small_count[d] = state.small_count[d].saturating_add(1);
                            state.small_count[d]
                        }
                    };
                    if count > self.budget {
                        let v = divert(stats, DivertReason::SmallSegments);
                        return done(Some(key), v);
                    }
                }

                (Some(key), Verdict::Benign)
            }
            Transport::Udp(info) => {
                // Same seen-flow accounting, finished after the scan, as
                // TCP (the entry's counters are unused for UDP, but the
                // slot is what "per-flow state" costs either way).
                let probe = self.table.probe(&flow_key);
                stats.bytes_scanned += info.payload.len() as u64;
                let hit = self.plan.scan(info.payload).is_some();
                self.table.get_or_insert_at(&probe, FlowState::default);
                if hit {
                    let v = divert(stats, DivertReason::PieceMatch);
                    (Some(key), v)
                } else {
                    (Some(key), Verdict::Benign)
                }
            }
            Transport::Other(_) | Transport::NonIp => (Some(key), Verdict::NonFlow),
        };
        done(key, verdict)
    }
}

/// Count one diversion and return its verdict. A function of the stats
/// alone, so the rules can call it while they hold the flow's entry.
fn divert(stats: &mut FastPathStats, reason: DivertReason) -> Verdict {
    stats.diverts[reason.index()] += 1;
    Verdict::Divert(reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitDetectConfig;
    use sd_ips::{Signature, SignatureSet};
    use sd_packet::builder::{ip_of_frame, TcpPacketSpec};
    use sd_packet::frag::fragment_ipv4;
    use sd_packet::tcp::TcpFlags;

    const SIG: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWX"; // 24 bytes, pieces of 8

    fn fast() -> FastPath {
        let sigs = SignatureSet::from_signatures([Signature::new("sig", SIG)]);
        let config = SplitDetectConfig::default();
        let cutoff = config.validate(&sigs).unwrap();
        let plan = SplitPlan::compile(&sigs, &config).unwrap();
        FastPath::new(
            plan,
            FastPathParams {
                cutoff,
                budget: config.small_segment_budget,
                table_capacity: 1024,
                ..Default::default()
            },
        )
    }

    fn pkt(seq: u32, payload: &[u8]) -> Vec<u8> {
        let f = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(seq)
            .flags(TcpFlags::ACK.union(TcpFlags::PSH))
            .payload(payload)
            .build();
        ip_of_frame(&f).to_vec()
    }

    fn not_diverted(_: &FlowKey) -> bool {
        false
    }

    #[test]
    fn reason_index_is_its_position_in_all() {
        for (i, reason) in DivertReason::ALL.into_iter().enumerate() {
            assert_eq!(reason.index(), i, "{}", reason.name());
        }
    }

    #[test]
    fn state_is_twelve_bytes() {
        assert_eq!(FlowState::STATE_BYTES, 12);
    }

    #[test]
    fn benign_in_order_passes() {
        let mut f = fast();
        for (i, seq) in [1000u32, 1100, 1200].into_iter().enumerate() {
            let p = pkt(seq, &[b'z'; 100]);
            let (_, v) = f.classify(&p, not_diverted);
            assert_eq!(v, Verdict::Benign, "packet {i}");
        }
        assert_eq!(f.stats().total_diverts(), 0);
    }

    #[test]
    fn piece_in_packet_diverts() {
        let mut f = fast();
        let (_, v) = f.classify(&pkt(1000, b"....ABCDEFGH...."), not_diverted);
        assert_eq!(v, Verdict::Divert(DivertReason::PieceMatch));
    }

    #[test]
    fn partial_piece_does_not_divert() {
        let mut f = fast();
        let (_, v) = f.classify(&pkt(1000, b"....BCDEFGH....."), not_diverted);
        assert_eq!(v, Verdict::Benign, "7 of 8 piece bytes is not a hit");
    }

    #[test]
    fn small_segments_exceeding_budget_divert() {
        let mut f = fast(); // budget T=1, cutoff 15
                            // First small data segment: within budget.
        let (_, v1) = f.classify(&pkt(1000, b"abc"), not_diverted);
        assert_eq!(v1, Verdict::Benign);
        // Second small segment (in order: 1000+3) → over budget.
        let (_, v2) = f.classify(&pkt(1003, b"def"), not_diverted);
        assert_eq!(v2, Verdict::Divert(DivertReason::SmallSegments));
    }

    #[test]
    fn cutoff_sized_segments_are_not_small() {
        let mut f = fast(); // cutoff 15 (= 2*8 - 1)
        assert_eq!(f.cutoff(), 15);
        for i in 0..10u32 {
            let (_, v) = f.classify(&pkt(1000 + i * 15, &[b'q'; 15]), not_diverted);
            assert_eq!(v, Verdict::Benign, "cutoff-sized segments pass");
        }
    }

    #[test]
    fn out_of_order_diverts() {
        let mut f = fast();
        let (_, v1) = f.classify(&pkt(1000, &[b'x'; 100]), not_diverted);
        assert_eq!(v1, Verdict::Benign);
        // Jump ahead: gap.
        let (_, v2) = f.classify(&pkt(1300, &[b'x'; 100]), not_diverted);
        assert_eq!(v2, Verdict::Divert(DivertReason::OutOfOrder));
    }

    #[test]
    fn retransmission_diverts() {
        let mut f = fast();
        f.classify(&pkt(1000, &[b'x'; 100]), not_diverted);
        let (_, v) = f.classify(&pkt(1000, &[b'x'; 100]), not_diverted);
        assert_eq!(v, Verdict::Divert(DivertReason::OutOfOrder));
    }

    #[test]
    fn pure_acks_never_divert() {
        let mut f = fast();
        let ack = {
            let fr = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
                .seq(1000)
                .flags(TcpFlags::ACK)
                .build();
            ip_of_frame(&fr).to_vec()
        };
        for _ in 0..20 {
            let (_, v) = f.classify(&ack, not_diverted);
            assert_eq!(v, Verdict::Benign, "repeated pure ACKs are normal");
        }
    }

    #[test]
    fn fragments_divert() {
        let mut f = fast();
        let frame = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .payload(&[0u8; 64])
            .dont_frag(false)
            .build();
        let frags = fragment_ipv4(ip_of_frame(&frame), 32).unwrap();
        let (_, v) = f.classify(&frags[0], not_diverted);
        assert_eq!(v, Verdict::Divert(DivertReason::Fragment));
    }

    #[test]
    fn fragments_and_their_connection_share_a_divert_key() {
        // Pins the oracle-found ordering bug: diversion is keyed on the
        // IP pair, so once a connection's fragments divert, its ported
        // segments are AlreadyDiverted too (and vice versa) — the slow
        // path sees one flow in wire order, never a SYN replayed after
        // the fragments it preceded.
        let mut f = fast();
        let frame = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .payload(&[0u8; 64])
            .dont_frag(false)
            .build();
        let frags = fragment_ipv4(ip_of_frame(&frame), 32).unwrap();
        let (frag_key, v) = f.classify(&frags[0], not_diverted);
        assert_eq!(v, Verdict::Divert(DivertReason::Fragment));
        let frag_key = frag_key.unwrap();
        let (seg_key, v) = f.classify(&pkt(1000, b"hello"), |k| *k == frag_key);
        assert_eq!(v, Verdict::AlreadyDiverted, "same IP pair, same divert key");
        assert_eq!(seg_key.unwrap(), frag_key);
    }

    #[test]
    fn fragment_rule_can_be_disabled() {
        let sigs = SignatureSet::from_signatures([Signature::new("sig", SIG)]);
        let config = SplitDetectConfig::default();
        let cutoff = config.validate(&sigs).unwrap();
        let plan = SplitPlan::compile(&sigs, &config).unwrap();
        let mut f = FastPath::new(
            plan,
            FastPathParams {
                cutoff,
                budget: 1,
                divert_on_fragments: false,
                table_capacity: 1024,
                ..Default::default()
            },
        );
        let frame = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .payload(&[0u8; 64])
            .dont_frag(false)
            .build();
        let frags = fragment_ipv4(ip_of_frame(&frame), 32).unwrap();
        let (_, v) = f.classify(&frags[0], not_diverted);
        assert_eq!(v, Verdict::Benign);
    }

    #[test]
    fn already_diverted_short_circuits() {
        let mut f = fast();
        let p = pkt(1000, b"....ABCDEFGH....");
        let (key, _) = f.classify(&p, not_diverted);
        let key = key.unwrap();
        let (_, v) = f.classify(&p, |k| *k == key);
        assert_eq!(v, Verdict::AlreadyDiverted);
    }

    #[test]
    fn syn_establishes_expectation() {
        let mut f = fast();
        let syn = {
            let fr = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
                .seq(999)
                .flags(TcpFlags::SYN)
                .build();
            ip_of_frame(&fr).to_vec()
        };
        f.classify(&syn, not_diverted);
        // Data at ISN+1 is in order.
        let (_, v) = f.classify(&pkt(1000, &[b'x'; 50]), not_diverted);
        assert_eq!(v, Verdict::Benign);
        // Data at a different sequence is not.
        let mut f2 = fast();
        f2.classify(&syn, not_diverted);
        let (_, v2) = f2.classify(&pkt(1500, &[b'x'; 50]), not_diverted);
        assert_eq!(v2, Verdict::Divert(DivertReason::OutOfOrder));
    }

    #[test]
    fn malformed_dropped() {
        let mut f = fast();
        let (_, v) = f.classify(&[0u8; 7], not_diverted);
        assert_eq!(v, Verdict::Drop);
        assert_eq!(f.stats().malformed, 1);
    }

    #[test]
    fn directions_tracked_separately() {
        let mut f = fast();
        f.classify(&pkt(1000, &[b'x'; 100]), not_diverted);
        // Reverse direction with its own sequence space.
        let rev = {
            let fr = TcpPacketSpec::new("10.0.0.2:80", "10.0.0.1:4000")
                .seq(88_000)
                .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                .payload(&[b'y'; 100])
                .build();
            ip_of_frame(&fr).to_vec()
        };
        let (_, v) = f.classify(&rev, not_diverted);
        assert_eq!(v, Verdict::Benign, "reverse direction is independent");
    }

    fn fast_with_bloom(cells: usize, hashes: u32) -> FastPath {
        let sigs = SignatureSet::from_signatures([Signature::new("sig", SIG)]);
        let config = SplitDetectConfig::default();
        let cutoff = config.validate(&sigs).unwrap();
        let plan = SplitPlan::compile(&sigs, &config).unwrap();
        FastPath::new(
            plan,
            FastPathParams {
                cutoff,
                budget: config.small_segment_budget,
                table_capacity: 1024,
                small_counter: SmallCounterBackend::Bloom { cells, hashes },
                ..Default::default()
            },
        )
    }

    #[test]
    fn bloom_backend_diverts_over_budget() {
        let mut f = fast_with_bloom(4096, 4);
        let (_, v1) = f.classify(&pkt(1000, b"abc"), not_diverted);
        assert_eq!(v1, Verdict::Benign);
        let (_, v2) = f.classify(&pkt(1003, b"def"), not_diverted);
        assert_eq!(v2, Verdict::Divert(DivertReason::SmallSegments));
    }

    #[test]
    fn bloom_backend_charges_memory() {
        let exact = fast();
        let bloom = fast_with_bloom(4096, 4);
        assert_eq!(
            bloom.table_memory_bytes(),
            exact.table_memory_bytes() + 4096
        );
    }

    #[test]
    fn bloom_collisions_divert_innocents_when_undersized() {
        // A 64-cell filter with one hash saturates quickly: flows that sent
        // a single small segment (within budget) start diverting because
        // they share cells with earlier flows. This is the measured cost of
        // the keyless backend (E11); it is safe, just slow-path load.
        let mut f = fast_with_bloom(64, 1);
        let mut early_diverts = 0;
        for n in 0..200u16 {
            let frame =
                TcpPacketSpec::new(&format!("10.7.{}.{}:999", n / 200, n % 200), "10.0.0.2:80")
                    .seq(1)
                    .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                    .payload(b"hi") // one small segment per flow: within budget
                    .build();
            let (_, v) = f.classify(ip_of_frame(&frame), not_diverted);
            if matches!(v, Verdict::Divert(DivertReason::SmallSegments)) {
                early_diverts += 1;
            }
        }
        assert!(
            early_diverts > 0,
            "an undersized Bloom backend must show collision diversions"
        );
        // The exact backend never diverts these flows.
        let mut f = fast();
        for n in 0..200u16 {
            let frame =
                TcpPacketSpec::new(&format!("10.7.{}.{}:999", n / 200, n % 200), "10.0.0.2:80")
                    .seq(1)
                    .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                    .payload(b"hi")
                    .build();
            let (_, v) = f.classify(ip_of_frame(&frame), not_diverted);
            assert_eq!(v, Verdict::Benign);
        }
    }

    #[test]
    fn rst_reclaims_the_flow_slot() {
        let mut f = fast();
        f.classify(&pkt(1000, &[b'x'; 100]), not_diverted);
        assert_eq!(f.table_stats().insertions, 1);
        let rst = {
            let fr = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
                .seq(1100)
                .flags(TcpFlags::RST)
                .build();
            ip_of_frame(&fr).to_vec()
        };
        let (_, v) = f.classify(&rst, not_diverted);
        assert_eq!(v, Verdict::Benign);
        assert_eq!(f.stats().reclaimed, 1);
        // A new conversation on the same 5-tuple starts fresh (no stale
        // next-seq to trip the order rule) in a fresh slot.
        let (_, v) = f.classify(&pkt(50_000, &[b'y'; 100]), not_diverted);
        assert_eq!(v, Verdict::Benign);
        assert_eq!(f.table_stats().insertions, 2);
    }

    #[test]
    fn urgent_and_piece_hit_packets_insert_their_flow() {
        // Both rules decide before the lookup finishes, yet each packet of
        // a brand-new flow still does its one lookup and inserts the flow.
        let mut f = fast();
        let urg = TcpPacketSpec::new("10.0.0.3:4000", "10.0.0.2:80")
            .seq(1000)
            .flags(TcpFlags::ACK.union(TcpFlags::URG))
            .payload(b"urgent")
            .build();
        let (_, v) = f.classify(ip_of_frame(&urg), not_diverted);
        assert_eq!(v, Verdict::Divert(DivertReason::Urgent));
        assert_eq!(f.table_stats().insertions, 1);
        let (_, v) = f.classify(&pkt(1000, b"....ABCDEFGH...."), not_diverted);
        assert_eq!(v, Verdict::Divert(DivertReason::PieceMatch));
        assert_eq!(f.table_stats().insertions, 2);
        assert_eq!(f.table_stats().lookups, 2);
        assert_eq!(f.stats().bytes_scanned, 16, "URG packets are not scanned");
    }

    #[test]
    fn bidirectional_fins_reclaim() {
        let mut f = fast();
        let fin = |src: &str, dst: &str, seq: u32| {
            let fr = TcpPacketSpec::new(src, dst)
                .seq(seq)
                .flags(TcpFlags::FIN.union(TcpFlags::ACK))
                .build();
            ip_of_frame(&fr).to_vec()
        };
        f.classify(&pkt(1000, &[b'x'; 100]), not_diverted);
        f.classify(&fin("10.0.0.1:4000", "10.0.0.2:80", 1100), not_diverted);
        assert_eq!(f.stats().reclaimed, 0, "one direction is half-closed");
        f.classify(&fin("10.0.0.2:80", "10.0.0.1:4000", 777), not_diverted);
        assert_eq!(f.stats().reclaimed, 1, "both FINs close the flow");
        f.classify(&pkt(5000, &[b'y'; 100]), not_diverted);
        assert_eq!(f.table_stats().insertions, 2, "the slot was freed");
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fast();
        f.classify(&pkt(1000, &[b'x'; 100]), not_diverted);
        f.classify(&pkt(1100, b"abc"), not_diverted);
        let s = f.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.bytes_scanned, 103);
        assert_eq!(s.small_segments, 1);
        // One flow-table probe per TCP packet, the small segment included.
        assert_eq!(f.table_stats().lookups, 2);
        assert!(f.table_memory_bytes() > 0);
        assert!(f.automaton_bytes() > 0);
    }
}
