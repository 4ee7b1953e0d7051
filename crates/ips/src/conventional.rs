//! The conventional reassembling + normalizing IPS.
//!
//! This is the paradigm the paper argues cannot scale past ~10 Gbps: every
//! packet is checksum-verified and normalized, every fragment defragmented,
//! every TCP connection reassembled into a byte stream, and every stream
//! byte run through the full-signature automaton. It is implemented
//! honestly — bounded state, deterministic eviction, byte-accurate
//! accounting — because the paper's headline claim is a *ratio* against
//! exactly this engine.
//!
//! The automaton is the same [`sd_match::TieredNfa`] the fast path scans
//! pieces with, built over whole signatures. Reassembly hands in-order
//! bytes to it through a sink, straight from the packet where it can, and
//! each direction keeps only a [`StreamTail`] of `longest signature − 1`
//! bytes to find occurrences that straddle segments.

use std::collections::HashMap;
use std::sync::Arc;

use sd_flow::{Direction, FlowKey, SeededState};
use sd_packet::parse::{parse_ipv4, Transport};
use sd_reassembly::conn::ConnState;
use sd_reassembly::defrag::DefragResult;
use sd_reassembly::{Connection, Defragmenter, Normalizer, OverlapPolicy, UrgentSemantics};

use crate::alert::{Alert, AlertSource};
use crate::api::{Ips, ResourceUsage};
use crate::signature::SignatureSet;
use crate::stream::{StreamScanner, StreamTail};

/// Default cap on simultaneously tracked connections ("state for 1 million
/// connections" is the paper's sizing point; tests use smaller tables).
pub const DEFAULT_MAX_CONNECTIONS: usize = 1 << 20;

/// Fixed overhead charged per tracked connection (key, hash-map slot,
/// lifecycle bookkeeping) on top of the reassembly buffers.
pub const CONN_OVERHEAD_BYTES: usize = 48;

struct ConnEntry {
    conn: Connection,
    /// Per direction: the last `longest signature − 1` delivered bytes and
    /// the stream offset, all the matching state a stream needs.
    tails: [StreamTail; 2],
    last_tick: u64,
    mem: usize,
}

impl ConnEntry {
    fn memory_bytes(&self) -> usize {
        CONN_OVERHEAD_BYTES
            + 2 * StreamTail::STATE_BYTES
            + self.conn.memory_bytes()
            + self.tails[0].len()
            + self.tails[1].len()
    }
}

/// Configuration for [`ConventionalIps`].
#[derive(Debug, Clone, Copy)]
pub struct ConventionalConfig {
    /// Overlap policy used for TCP and IP reassembly (must match the
    /// protected hosts for soundness; E9 evaluates all four).
    pub policy: OverlapPolicy,
    /// Maximum tracked connections; least-recently-active is evicted.
    pub max_connections: usize,
    /// Urgent-octet delivery semantics of the protected hosts (must match
    /// the victim's or the urgent-chaff evasion succeeds — E1 shows the
    /// mismatch case).
    pub urgent: UrgentSemantics,
}

impl Default for ConventionalConfig {
    fn default() -> Self {
        ConventionalConfig {
            policy: OverlapPolicy::First,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            urgent: UrgentSemantics::DiscardOne,
        }
    }
}

/// The conventional IPS baseline.
pub struct ConventionalIps {
    scanner: Arc<StreamScanner>,
    /// Scratch for the scanner's junction scans.
    junction: Vec<u8>,
    normalizer: Normalizer,
    defrag: Defragmenter,
    /// Probed on every packet: keyed with the flow-key hash, not SipHash.
    conns: HashMap<FlowKey, ConnEntry, SeededState>,
    config: ConventionalConfig,
    usage: ResourceUsage,
    /// Running sum of per-connection memory, kept incrementally so state
    /// accounting is O(1) per packet.
    conn_state_bytes: u64,
    evictions: u64,
}

impl ConventionalIps {
    /// Build with the default configuration.
    pub fn new(sigs: SignatureSet) -> Self {
        Self::with_config(sigs, ConventionalConfig::default())
    }

    /// Build with an explicit configuration.
    pub fn with_config(sigs: SignatureSet, config: ConventionalConfig) -> Self {
        Self::with_scanner(Arc::new(StreamScanner::new(&sigs)), config)
    }

    /// Build around a scanner compiled elsewhere and shared with every
    /// engine built from the same compile.
    pub fn with_scanner(scanner: Arc<StreamScanner>, config: ConventionalConfig) -> Self {
        ConventionalIps {
            scanner,
            junction: Vec::new(),
            normalizer: Normalizer::new(),
            defrag: Defragmenter::new(config.policy),
            conns: HashMap::with_hasher(SeededState::new()),
            config,
            usage: ResourceUsage::default(),
            conn_state_bytes: 0,
            evictions: 0,
        }
    }

    /// The compiled scanner this engine shares.
    pub fn scanner(&self) -> &Arc<StreamScanner> {
        &self.scanner
    }

    /// Swap in a newly compiled scanner (live rule reload), keeping all
    /// reassembly state — buffers, sequence tracking, and connection
    /// lifecycle carry straight across. Each stream keeps its tail,
    /// trimmed to the new window: the tail is plain bytes, so the next
    /// junction scan runs it under the new rules, and a signature
    /// occurrence whose bytes straddle the reload instant (some delivered
    /// before, some after) is still detected the moment its remaining
    /// bytes arrive.
    pub fn install(&mut self, scanner: Arc<StreamScanner>) {
        self.scanner = scanner;
        for entry in self.conns.values_mut() {
            let mem_before = entry.mem;
            for tail in &mut entry.tails {
                tail.trim(self.scanner.window());
            }
            entry.mem = entry.memory_bytes();
            self.conn_state_bytes = self.conn_state_bytes + entry.mem as u64 - mem_before as u64;
        }
    }

    /// Connections currently tracked.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Connections evicted at the table cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Normalizer drop counters.
    pub fn normalizer_stats(&self) -> sd_reassembly::normalize::NormalizerStats {
        self.normalizer.stats()
    }

    /// Matcher automaton size in bytes (shared, not per-flow).
    pub fn automaton_bytes(&self) -> usize {
        self.scanner.memory_bytes()
    }

    /// At the cap, evict the least-recently-active connection to make
    /// room for `flow`; a packet of a tracked connection evicts nothing.
    fn evict_if_full(&mut self, flow: &FlowKey) {
        if self.conns.len() < self.config.max_connections || self.conns.contains_key(flow) {
            return;
        }
        if let Some(victim) = self
            .conns
            .iter()
            .min_by_key(|(_, e)| e.last_tick)
            .map(|(k, _)| *k)
        {
            if let Some(e) = self.conns.remove(&victim) {
                self.conn_state_bytes -= e.mem as u64;
            }
            self.evictions += 1;
        }
    }
}

impl Ips for ConventionalIps {
    fn name(&self) -> &'static str {
        "conventional"
    }

    fn process_packet(&mut self, packet: &[u8], tick: u64, out: &mut Vec<Alert>) {
        self.usage.packets += 1;

        // 1. Normalize: drop anything the victim's stack would not accept.
        if !self.normalizer.check_ipv4(packet).accepted() {
            self.observe();
            return;
        }

        // 2. Defragment. Fragments are absorbed until a datagram completes;
        // ordinary packets pass through without a copy.
        let datagram: std::borrow::Cow<'_, [u8]> = match self.defrag.push(packet, tick) {
            Ok(DefragResult::PassThrough) => std::borrow::Cow::Borrowed(packet),
            Ok(DefragResult::Complete(d)) => {
                // Re-normalize the completed datagram: the per-fragment pass
                // cannot verify the L4 checksum or TCP flag sanity (step 1
                // accepts fragments on the promise that the whole gets
                // re-checked). The victim's stack verifies after reassembly
                // too, so a datagram rejected here must never reach stream
                // reassembly — the differential fuzzing oracle found that
                // skipping this lets a fragmented bad-checksum twin occupy
                // the signature's sequence range and mask the real bytes.
                if !self.normalizer.check_ipv4(&d).accepted() {
                    self.observe();
                    return;
                }
                std::borrow::Cow::Owned(d)
            }
            Ok(DefragResult::Absorbed) | Err(_) => {
                self.observe();
                return;
            }
        };

        // 3. Parse the (now complete) datagram.
        let Ok(parsed) = parse_ipv4(&datagram) else {
            self.observe();
            return;
        };

        match parsed.transport {
            Transport::Tcp(info) => {
                let Some((flow, dir)) = FlowKey::from_parsed(&parsed) else {
                    self.observe();
                    return;
                };
                self.usage.payload_bytes += info.payload.len() as u64;
                self.evict_if_full(&flow);
                let policy = self.config.policy;
                let urgent = self.config.urgent;
                let entry = self.conns.entry(flow).or_insert_with(|| ConnEntry {
                    conn: Connection::new(policy).with_urgent(urgent),
                    tails: [StreamTail::new(), StreamTail::new()],
                    last_tick: tick,
                    mem: 0,
                });
                let mem_before = entry.mem;
                entry.last_tick = tick;

                let tail = &mut entry.tails[match dir {
                    Direction::Forward => 0,
                    Direction::Backward => 1,
                }];
                let (scanner, junction, usage) =
                    (&*self.scanner, &mut self.junction, &mut self.usage);
                let scan = |bytes: &[u8]| {
                    usage.bytes_scanned += bytes.len() as u64;
                    scanner.feed(tail, bytes, junction, |signature, offset| {
                        usage.alerts += 1;
                        out.push(Alert {
                            flow,
                            signature: signature as usize,
                            offset,
                            source: AlertSource::Stream,
                        });
                    });
                };
                entry.conn.on_segment(dir, &info.repr, info.payload, scan);
                self.usage.bytes_buffered_total += info.payload.len() as u64;

                let closed = entry.conn.state() == ConnState::Closed;
                entry.mem = entry.memory_bytes();
                self.conn_state_bytes =
                    self.conn_state_bytes + entry.mem as u64 - mem_before as u64;
                if closed {
                    if let Some(e) = self.conns.remove(&flow) {
                        self.conn_state_bytes -= e.mem as u64;
                    }
                }
            }
            Transport::Udp(info) => {
                let Some((flow, _)) = FlowKey::from_parsed(&parsed) else {
                    self.observe();
                    return;
                };
                self.usage.payload_bytes += info.payload.len() as u64;
                self.usage.bytes_scanned += info.payload.len() as u64;
                for m in self.scanner.find_all(info.payload) {
                    self.usage.alerts += 1;
                    out.push(Alert {
                        flow,
                        signature: m.pattern as usize,
                        offset: m.end as u64,
                        source: AlertSource::Packet,
                    });
                }
            }
            _ => {}
        }
        self.observe();
    }

    fn finish(&mut self, _out: &mut Vec<Alert>) {
        // Stream matching is incremental; nothing is pending at trace end.
    }

    fn resources(&self) -> ResourceUsage {
        self.usage
    }
}

impl ConventionalIps {
    fn observe(&mut self) {
        let state = self.conn_state_bytes + self.defrag.memory_bytes() as u64;
        self.usage.observe_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::run_trace;
    use crate::signature::Signature;
    use sd_packet::builder::TcpPacketSpec;
    use sd_packet::frag::fragment_ipv4;
    use sd_packet::tcp::TcpFlags;

    fn sigs() -> SignatureSet {
        SignatureSet::from_signatures([Signature::new("evil", &b"EVIL_SIGNATURE_BYTES"[..])])
    }

    /// A live reload as an engine performs it: compile, then install.
    fn reload(ips: &mut ConventionalIps, sigs: SignatureSet) {
        ips.install(Arc::new(StreamScanner::new(&sigs)));
    }

    fn tcp_pkt(seq: u32, payload: &[u8]) -> Vec<u8> {
        TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(seq)
            .flags(TcpFlags::ACK)
            .payload(payload)
            .build()
    }

    #[test]
    fn detects_signature_in_one_packet() {
        let mut ips = ConventionalIps::new(sigs());
        let pkts = [tcp_pkt(1000, b"xxEVIL_SIGNATURE_BYTESxx")];
        let alerts = run_trace(&mut ips, pkts.iter().map(|p| p.as_slice()));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].signature, 0);
        assert_eq!(alerts[0].source, AlertSource::Stream);
    }

    #[test]
    fn detects_signature_split_across_segments() {
        let mut ips = ConventionalIps::new(sigs());
        let pkts = [
            tcp_pkt(1000, b"....EVIL_SIGN"),
            tcp_pkt(1013, b"ATURE_BYTES...."),
        ];
        let alerts = run_trace(&mut ips, pkts.iter().map(|p| p.as_slice()));
        assert_eq!(alerts.len(), 1, "reassembly must join the halves");
    }

    #[test]
    fn detects_signature_over_segments_shorter_than_the_window() {
        // Five segments of at most 6 bytes against a 19-byte window: the
        // occurrence starts in one segment's tail bytes and ends three
        // segments later, and is reported once at its true end offset.
        let mut ips = ConventionalIps::new(sigs());
        let pkts = [
            tcp_pkt(1000, b"..EVIL"),
            tcp_pkt(1006, b"_SIGNA"),
            tcp_pkt(1012, b"TURE_"),
            tcp_pkt(1017, b"BYTE"),
            tcp_pkt(1021, b"S...."),
        ];
        let alerts = run_trace(&mut ips, pkts.iter().map(|p| p.as_slice()));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].offset, 22);
    }

    #[test]
    fn detects_signature_in_out_of_order_segments() {
        // The SYN pins the stream origin; without it a mid-stream pickup
        // adopts the first-seen segment as the base and cannot place
        // earlier-sequence data (the documented mid-stream limitation).
        let mut ips = ConventionalIps::new(sigs());
        let syn = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(999)
            .flags(TcpFlags::SYN)
            .build();
        let pkts = [
            syn,
            tcp_pkt(1013, b"ATURE_BYTES...."),
            tcp_pkt(1000, b"....EVIL_SIGN"),
        ];
        let alerts = run_trace(&mut ips, pkts.iter().map(|p| p.as_slice()));
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn detects_signature_across_ip_fragments() {
        let mut ips = ConventionalIps::new(sigs());
        let frame = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(500)
            .payload(b"____EVIL_SIGNATURE_BYTES____")
            .dont_frag(false)
            .build();
        let frags = fragment_ipv4(&frame, 16).unwrap();
        let alerts = run_trace(&mut ips, frags.iter().map(|p| p.as_slice()));
        assert_eq!(alerts.len(), 1, "defrag must restore the datagram");
    }

    #[test]
    fn ignores_bad_checksum_chaff() {
        let mut ips = ConventionalIps::new(sigs());
        let mut chaff = tcp_pkt(1000, b"EVIL_SIGNATURE_BYTES");
        let last = chaff.len() - 1;
        chaff[last] ^= 0xff; // corrupt payload; checksum now wrong
        let alerts = run_trace(&mut ips, [chaff.as_slice()]);
        assert!(alerts.is_empty(), "chaff must be normalized away");
        assert_eq!(ips.normalizer_stats().bad_l4_checksum, 1);
    }

    #[test]
    fn reassembled_datagram_is_renormalized() {
        // Found by the differential fuzzing oracle (sd-oracle): a garbage
        // twin of the signature segment with a bad TCP checksum, *sent as
        // IP fragments*, sails through the per-fragment normalizer pass
        // (fragments defer L4 checks to post-reassembly) — and if the
        // completed datagram is not re-checked, it occupies the
        // signature's sequence range under First before the real segment
        // arrives, masking bytes the victim (which verifies checksums
        // after reassembly) actually receives.
        let mut ips = ConventionalIps::new(sigs()); // First policy
        let twin = {
            let mut ip = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
                .seq(1000)
                .flags(TcpFlags::ACK)
                .payload(b"garbage_bytes_here_x_garb")
                .dont_frag(false)
                .build();
            let last = ip.len() - 1;
            ip[last] ^= 0xff; // corrupt payload; TCP checksum now wrong
            ip
        };
        let frags = fragment_ipv4(&twin, 16).unwrap();
        assert!(frags.len() > 1, "twin must actually be fragmented");
        let real = tcp_pkt(1000, b"..EVIL_SIGNATURE_BYTES...");
        let mut pkts: Vec<Vec<u8>> = frags;
        pkts.push(real);
        let alerts = run_trace(&mut ips, pkts.iter().map(|p| p.as_slice()));
        assert_eq!(
            alerts.len(),
            1,
            "bad-checksum twin must be dropped post-defrag, not delivered"
        );
        assert_eq!(ips.normalizer_stats().bad_l4_checksum, 1);
    }

    #[test]
    fn reload_keeps_buffered_reassembly_state() {
        // SYN pins the origin, then out-of-order data is buffered behind a
        // gap. Reloading mid-gap must keep the buffered bytes: when the gap
        // fills, the joined stream is scanned under the *new* DFA and the
        // (still-present) signature matches. A reload that dropped
        // connections would lose the buffered half.
        let mut ips = ConventionalIps::new(sigs());
        let mut out = Vec::new();
        let syn = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(999)
            .flags(TcpFlags::SYN)
            .build();
        ips.process_packet(&syn, 0, &mut out);
        ips.process_packet(&tcp_pkt(1013, b"ATURE_BYTES...."), 1, &mut out);
        assert_eq!(ips.connection_count(), 1);
        assert!(out.is_empty(), "second half is buffered behind the gap");

        let fresh = SignatureSet::from_signatures([
            Signature::new("evil", &b"EVIL_SIGNATURE_BYTES"[..]),
            Signature::new("new", &b"BRAND_NEW_RULE_BYTES"[..]),
        ]);
        reload(&mut ips, fresh);
        assert_eq!(ips.connection_count(), 1, "reload must keep connections");

        // Fill the gap: both halves deliver together and scan as one run.
        ips.process_packet(&tcp_pkt(1000, b"....EVIL_SIGN"), 2, &mut out);
        assert_eq!(out.len(), 1, "buffered bytes survive the reload");
        // The newly added rule matches on the same connection too.
        ips.process_packet(&tcp_pkt(1028, b"..BRAND_NEW_RULE_BYTES.."), 3, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].signature, 1);
    }

    #[test]
    fn reload_detects_signature_straddling_the_swap() {
        // First half delivered and scanned before the reload, second half
        // after: the re-anchored matcher carries the tail context across,
        // so the straddling occurrence completes at its true offset. (This
        // was the documented DESIGN §12 gap — a plain matcher reset here
        // silently missed the match.)
        let mut ips = ConventionalIps::new(sigs());
        let mut out = Vec::new();
        ips.process_packet(&tcp_pkt(1000, b"....EVIL_SIGN"), 0, &mut out);
        assert!(out.is_empty(), "half a signature must not alert");

        let fresh = SignatureSet::from_signatures([
            Signature::new("evil", &b"EVIL_SIGNATURE_BYTES"[..]),
            Signature::new("new", &b"BRAND_NEW_RULE_BYTES"[..]),
        ]);
        reload(&mut ips, fresh);

        ips.process_packet(&tcp_pkt(1013, b"ATURE_BYTES...."), 1, &mut out);
        assert_eq!(out.len(), 1, "straddling occurrence must survive reload");
        assert_eq!(out[0].signature, 0);
        assert_eq!(out[0].offset, 24, "absolute stream offset re-anchored");
    }

    #[test]
    fn reload_does_not_rereport_matches_inside_the_tail() {
        // A signature wholly delivered (and alerted) before the reload sits
        // inside the retained tail; replaying it into the fresh matcher
        // must not produce a duplicate alert.
        let mut ips = ConventionalIps::new(sigs());
        let mut out = Vec::new();
        ips.process_packet(&tcp_pkt(1000, b"EVIL_SIGNATURE_BYTES"), 0, &mut out);
        assert_eq!(out.len(), 1);
        reload(&mut ips, sigs());
        ips.process_packet(&tcp_pkt(1020, b"benign continuation."), 1, &mut out);
        assert_eq!(out.len(), 1, "tail replay must stay silent");
    }

    #[test]
    fn reload_retires_old_rules() {
        let mut ips = ConventionalIps::new(sigs());
        let only = Signature::new("only", &b"SOMETHING_ELSE_ENTIRELY"[..]);
        reload(&mut ips, SignatureSet::from_signatures([only]));
        let alerts = run_trace(
            &mut ips,
            [tcp_pkt(1000, b"xxEVIL_SIGNATURE_BYTESxx").as_slice()],
        );
        assert!(alerts.is_empty(), "retired signature must stop matching");
        let alerts = run_trace(
            &mut ips,
            [tcp_pkt(1024, b"xxSOMETHING_ELSE_ENTIRELYxx").as_slice()],
        );
        assert_eq!(alerts.len(), 1, "the installed rule matches");
        assert_eq!(alerts[0].signature, 0);
    }

    #[test]
    fn no_false_alerts_on_benign_traffic() {
        let mut ips = ConventionalIps::new(sigs());
        let pkts: Vec<Vec<u8>> = (0..20)
            .map(|i| tcp_pkt(1000 + i * 10, b"plain data"))
            .collect();
        let alerts = run_trace(&mut ips, pkts.iter().map(|p| p.as_slice()));
        assert!(alerts.is_empty());
        let r = ips.resources();
        assert_eq!(r.packets, 20);
        assert!(r.bytes_scanned > 0);
    }

    #[test]
    fn both_directions_scanned_independently() {
        let mut ips = ConventionalIps::new(sigs());
        let fwd = tcp_pkt(1000, b"EVIL_SIGNA");
        let bwd = TcpPacketSpec::new("10.0.0.2:80", "10.0.0.1:4000")
            .seq(2000)
            .flags(TcpFlags::ACK)
            .payload(b"TURE_BYTES")
            .build();
        // Halves on *different directions* must NOT concatenate.
        let alerts = run_trace(&mut ips, [fwd.as_slice(), bwd.as_slice()]);
        assert!(alerts.is_empty(), "directions are separate streams");
    }

    #[test]
    fn connection_state_reclaimed_on_close() {
        let mut ips = ConventionalIps::new(sigs());
        let mut alerts = Vec::new();
        let syn = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(999)
            .flags(TcpFlags::SYN)
            .build();
        ips.process_packet(&syn, 0, &mut alerts);
        assert_eq!(ips.connection_count(), 1);
        let rst = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(1000)
            .flags(TcpFlags::RST)
            .build();
        ips.process_packet(&rst, 1, &mut alerts);
        assert_eq!(ips.connection_count(), 0, "RST must reclaim state");
        assert_eq!(ips.resources().state_bytes, 0);
    }

    #[test]
    fn connection_cap_evicts_lru() {
        let mut ips = ConventionalIps::with_config(
            sigs(),
            ConventionalConfig {
                max_connections: 4,
                ..Default::default()
            },
        );
        let mut alerts = Vec::new();
        for i in 0..8u16 {
            let f = TcpPacketSpec::new(&format!("10.0.0.1:{}", 1000 + i), "10.0.0.2:80")
                .seq(1)
                .flags(TcpFlags::ACK)
                .payload(b"hello")
                .build();
            ips.process_packet(&f, i as u64, &mut alerts);
        }
        assert!(ips.connection_count() <= 4);
        assert_eq!(ips.evictions(), 4);
    }

    #[test]
    fn tracked_connection_at_the_cap_evicts_nothing() {
        // Two connections fill a cap of 2; the older one's next segment
        // must find its stream (and the signature's first half) in place.
        let mut ips = ConventionalIps::with_config(
            sigs(),
            ConventionalConfig {
                max_connections: 2,
                ..Default::default()
            },
        );
        let other = TcpPacketSpec::new("10.0.0.3:5000", "10.0.0.2:80")
            .seq(1)
            .flags(TcpFlags::ACK)
            .payload(b"hello")
            .build();
        let pkts = [
            tcp_pkt(1000, b"....EVIL_SIGN"),
            other,
            tcp_pkt(1013, b"ATURE_BYTES...."),
        ];
        let alerts = run_trace(&mut ips, pkts.iter().map(|p| p.as_slice()));
        assert_eq!(ips.evictions(), 0);
        assert_eq!(ips.connection_count(), 2);
        assert_eq!(alerts.len(), 1, "the older stream kept its first half");
    }

    #[test]
    fn state_accounting_is_positive_and_peaks() {
        let mut ips = ConventionalIps::new(sigs());
        let mut alerts = Vec::new();
        // Out-of-order data forces buffering.
        ips.process_packet(&tcp_pkt(5000, b"buffered-bytes!!"), 0, &mut alerts);
        let r = ips.resources();
        assert!(r.state_bytes > 0);
        assert_eq!(r.state_bytes_peak, r.state_bytes);
        assert!(r.bytes_buffered_total >= 16);
    }

    #[test]
    fn udp_scanned_per_datagram() {
        use sd_packet::builder::UdpPacketSpec;
        let mut ips = ConventionalIps::new(sigs());
        let f = UdpPacketSpec::new("10.0.0.1:53", "10.0.0.2:53")
            .payload(b"..EVIL_SIGNATURE_BYTES..")
            .build();
        let alerts = run_trace(&mut ips, [f.as_slice()]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].source, AlertSource::Packet);
    }
}
