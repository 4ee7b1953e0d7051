//! Benign traffic generation.
//!
//! The paper's trace-driven numbers depend on three statistics of real
//! traffic, and this generator reproduces exactly those, seeded and
//! deterministic:
//!
//! 1. **packet-size mix** — a large pure-ACK mass (40-byte datagrams), data
//!    concentrated at the MSS (1460) with a secondary mode at 576, and a
//!    small-write tail from interactive flows. This drives the
//!    small-segment rule's benign false-diversion rate (E3).
//! 2. **payload byte statistics** — HTTP-like text by default, which drives
//!    the piece false-match rate (E4/E5).
//! 3. **flow size/concurrency structure** — heavy-tailed (bounded Pareto)
//!    flow lengths with Poisson arrivals, plus a fully-concurrent session
//!    mode for the state-vs-connections sweeps (E2/E8).
//!
//! A small fraction of flows is *interactive* (telnet/ssh-like): many tiny
//! writes. These are the benign flows the small-segment rule inevitably
//! diverts — the paper's reason the threshold must be tuned, and exactly
//! what E3 quantifies.

use std::net::{Ipv4Addr, SocketAddrV4};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_packet::builder::TcpPacketSpec;
use sd_packet::tcp::TcpFlags;

use crate::payload::PayloadModel;
use crate::trace::{Trace, TracePacket};

/// Maximum segment size used for bulk data.
pub const MSS: usize = 1460;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenignConfig {
    /// RNG seed; identical configs generate identical traces.
    pub seed: u64,
    /// Number of flows.
    pub flows: usize,
    /// Pareto shape for flow sizes (smaller = heavier tail).
    pub pareto_alpha: f64,
    /// Minimum application bytes per flow.
    pub min_flow_bytes: usize,
    /// Cap on application bytes per flow.
    pub max_flow_bytes: usize,
    /// Fraction of flows that are interactive (small writes).
    pub interactive_fraction: f64,
    /// Per-data-packet probability of benign reordering (adjacent swap).
    pub reorder_prob: f64,
    /// Payload byte model.
    pub payload: PayloadModel,
    /// Mean inter-flow arrival gap in microseconds (Poisson arrivals).
    pub mean_arrival_gap_us: f64,
    /// Generate server→client data and ACKs too.
    pub bidirectional: bool,
}

impl Default for BenignConfig {
    fn default() -> Self {
        BenignConfig {
            seed: 1,
            flows: 100,
            pareto_alpha: 1.2,
            min_flow_bytes: 300,
            max_flow_bytes: 200 * 1024,
            interactive_fraction: 0.05,
            reorder_prob: 0.01,
            payload: PayloadModel::HttpLike,
            mean_arrival_gap_us: 500.0,
            bidirectional: true,
        }
    }
}

/// Seeded benign traffic generator.
#[derive(Debug)]
pub struct BenignGenerator {
    config: BenignConfig,
    rng: StdRng,
}

impl BenignGenerator {
    /// Build from a config.
    pub fn new(config: BenignConfig) -> Self {
        BenignGenerator {
            rng: StdRng::seed_from_u64(config.seed),
            config,
        }
    }

    fn client_addr(&mut self, i: usize) -> SocketAddrV4 {
        let ip = Ipv4Addr::new(
            10,
            (1 + (i >> 16)) as u8,
            ((i >> 8) & 0xff) as u8,
            (i & 0xff) as u8,
        );
        SocketAddrV4::new(ip, self.rng.gen_range(1025..65000))
    }

    fn server_addr(&mut self) -> SocketAddrV4 {
        // A pool of "popular servers" so traffic shows realistic locality.
        let ip = Ipv4Addr::new(192, 168, 0, self.rng.gen_range(1..32));
        let port = *[80u16, 80, 80, 443, 443, 25, 110]
            .get(self.rng.gen_range(0..7))
            .expect("static table");
        SocketAddrV4::new(ip, port)
    }

    /// Heavy-tailed flow size: a bounded-Pareto body of mice plus an
    /// explicit elephant class (~15 % of flows, tens-to-hundreds of kB) —
    /// the split backbone measurements consistently show, and what puts
    /// the byte mass into MSS-sized packets.
    fn flow_bytes(&mut self) -> usize {
        let c = &self.config;
        if self.rng.gen_bool(0.15) {
            return self
                .rng
                .gen_range(20 * 1024..=c.max_flow_bytes.max(20 * 1024 + 1));
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let x = c.min_flow_bytes as f64 * (1.0 - u).powf(-1.0 / c.pareto_alpha);
        (x as usize).clamp(c.min_flow_bytes, c.max_flow_bytes)
    }

    /// Segment sizes for one flow's byte total.
    fn segment_sizes(&mut self, total: usize, interactive: bool) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut left = total;
        while left > 0 {
            let s = if interactive {
                // Keystrokes / line-buffered writes.
                self.rng.gen_range(1..48).min(left)
            } else if left >= MSS && self.rng.gen_bool(0.85) {
                MSS
            } else if left >= 576 && self.rng.gen_bool(0.6) {
                576
            } else {
                // Flush the remainder in one write, the way a sender's
                // buffer drains: bulk flows produce at most one sub-MSS
                // tail segment, matching observed traffic (and keeping the
                // benign small-segment count within any sane budget).
                left.min(MSS)
            };
            sizes.push(s);
            left -= s;
        }
        sizes
    }

    /// Generate one complete flow's packets starting at `t0` (micros).
    /// Returns (packets, end_time).
    fn flow(&mut self, i: usize, t0: u64) -> (Vec<TracePacket>, u64) {
        let client = self.client_addr(i);
        let server = self.server_addr();
        let interactive = self.rng.gen_bool(self.config.interactive_fraction);
        let total = if interactive {
            self.flow_bytes().min(2048) // interactive sessions are small
        } else {
            self.flow_bytes()
        };
        let payload = {
            // Borrow juggling: PayloadModel::fill needs a fresh rng borrow.
            let model = self.config.payload;
            let mut buf = Vec::new();
            model.fill(&mut self.rng, total, &mut buf);
            buf
        };

        let isn_c: u32 = self.rng.gen();
        let isn_s: u32 = self.rng.gen();
        let mut t = t0;
        let mut pkts: Vec<TracePacket> = Vec::new();

        let c2s = |seq: u32, flags: TcpFlags, data: &[u8]| {
            TcpPacketSpec::between(client, server)
                .seq(seq)
                .flags(flags)
                .payload(data)
                .build()
        };
        let s2c = |seq: u32, flags: TcpFlags, data: &[u8]| {
            TcpPacketSpec::between(server, client)
                .seq(seq)
                .flags(flags)
                .payload(data)
                .build()
        };

        // Handshake, with the options every modern SYN carries.
        let syn_options = [
            sd_packet::tcp::TcpOption::Mss(1460),
            sd_packet::tcp::TcpOption::SackPermitted,
            sd_packet::tcp::TcpOption::WindowScale(7),
        ];
        t += self.rng.gen_range(20..200);
        let syn = TcpPacketSpec::between(client, server)
            .seq(isn_c.wrapping_sub(0))
            .flags(TcpFlags::SYN)
            .tcp_options(&syn_options)
            .build();
        pkts.push(TracePacket::new(t, syn));
        if self.config.bidirectional {
            t += self.rng.gen_range(20..200);
            let synack = TcpPacketSpec::between(server, client)
                .seq(isn_s)
                .flags(TcpFlags::SYN.union(TcpFlags::ACK))
                .tcp_options(&syn_options)
                .build();
            pkts.push(TracePacket::new(t, synack));
            t += self.rng.gen_range(20..200);
            pkts.push(TracePacket::new(t, c2s(isn_c + 1, TcpFlags::ACK, b"")));
        }

        // Data with interleaved pure ACKs from the server.
        let sizes = self.segment_sizes(payload.len(), interactive);
        let mut off = 0usize;
        let mut data_pkts: Vec<TracePacket> = Vec::new();
        for s in sizes {
            t += self.rng.gen_range(20..400);
            let packet = c2s(
                isn_c + 1 + off as u32,
                TcpFlags::ACK.union(TcpFlags::PSH),
                &payload[off..off + s],
            );
            data_pkts.push(TracePacket::new(t, packet));
            off += s;
            if self.config.bidirectional && self.rng.gen_bool(0.5) {
                t += self.rng.gen_range(10..100);
                let ack = s2c(isn_s + 1, TcpFlags::ACK, b"");
                data_pkts.push(TracePacket::new(t, ack));
            }
        }
        // Benign reordering: swap adjacent timestamps with low probability.
        for i in 1..data_pkts.len() {
            if self.rng.gen_bool(self.config.reorder_prob) {
                let (a, b) = (data_pkts[i - 1].ts_micros, data_pkts[i].ts_micros);
                data_pkts[i - 1].ts_micros = b;
                data_pkts[i].ts_micros = a;
            }
        }
        pkts.extend(data_pkts);

        // Teardown.
        t += self.rng.gen_range(20..200);
        pkts.push(TracePacket::new(
            t,
            c2s(
                isn_c + 1 + off as u32,
                TcpFlags::FIN.union(TcpFlags::ACK),
                b"",
            ),
        ));
        if self.config.bidirectional {
            t += self.rng.gen_range(20..200);
            pkts.push(TracePacket::new(
                t,
                s2c(isn_s + 1, TcpFlags::FIN.union(TcpFlags::ACK), b""),
            ));
        }
        (pkts, t)
    }

    /// Generate the full trace: flows arrive by a Poisson process and run
    /// to completion (states overlap naturally).
    pub fn generate(&mut self) -> Trace {
        let mut all = Vec::new();
        let mut t0 = 0u64;
        for i in 0..self.config.flows {
            let gap =
                -self.config.mean_arrival_gap_us * (1.0 - self.rng.gen_range(0.0..1.0f64)).ln();
            t0 += gap as u64;
            let (pkts, _) = self.flow(i, t0);
            all.extend(pkts);
        }
        Trace::from_packets(all)
    }

    /// Generate `n` sessions that are all *simultaneously open*: every SYN
    /// first, then data round-robin, then teardown — the worst-case
    /// concurrency the state experiments (E2/E8) size for.
    pub fn generate_concurrent(&mut self, n: usize, bytes_per_flow: usize) -> Trace {
        let mut all = Vec::new();
        let mut t = 0u64;
        let mut flows = Vec::with_capacity(n);
        for i in 0..n {
            let client = self.client_addr(i);
            let server = self.server_addr();
            let isn: u32 = self.rng.gen();
            let model = self.config.payload;
            let mut payload = Vec::new();
            model.fill(&mut self.rng, bytes_per_flow, &mut payload);
            flows.push((client, server, isn, payload));
            let syn = TcpPacketSpec::between(client, server)
                .seq(isn)
                .flags(TcpFlags::SYN)
                .build();
            t += 1;
            all.push(TracePacket::new(t, syn));
        }
        // Round-robin data until all flows drain.
        let mut offsets = vec![0usize; n];
        let mut live = n;
        while live > 0 {
            live = 0;
            for (i, (client, server, isn, payload)) in flows.iter().enumerate() {
                if offsets[i] >= payload.len() {
                    continue;
                }
                live += 1;
                let s = offsets[i];
                let e = (s + MSS).min(payload.len());
                let packet = TcpPacketSpec::between(*client, *server)
                    .seq(isn.wrapping_add(1).wrapping_add(s as u32))
                    .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                    .payload(&payload[s..e])
                    .build();
                t += 1;
                all.push(TracePacket::new(t, packet));
                offsets[i] = e;
            }
        }
        // No FINs: the connections stay open, so engines must hold state
        // for all n at once (that is the point of this mode).
        Trace::from_packets(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_packet::parse::parse_ipv4;

    #[test]
    fn deterministic_given_seed() {
        let cfg = BenignConfig {
            flows: 10,
            ..Default::default()
        };
        let a = BenignGenerator::new(cfg).generate();
        let b = BenignGenerator::new(cfg).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = BenignGenerator::new(BenignConfig {
            flows: 5,
            ..Default::default()
        })
        .generate();
        let b = BenignGenerator::new(BenignConfig {
            flows: 5,
            seed: 2,
            ..Default::default()
        })
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn all_packets_parse() {
        let t = BenignGenerator::new(BenignConfig {
            flows: 20,
            ..Default::default()
        })
        .generate();
        for p in &t.packets {
            parse_ipv4(&p.data).expect("generated packet must parse");
        }
    }

    #[test]
    fn flow_count_matches_config() {
        let t = BenignGenerator::new(BenignConfig {
            flows: 15,
            ..Default::default()
        })
        .generate();
        assert_eq!(t.flow_count(), 15);
    }

    #[test]
    fn packet_size_mix_has_ack_and_mss_modes() {
        let t = BenignGenerator::new(BenignConfig {
            flows: 60,
            seed: 3,
            ..Default::default()
        })
        .generate();
        let mut acks = 0usize;
        let mut mss = 0usize;
        for p in &t.packets {
            match p.data.len() {
                40 => acks += 1,                // header-only
                l if l == 40 + MSS => mss += 1, // full-size data
                _ => {}
            }
        }
        assert!(acks > t.len() / 10, "expect a pure-ACK mass, got {acks}");
        assert!(mss > 0, "expect MSS-sized data packets");
    }

    #[test]
    fn interactive_flows_send_small_segments() {
        let t = BenignGenerator::new(BenignConfig {
            flows: 40,
            interactive_fraction: 1.0, // all interactive
            seed: 4,
            ..Default::default()
        })
        .generate();
        let small_data = t
            .packets
            .iter()
            .filter(|p| {
                let l = p.data.len();
                l > 40 && l < 40 + 48
            })
            .count();
        assert!(small_data > 50, "interactive flows must write small");
    }

    #[test]
    fn concurrent_mode_opens_everything_at_once() {
        let mut g = BenignGenerator::new(BenignConfig::default());
        let t = g.generate_concurrent(50, 4000);
        assert_eq!(t.flow_count(), 50);
        // First 50 packets are the SYNs.
        for p in &t.packets[..50] {
            let parsed = parse_ipv4(&p.data).unwrap();
            let tcp = parsed.tcp().unwrap();
            assert!(tcp.repr.flags.syn());
        }
        // No FINs anywhere.
        for p in &t.packets {
            let parsed = parse_ipv4(&p.data).unwrap();
            if let Some(tcp) = parsed.tcp() {
                assert!(!tcp.repr.flags.fin());
            }
        }
    }

    #[test]
    fn timestamps_nondecreasing() {
        let t = BenignGenerator::new(BenignConfig {
            flows: 10,
            seed: 9,
            ..Default::default()
        })
        .generate();
        for w in t.packets.windows(2) {
            assert!(w[0].ts_micros <= w[1].ts_micros);
        }
    }
}
