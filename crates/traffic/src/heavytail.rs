//! Heavy-tailed, high-churn workloads for the flow-state-at-scale sweeps.
//!
//! [`BenignGenerator`](crate::benign::BenignGenerator) models a calibrated
//! packet-size/payload mix; this module isolates the *flow-population*
//! dimension instead. The occupancy experiments (E20) need two knobs the
//! benign generator does not expose directly:
//!
//! 1. **Zipf flow sizes** — a discrete Zipf rank distribution mapped onto a
//!    geometric size grid, so a handful of elephant flows carry most of the
//!    bytes while the mouse tail dominates the *flow count*. That is the
//!    regime in which a fixed-capacity flow table earns (or loses) its
//!    keep: the table must hold the mice without letting their churn evict
//!    the elephants mid-transfer.
//! 2. **Configurable churn** — flows complete and are immediately replaced
//!    by fresh 5-tuples, holding concurrency at a target while continually
//!    forcing new inserts (and, past capacity, CLOCK evictions).
//!
//! Everything is seeded and deterministic: identical configs generate
//! identical traces, so the oracle can embed heavy-tail background noise in
//! trace programs without breaking reproducibility.

use std::net::{Ipv4Addr, SocketAddrV4};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_packet::builder::TcpPacketSpec;
use sd_packet::tcp::TcpFlags;

use crate::benign::MSS;
use crate::trace::{Trace, TracePacket};

/// Discrete Zipf sampler over a geometric grid of flow sizes.
///
/// Rank `k` (1-based) has probability proportional to `1 / k^alpha`; rank 1
/// maps to `min_bytes` (mice are common) and the last rank to `max_bytes`
/// (elephants are rare), with geometric interpolation between them.
/// Sampling is a uniform draw plus a binary search in the precomputed CDF —
/// no allocation after construction.
#[derive(Debug, Clone)]
pub struct ZipfSizes {
    cdf: Vec<f64>,
    sizes: Vec<usize>,
}

impl ZipfSizes {
    /// Build a sampler with `ranks` size classes between `min_bytes` and
    /// `max_bytes` and Zipf exponent `alpha` (larger = steeper tail).
    pub fn new(alpha: f64, min_bytes: usize, max_bytes: usize, ranks: usize) -> Self {
        let ranks = ranks.max(1);
        let min_bytes = min_bytes.max(1);
        let max_bytes = max_bytes.max(min_bytes);
        let ratio = max_bytes as f64 / min_bytes as f64;
        let mut cdf = Vec::with_capacity(ranks);
        let mut sizes = Vec::with_capacity(ranks);
        let mut acc = 0.0f64;
        for k in 1..=ranks {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
            // Geometric interpolation: rank 1 → min, rank `ranks` → max.
            let frac = if ranks == 1 {
                1.0
            } else {
                (k - 1) as f64 / (ranks - 1) as f64
            };
            sizes.push(((min_bytes as f64) * ratio.powf(frac)).round() as usize);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        ZipfSizes { cdf, sizes }
    }

    /// Draw one flow size.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        let idx = self.cdf.partition_point(|&c| c < u);
        self.sizes[idx.min(self.sizes.len() - 1)]
    }

    /// The size grid (rank order, smallest first). Exposed for tests and
    /// bench reporting.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }
}

/// Configuration for [`HeavyTailGenerator`].
#[derive(Debug, Clone, Copy)]
pub struct HeavyTailConfig {
    /// RNG seed; identical configs generate identical traces.
    pub seed: u64,
    /// Flows kept simultaneously open (the occupancy target).
    pub concurrency: usize,
    /// Total distinct flows generated across the trace lifetime. Must be
    /// ≥ `concurrency`; the surplus is what churn turns over.
    pub total_flows: usize,
    /// Zipf exponent for flow sizes (≈1.1–1.3 matches backbone traces).
    pub alpha: f64,
    /// Smallest flow (application bytes).
    pub min_flow_bytes: usize,
    /// Largest flow (application bytes).
    pub max_flow_bytes: usize,
    /// Per-round probability that a random open flow is cut short and
    /// replaced early — churn beyond natural completion. 0.0 disables.
    pub churn: f64,
}

impl Default for HeavyTailConfig {
    fn default() -> Self {
        HeavyTailConfig {
            seed: 1,
            concurrency: 64,
            total_flows: 256,
            alpha: 1.2,
            min_flow_bytes: 256,
            max_flow_bytes: 512 * 1024,
            churn: 0.02,
        }
    }
}

/// One open flow's progress.
#[derive(Debug)]
struct OpenFlow {
    client: SocketAddrV4,
    server: SocketAddrV4,
    isn: u32,
    total: usize,
    sent: usize,
}

/// Seeded heavy-tail generator: a closed-loop flow population with Zipf
/// sizes and configurable replacement churn.
#[derive(Debug)]
pub struct HeavyTailGenerator {
    config: HeavyTailConfig,
    rng: StdRng,
    zipf: ZipfSizes,
}

impl HeavyTailGenerator {
    /// Build from a config.
    pub fn new(config: HeavyTailConfig) -> Self {
        let zipf = ZipfSizes::new(
            config.alpha,
            config.min_flow_bytes,
            config.max_flow_bytes,
            64,
        );
        HeavyTailGenerator {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            zipf,
        }
    }

    fn open_flow(&mut self, id: usize) -> OpenFlow {
        // Disjoint from benign (10.x) and oracle decoy (10.77.x) space.
        let client = SocketAddrV4::new(
            Ipv4Addr::new(
                172,
                (16 + (id >> 16) % 16) as u8,
                ((id >> 8) & 0xff) as u8,
                (id & 0xff) as u8,
            ),
            1025 + (id % 60000) as u16,
        );
        let server = SocketAddrV4::new(
            Ipv4Addr::new(192, 168, 1, 1 + (id % 32) as u8),
            if id % 3 == 0 { 443 } else { 80 },
        );
        OpenFlow {
            client,
            server,
            isn: self.rng.gen(),
            total: self.zipf.sample(&mut self.rng),
            sent: 0,
        }
    }

    /// Generate the trace: open `concurrency` flows, then round-robin one
    /// segment per open flow per round; completed (or churned-out) flows
    /// close with a FIN and are replaced until `total_flows` have run.
    pub fn generate(&mut self) -> Trace {
        let c = self.config;
        let concurrency = c.concurrency.max(1);
        let total_flows = c.total_flows.max(concurrency);
        let mut t = 0u64;
        let mut pkts: Vec<TracePacket> = Vec::new();
        let mut open: Vec<OpenFlow> = Vec::with_capacity(concurrency);
        let mut started = 0usize;

        let syn = |f: &OpenFlow, t: &mut u64, pkts: &mut Vec<TracePacket>| {
            let packet = TcpPacketSpec::between(f.client, f.server)
                .seq(f.isn)
                .flags(TcpFlags::SYN)
                .build();
            *t += 1;
            pkts.push(TracePacket::new(*t, packet));
        };

        while started < concurrency.min(total_flows) {
            let f = self.open_flow(started);
            syn(&f, &mut t, &mut pkts);
            open.push(f);
            started += 1;
        }

        // Payload filler: deterministic lowercase text, signature-free.
        let filler: Vec<u8> = (0..MSS).map(|i| b'a' + (i % 26) as u8).collect();

        while !open.is_empty() {
            // Churn: cut one random open flow short this round.
            if c.churn > 0.0 && self.rng.gen_bool(c.churn.min(1.0)) {
                let i = self.rng.gen_range(0..open.len());
                open[i].total = open[i].sent;
            }
            let mut i = 0;
            while i < open.len() {
                let f = &mut open[i];
                if f.sent < f.total {
                    let s = (f.total - f.sent).min(MSS);
                    let packet = TcpPacketSpec::between(f.client, f.server)
                        .seq(f.isn.wrapping_add(1).wrapping_add(f.sent as u32))
                        .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                        .payload(&filler[..s])
                        .build();
                    t += 1;
                    pkts.push(TracePacket::new(t, packet));
                    f.sent += s;
                    i += 1;
                    continue;
                }
                // Finished: FIN, then replace (fresh 5-tuple) if the budget
                // allows, else drop from the open set.
                let fin = TcpPacketSpec::between(f.client, f.server)
                    .seq(f.isn.wrapping_add(1).wrapping_add(f.sent as u32))
                    .flags(TcpFlags::FIN.union(TcpFlags::ACK))
                    .build();
                t += 1;
                pkts.push(TracePacket::new(t, fin));
                if started < total_flows {
                    let fresh = self.open_flow(started);
                    syn(&fresh, &mut t, &mut pkts);
                    open[i] = fresh;
                    started += 1;
                    i += 1;
                } else {
                    open.swap_remove(i);
                }
            }
        }
        Trace::from_packets(pkts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_packet::parse::parse_ipv4;
    use std::collections::HashSet;

    #[test]
    fn deterministic_given_seed() {
        let cfg = HeavyTailConfig {
            concurrency: 16,
            total_flows: 48,
            max_flow_bytes: 16 * 1024,
            ..Default::default()
        };
        let a = HeavyTailGenerator::new(cfg).generate();
        let b = HeavyTailGenerator::new(cfg).generate();
        assert_eq!(a, b);
        assert_ne!(
            a,
            HeavyTailGenerator::new(HeavyTailConfig { seed: 2, ..cfg }).generate()
        );
    }

    #[test]
    fn all_packets_parse_and_flow_count_matches() {
        let cfg = HeavyTailConfig {
            concurrency: 8,
            total_flows: 40,
            max_flow_bytes: 8 * 1024,
            ..Default::default()
        };
        let t = HeavyTailGenerator::new(cfg).generate();
        let mut keys = HashSet::new();
        for p in &t.packets {
            parse_ipv4(&p.data).expect("generated packet must parse");
            keys.insert(p.flow_key().expect("tcp packet has a flow key"));
        }
        assert_eq!(keys.len(), 40, "every budgeted flow must appear");
    }

    #[test]
    fn zipf_sizes_are_heavy_tailed() {
        let z = ZipfSizes::new(1.2, 256, 1 << 20, 64);
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<usize> = (0..4000).map(|_| z.sample(&mut rng)).collect();
        let total: u64 = draws.iter().map(|&d| d as u64).sum();
        let mut sorted = draws.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = sorted[..draws.len() / 10].iter().map(|&d| d as u64).sum();
        assert!(
            top10 * 2 > total,
            "top 10% of flows must carry >50% of bytes (got {top10}/{total})"
        );
        // Mice dominate the count.
        let mice = draws.iter().filter(|&&d| d < 4096).count();
        assert!(mice * 2 > draws.len(), "most flows are mice ({mice})");
    }

    #[test]
    fn churn_turns_over_the_population() {
        // With heavy churn, the same total-flow budget drains in far fewer
        // packets: flows are cut short and replaced.
        let base = HeavyTailConfig {
            concurrency: 16,
            total_flows: 64,
            max_flow_bytes: 64 * 1024,
            churn: 0.0,
            ..Default::default()
        };
        let quiet = HeavyTailGenerator::new(base).generate();
        let churny = HeavyTailGenerator::new(HeavyTailConfig { churn: 0.9, ..base }).generate();
        assert!(
            churny.len() < quiet.len(),
            "churn must shorten flows ({} !< {})",
            churny.len(),
            quiet.len()
        );
    }

    #[test]
    fn timestamps_nondecreasing() {
        let t = HeavyTailGenerator::new(HeavyTailConfig {
            concurrency: 4,
            total_flows: 12,
            max_flow_bytes: 4096,
            ..Default::default()
        })
        .generate();
        for w in t.packets.windows(2) {
            assert!(w[0].ts_micros <= w[1].ts_micros);
        }
    }
}
