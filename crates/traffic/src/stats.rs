//! Trace statistics.
//!
//! DESIGN §3 claims the synthetic generator reproduces the three workload
//! statistics the experiments depend on: the packet-size mix, payload byte
//! statistics, and flow size/concurrency structure. This module computes
//! those statistics from any trace — synthetic or loaded from pcap — so
//! the claim is *checkable* (tests below assert the generator's output
//! matches its calibration targets) and so `sd stats` can describe real
//! captures in the same terms.

use std::collections::HashMap;

use sd_flow::FlowKey;
use sd_packet::parse::{parse_ipv4, Transport};

use crate::trace::Trace;

/// Packet-size histogram in the buckets the IPS literature uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeMix {
    /// Header-only packets (pure ACKs): IP length ≤ 40.
    pub ack_sized: u64,
    /// Small data segments: payload 1–63 bytes.
    pub small: u64,
    /// Mid-size: payload 64–575.
    pub mid: u64,
    /// The 576-byte legacy MTU mode: payload 576–1459.
    pub large: u64,
    /// Full-size segments: payload ≥ 1460 (MSS).
    pub mss: u64,
}

impl SizeMix {
    /// Total packets counted.
    pub fn total(&self) -> u64 {
        self.ack_sized + self.small + self.mid + self.large + self.mss
    }

    /// Fraction of packets in the pure-ACK bucket.
    pub fn ack_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.ack_sized as f64 / self.total() as f64
        }
    }
}

/// Flow-level statistics.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Application bytes per flow (client+server payload), sorted ascending.
    pub flow_bytes: Vec<u64>,
    /// Maximum number of simultaneously open flows (SYN-seen to FIN/RST).
    pub peak_concurrency: usize,
}

impl FlowStats {
    /// The p-th percentile of flow sizes (0.0–1.0).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.flow_bytes.is_empty() {
            return 0;
        }
        let idx = ((self.flow_bytes.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        self.flow_bytes[idx]
    }

    /// Fraction of total bytes carried by the top `frac` of flows — the
    /// heavy-tail signature (e.g. "top 10 % of flows carry 80 % of bytes").
    pub fn top_flow_byte_share(&self, frac: f64) -> f64 {
        let total: u64 = self.flow_bytes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let n = ((self.flow_bytes.len() as f64) * frac.clamp(0.0, 1.0)).ceil() as usize;
        let top: u64 = self.flow_bytes.iter().rev().take(n).sum();
        top as f64 / total as f64
    }
}

/// Byte-value statistics of payloads.
#[derive(Debug, Clone)]
pub struct PayloadStats {
    /// Frequency of each byte value across all payload bytes.
    pub histogram: [u64; 256],
}

impl PayloadStats {
    /// Shannon entropy in bits per byte (8.0 = uniform random, ~4–5 =
    /// typical protocol text).
    pub fn entropy_bits(&self) -> f64 {
        let total: u64 = self.histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in &self.histogram {
            if c > 0 {
                let p = c as f64 / total as f64;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Fraction of printable-ASCII payload bytes.
    pub fn printable_fraction(&self) -> f64 {
        let total: u64 = self.histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let printable: u64 = (0x20..0x7fu8)
            .map(|b| self.histogram[b as usize])
            .sum::<u64>()
            + self.histogram[b'\r' as usize]
            + self.histogram[b'\n' as usize];
        printable as f64 / total as f64
    }
}

/// All statistics of one trace.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Packet-size mix.
    pub sizes: SizeMix,
    /// Flow structure.
    pub flows: FlowStats,
    /// Payload byte statistics.
    pub payload: PayloadStats,
}

/// Compute the statistics of a trace in one pass.
pub fn analyze(trace: &Trace) -> TraceStats {
    let mut sizes = SizeMix::default();
    let mut histogram = [0u64; 256];
    let mut flow_bytes: HashMap<FlowKey, u64> = HashMap::new();
    let mut open: HashMap<FlowKey, bool> = HashMap::new();
    let mut peak = 0usize;

    for pkt in &trace.packets {
        let Ok(parsed) = parse_ipv4(&pkt.data) else {
            continue;
        };
        let payload: &[u8] = match &parsed.transport {
            Transport::Tcp(t) => t.payload,
            Transport::Udp(u) => u.payload,
            _ => &[],
        };
        match payload.len() {
            0 => sizes.ack_sized += 1,
            1..=63 => sizes.small += 1,
            64..=575 => sizes.mid += 1,
            576..=1459 => sizes.large += 1,
            _ => sizes.mss += 1,
        }
        for &b in payload {
            histogram[b as usize] += 1;
        }
        if let Some((key, _)) = FlowKey::from_parsed(&parsed) {
            *flow_bytes.entry(key).or_insert(0) += payload.len() as u64;
            if let Transport::Tcp(t) = &parsed.transport {
                if t.repr.flags.syn() {
                    open.insert(key, true);
                    peak = peak.max(open.values().filter(|&&v| v).count());
                } else if t.repr.flags.fin() || t.repr.flags.rst() {
                    open.insert(key, false);
                }
            }
        }
    }

    let mut flow_bytes: Vec<u64> = flow_bytes.into_values().collect();
    flow_bytes.sort_unstable();
    TraceStats {
        sizes,
        flows: FlowStats {
            flow_bytes,
            peak_concurrency: peak,
        },
        payload: PayloadStats { histogram },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benign::{BenignConfig, BenignGenerator};
    use crate::payload::PayloadModel;

    fn standard() -> TraceStats {
        analyze(
            &BenignGenerator::new(BenignConfig {
                flows: 150,
                seed: 44,
                ..Default::default()
            })
            .generate(),
        )
    }

    /// DESIGN §3 calibration claim 1: the packet-size mix has a large
    /// pure-ACK mass and data concentrated at the MSS.
    #[test]
    fn generator_size_mix_matches_calibration() {
        let s = standard();
        assert!(
            (0.25..0.75).contains(&s.sizes.ack_fraction()),
            "ACK mass {:.2} out of band",
            s.sizes.ack_fraction()
        );
        assert!(
            s.sizes.mss > s.sizes.mid,
            "bulk data must concentrate at the MSS: {:?}",
            s.sizes
        );
    }

    /// DESIGN §3 calibration claim 2: payload bytes look like protocol
    /// text, not random binary.
    #[test]
    fn generator_payload_is_textlike() {
        let s = standard();
        let entropy = s.payload.entropy_bits();
        assert!(
            (3.0..6.5).contains(&entropy),
            "HTTP-like entropy should sit well below 8 bits: {entropy:.2}"
        );
        assert!(s.payload.printable_fraction() > 0.8);

        // And uniform payloads measure as such.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let mut hist = [0u64; 256];
        for b in PayloadModel::Uniform.generate(&mut rng, 1 << 16) {
            hist[b as usize] += 1;
        }
        let u = PayloadStats { histogram: hist };
        assert!(u.entropy_bits() > 7.9);
    }

    /// DESIGN §3 calibration claim 3: flow sizes are heavy-tailed.
    #[test]
    fn generator_flow_sizes_are_heavy_tailed() {
        let s = standard();
        let share = s.flows.top_flow_byte_share(0.10);
        assert!(
            share > 0.4,
            "top 10% of flows should carry a dominant byte share, got {share:.2}"
        );
        assert!(s.flows.percentile(0.5) < s.flows.percentile(0.95) / 2);
    }

    #[test]
    fn concurrency_tracks_overlapping_flows() {
        let mut gen = BenignGenerator::new(BenignConfig {
            seed: 9,
            ..Default::default()
        });
        let t = gen.generate_concurrent(40, 3000);
        let s = analyze(&t);
        assert_eq!(s.flows.peak_concurrency, 40, "all sessions open at once");
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = analyze(&Trace::new());
        assert_eq!(s.sizes.total(), 0);
        assert_eq!(s.flows.percentile(0.5), 0);
        assert_eq!(s.flows.top_flow_byte_share(0.1), 0.0);
        assert_eq!(s.payload.entropy_bits(), 0.0);
        assert_eq!(s.payload.printable_fraction(), 0.0);
        assert_eq!(s.sizes.ack_fraction(), 0.0);
    }
}
