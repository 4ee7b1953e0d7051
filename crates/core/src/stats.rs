//! The measurement surface experiments read from a running engine.
//!
//! Everything the paper's evaluation plots is derivable from this snapshot:
//! diverted fractions (flows / packets / bytes), state splits between the
//! fast and slow paths, and the per-byte processing split.

use crate::divert::DivertStats;
use crate::fastpath::{DivertReason, FastPathStats};

/// A point-in-time snapshot of a [`crate::SplitDetect`] engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitDetectStats {
    /// Fast-path counters.
    pub fast: FastPathStats,
    /// Diversion counters.
    pub divert: DivertStats,
    /// Distinct flows that hit the fast path (table insertions).
    pub flows_seen: u64,
    /// Packets handed to the slow path (replayed + live).
    pub packets_to_slow: u64,
    /// Payload bytes handed to the slow path.
    pub bytes_to_slow: u64,
    /// Total payload bytes offered to the engine.
    pub payload_bytes: u64,
    /// Fast-path per-flow state (provisioned flow table), bytes.
    pub fast_state_bytes: u64,
    /// Delay line + diverted-set bytes.
    pub divert_state_bytes: u64,
    /// Slow-path state right now, bytes.
    pub slow_state_bytes: u64,
    /// Slow-path peak state, bytes.
    pub slow_state_peak_bytes: u64,
    /// Shared piece-automaton bytes (control plane, not per-flow).
    pub automaton_bytes: u64,
}

impl SplitDetectStats {
    /// Fraction of flows diverted (0 when no flows seen).
    pub fn diverted_flow_fraction(&self) -> f64 {
        if self.flows_seen == 0 {
            0.0
        } else {
            self.divert.flows_diverted as f64 / self.flows_seen as f64
        }
    }

    /// Fraction of packets that took the slow path.
    pub fn slow_packet_fraction(&self) -> f64 {
        if self.fast.packets == 0 {
            0.0
        } else {
            self.packets_to_slow as f64 / self.fast.packets as f64
        }
    }

    /// Fraction of payload bytes that took the slow path.
    pub fn slow_byte_fraction(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.bytes_to_slow as f64 / self.payload_bytes as f64
        }
    }

    /// Diversions attributed to `reason`.
    pub fn diverts_by(&self, reason: DivertReason) -> u64 {
        let idx = DivertReason::ALL
            .iter()
            .position(|r| *r == reason)
            .expect("reason in ALL");
        self.fast.diverts[idx]
    }

    /// Total live state (fast + divert + slow), bytes.
    pub fn total_state_bytes(&self) -> u64 {
        self.fast_state_bytes + self.divert_state_bytes + self.slow_state_bytes
    }

    /// Serialize as stable `key value` lines. [`SplitDetectStats::from_text`]
    /// inverts this exactly; experiment scripts diff and archive snapshots
    /// in this form without depending on the human `RunReport` rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let diverts: Vec<String> = self.fast.diverts.iter().map(u64::to_string).collect();
        for (key, value) in [
            ("fast.packets", self.fast.packets.to_string()),
            ("fast.bytes_scanned", self.fast.bytes_scanned.to_string()),
            ("fast.malformed", self.fast.malformed.to_string()),
            ("fast.small_segments", self.fast.small_segments.to_string()),
            ("fast.out_of_order", self.fast.out_of_order.to_string()),
            ("fast.diverts", diverts.join(" ")),
            ("fast.reclaimed", self.fast.reclaimed.to_string()),
            (
                "divert.flows_diverted",
                self.divert.flows_diverted.to_string(),
            ),
            (
                "divert.set_evictions",
                self.divert.set_evictions.to_string(),
            ),
            ("divert.set_refused", self.divert.set_refused.to_string()),
            (
                "divert.replayed_packets",
                self.divert.replayed_packets.to_string(),
            ),
            (
                "divert.delay_line_misses",
                self.divert.delay_line_misses.to_string(),
            ),
            ("divert.shed_packets", self.divert.shed_packets.to_string()),
            ("divert.shed_bytes", self.divert.shed_bytes.to_string()),
            (
                "divert.eviction_policy",
                self.divert.policy.name().to_string(),
            ),
            ("flows_seen", self.flows_seen.to_string()),
            ("packets_to_slow", self.packets_to_slow.to_string()),
            ("bytes_to_slow", self.bytes_to_slow.to_string()),
            ("payload_bytes", self.payload_bytes.to_string()),
            ("fast_state_bytes", self.fast_state_bytes.to_string()),
            ("divert_state_bytes", self.divert_state_bytes.to_string()),
            ("slow_state_bytes", self.slow_state_bytes.to_string()),
            (
                "slow_state_peak_bytes",
                self.slow_state_peak_bytes.to_string(),
            ),
            ("automaton_bytes", self.automaton_bytes.to_string()),
        ] {
            out.push_str(key);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        }
        out
    }

    /// Parse the [`SplitDetectStats::to_text`] format. Strict: every field
    /// must appear exactly once and no unknown keys are accepted, so a
    /// snapshot from a different engine version fails loudly instead of
    /// silently zero-filling.
    pub fn from_text(text: &str) -> Result<SplitDetectStats, String> {
        let mut s = SplitDetectStats::default();
        let mut seen: Vec<String> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = i + 1;
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("stats line {lineno}: missing value"))?;
            if seen.iter().any(|k| k == key) {
                return Err(format!("stats line {lineno}: duplicate key {key}"));
            }
            if key == "fast.diverts" {
                let vals = rest
                    .split_whitespace()
                    .map(|w| {
                        w.parse::<u64>()
                            .map_err(|_| format!("stats line {lineno}: bad number {w}"))
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                if vals.len() != s.fast.diverts.len() {
                    return Err(format!(
                        "stats line {lineno}: fast.diverts needs {} values, got {}",
                        s.fast.diverts.len(),
                        vals.len()
                    ));
                }
                s.fast.diverts.copy_from_slice(&vals);
            } else if key == "divert.eviction_policy" {
                let rest = rest.trim();
                s.divert.policy = crate::divert::EvictionPolicy::from_name(rest)
                    .ok_or_else(|| format!("stats line {lineno}: unknown policy {rest}"))?;
            } else {
                let v = rest
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("stats line {lineno}: bad number {rest}"))?;
                match key {
                    "fast.packets" => s.fast.packets = v,
                    "fast.bytes_scanned" => s.fast.bytes_scanned = v,
                    "fast.malformed" => s.fast.malformed = v,
                    "fast.small_segments" => s.fast.small_segments = v,
                    "fast.out_of_order" => s.fast.out_of_order = v,
                    "fast.reclaimed" => s.fast.reclaimed = v,
                    "divert.flows_diverted" => s.divert.flows_diverted = v,
                    "divert.set_evictions" => s.divert.set_evictions = v,
                    "divert.set_refused" => s.divert.set_refused = v,
                    "divert.replayed_packets" => s.divert.replayed_packets = v,
                    "divert.delay_line_misses" => s.divert.delay_line_misses = v,
                    "divert.shed_packets" => s.divert.shed_packets = v,
                    "divert.shed_bytes" => s.divert.shed_bytes = v,
                    "flows_seen" => s.flows_seen = v,
                    "packets_to_slow" => s.packets_to_slow = v,
                    "bytes_to_slow" => s.bytes_to_slow = v,
                    "payload_bytes" => s.payload_bytes = v,
                    "fast_state_bytes" => s.fast_state_bytes = v,
                    "divert_state_bytes" => s.divert_state_bytes = v,
                    "slow_state_bytes" => s.slow_state_bytes = v,
                    "slow_state_peak_bytes" => s.slow_state_peak_bytes = v,
                    "automaton_bytes" => s.automaton_bytes = v,
                    _ => return Err(format!("stats line {lineno}: unknown key {key}")),
                }
            }
            seen.push(key.to_string());
        }
        if seen.len() != 24 {
            return Err(format!("stats: expected 24 fields, got {}", seen.len()));
        }
        Ok(s)
    }

    /// Element-wise sum across shards: counters add, state bytes add
    /// (each shard provisions its own tables), peaks add as well since the
    /// shards run concurrently. `None` (and a zeroed snapshot) for an
    /// empty slice.
    pub fn aggregate(shards: &[SplitDetectStats]) -> Option<SplitDetectStats> {
        let (first, rest) = shards.split_first()?;
        let mut total = *first;
        for s in rest {
            total.fast.packets += s.fast.packets;
            total.fast.bytes_scanned += s.fast.bytes_scanned;
            total.fast.malformed += s.fast.malformed;
            total.fast.small_segments += s.fast.small_segments;
            total.fast.out_of_order += s.fast.out_of_order;
            for (d, x) in total.fast.diverts.iter_mut().zip(s.fast.diverts) {
                *d += x;
            }
            total.fast.reclaimed += s.fast.reclaimed;
            total.divert.flows_diverted += s.divert.flows_diverted;
            total.divert.set_evictions += s.divert.set_evictions;
            total.divert.set_refused += s.divert.set_refused;
            total.divert.replayed_packets += s.divert.replayed_packets;
            total.divert.delay_line_misses += s.divert.delay_line_misses;
            total.divert.shed_packets += s.divert.shed_packets;
            total.divert.shed_bytes += s.divert.shed_bytes;
            // The policy is uniform across shards; keep the first's.
            total.flows_seen += s.flows_seen;
            total.packets_to_slow += s.packets_to_slow;
            total.bytes_to_slow += s.bytes_to_slow;
            total.payload_bytes += s.payload_bytes;
            total.fast_state_bytes += s.fast_state_bytes;
            total.divert_state_bytes += s.divert_state_bytes;
            total.slow_state_bytes += s.slow_state_bytes;
            total.slow_state_peak_bytes += s.slow_state_peak_bytes;
            total.automaton_bytes += s.automaton_bytes;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeroed() -> SplitDetectStats {
        SplitDetectStats {
            fast: FastPathStats::default(),
            divert: DivertStats::default(),
            flows_seen: 0,
            packets_to_slow: 0,
            bytes_to_slow: 0,
            payload_bytes: 0,
            fast_state_bytes: 0,
            divert_state_bytes: 0,
            slow_state_bytes: 0,
            slow_state_peak_bytes: 0,
            automaton_bytes: 0,
        }
    }

    #[test]
    fn fractions_are_zero_safe() {
        let s = zeroed();
        assert_eq!(s.diverted_flow_fraction(), 0.0);
        assert_eq!(s.slow_packet_fraction(), 0.0);
        assert_eq!(s.slow_byte_fraction(), 0.0);
    }

    #[test]
    fn fractions_compute() {
        let mut s = zeroed();
        s.flows_seen = 10;
        s.divert.flows_diverted = 1;
        s.fast.packets = 100;
        s.packets_to_slow = 25;
        s.payload_bytes = 1000;
        s.bytes_to_slow = 100;
        assert_eq!(s.diverted_flow_fraction(), 0.1);
        assert_eq!(s.slow_packet_fraction(), 0.25);
        assert_eq!(s.slow_byte_fraction(), 0.1);
    }

    #[test]
    fn aggregate_sums_shards() {
        let mut a = zeroed();
        a.fast.packets = 10;
        a.flows_seen = 2;
        a.fast_state_bytes = 100;
        a.fast.diverts[0] = 1;
        let mut b = zeroed();
        b.fast.packets = 5;
        b.flows_seen = 1;
        b.fast_state_bytes = 100;
        b.fast.diverts[0] = 2;
        let t = SplitDetectStats::aggregate(&[a, b]).unwrap();
        assert_eq!(t.fast.packets, 15);
        assert_eq!(t.flows_seen, 3);
        assert_eq!(t.fast_state_bytes, 200);
        assert_eq!(t.fast.diverts[0], 3);
        assert!(SplitDetectStats::aggregate(&[]).is_none());
    }

    #[test]
    fn text_roundtrip_preserves_every_field() {
        // A snapshot with every field distinct, so a swapped or dropped
        // field cannot cancel out.
        let mut s = zeroed();
        s.fast.packets = 1;
        s.fast.bytes_scanned = 2;
        s.fast.malformed = 3;
        s.fast.small_segments = 4;
        s.fast.out_of_order = 5;
        s.fast.diverts = [6, 7, 8, 9, 10];
        s.fast.reclaimed = 11;
        s.divert.flows_diverted = 12;
        s.divert.set_evictions = 13;
        s.divert.set_refused = 25;
        s.divert.replayed_packets = 14;
        s.divert.delay_line_misses = 15;
        s.divert.shed_packets = 26;
        s.divert.shed_bytes = 27;
        s.divert.policy = crate::divert::EvictionPolicy::RefuseNew;
        s.flows_seen = 16;
        s.packets_to_slow = 17;
        s.bytes_to_slow = 18;
        s.payload_bytes = 19;
        s.fast_state_bytes = 20;
        s.divert_state_bytes = 21;
        s.slow_state_bytes = 22;
        s.slow_state_peak_bytes = 23;
        s.automaton_bytes = 24;
        let text = s.to_text();
        let back = SplitDetectStats::from_text(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn text_parse_rejects_junk() {
        let good = zeroed().to_text();
        // Unknown key.
        let mut t = good.clone();
        t.push_str("mystery 1\n");
        assert!(SplitDetectStats::from_text(&t)
            .unwrap_err()
            .contains("unknown key"));
        // Duplicate key.
        let mut t = good.clone();
        t.push_str("flows_seen 2\n");
        assert!(SplitDetectStats::from_text(&t)
            .unwrap_err()
            .contains("duplicate"));
        // Missing field.
        let t: String = good
            .lines()
            .filter(|l| !l.starts_with("payload_bytes"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(SplitDetectStats::from_text(&t)
            .unwrap_err()
            .contains("24 fields"));
        // Bad policy name.
        let t = good.replace("eviction_policy evict-oldest", "eviction_policy coin-flip");
        assert!(SplitDetectStats::from_text(&t)
            .unwrap_err()
            .contains("unknown policy"));
        // Bad number.
        let t = good.replace("flows_seen 0", "flows_seen zero");
        assert!(SplitDetectStats::from_text(&t)
            .unwrap_err()
            .contains("bad number"));
        // Wrong divert arity.
        let t = good.replace("fast.diverts 0 0 0 0 0", "fast.diverts 0 0");
        assert!(SplitDetectStats::from_text(&t)
            .unwrap_err()
            .contains("needs 5"));
    }

    #[test]
    fn state_totals() {
        let mut s = zeroed();
        s.fast_state_bytes = 100;
        s.divert_state_bytes = 20;
        s.slow_state_bytes = 300;
        assert_eq!(s.total_state_bytes(), 420);
    }
}
