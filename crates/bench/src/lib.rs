//! # sd-bench — experiment harness shared code
//!
//! Workload builders and reporting helpers used by the `experiments`
//! binary (one subcommand per table/figure of the reconstructed
//! evaluation). Everything is seeded: running an experiment twice prints
//! identical numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sd_ips::SignatureSet;
use sd_traffic::benign::{BenignConfig, BenignGenerator};
use sd_traffic::trace::Trace;

/// Default signature used by single-signature experiments (20 bytes, k=3 →
/// pieces 7/7/6, auto cutoff 13).
pub const SIG: &[u8] = b"EVIL_SIGNATURE_BYTES";

/// A standard benign workload configuration shared across experiments so
/// their numbers are comparable.
///
/// The reorder rate matters more than any other knob: the out-of-order
/// rule diverts a flow on its *first* reordered data packet, so a
/// per-packet reorder probability r gives an elephant of n packets only a
/// (1−r)ⁿ chance of staying fast. 0.2 % per packet matches measured edge
/// vantages (reordering concentrates near congested cores, not at the
/// server-side links an IPS guards); experiment E3's discussion covers the
/// sensitivity.
pub fn standard_benign(flows: usize, seed: u64) -> BenignConfig {
    BenignConfig {
        flows,
        seed,
        interactive_fraction: 0.05,
        reorder_prob: 0.002,
        ..Default::default()
    }
}

/// Generate the standard benign trace.
pub fn benign_trace(flows: usize, seed: u64) -> Trace {
    BenignGenerator::new(standard_benign(flows, seed)).generate()
}

/// Drop each non-SYN packet with probability `prob` (seeded): models path
/// loss upstream of the IPS. Lost data leaves permanent reassembly holes,
/// which is exactly what makes a conventional IPS hold buffers at scale.
pub fn drop_random(trace: &mut Trace, prob: f64, seed: u64) {
    use sd_packet::parse::parse_ipv4;
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    trace.packets.retain(|p| {
        let is_syn = parse_ipv4(&p.data)
            .ok()
            .and_then(|parsed| parsed.tcp().map(|t| t.repr.flags.syn()))
            .unwrap_or(false);
        is_syn || next() >= prob
    });
}

/// Gigabits per second for `bytes` processed in `secs`.
pub fn gbps(bytes: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / secs / 1e9
}

/// Print a table header and its separator in the house format.
pub fn header(cols: &[(&str, usize)]) {
    let line = cols
        .iter()
        .map(|(name, width)| format!("{name:>width$}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// A signature set of `n` generated rules in a realistic length band.
pub fn generated_signatures(n: usize, seed: u64) -> SignatureSet {
    SignatureSet::generate(seed, n, 16..40)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_math() {
        assert_eq!(gbps(1_000_000_000, 8.0), 1.0);
        assert_eq!(gbps(0, 0.0), 0.0);
    }

    #[test]
    fn standard_workload_is_reusable() {
        let t = benign_trace(8, 2);
        assert_eq!(t.flow_count(), 8);
        assert_eq!(generated_signatures(5, 1).len(), 5);
    }
}
