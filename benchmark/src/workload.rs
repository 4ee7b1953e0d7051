//! The four workloads: every input derives from `--seed`, and the program
//! under test sees only packets and rule text.
//!
//! Each workload exists to make a different layer carry the load (see
//! `README.md` for the full rationale table):
//!
//! * `bulk-benign` — per-byte layers (piece scan, delay-line copy),
//! * `mice-churn` — per-packet layers (parse, hash, flow lookup, eviction),
//! * `evasion-mix` — divert replay, slow path, and the correctness check,
//! * `rules10k-encrypted` — a 10k-rule automaton on incompressible bytes.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::time::Instant;

use sd_flow::FlowKey;
use sd_ips::rules::{Rule, RuleProto, RuleSet};
use sd_ips::SignatureSet;
use sd_packet::parse::parse_ipv4;
use sd_traffic::evasion::{self, AttackSpec, EvasionStrategy};
use sd_traffic::victim::receive_stream;
use sd_traffic::{
    generate_rule_corpus, BenignConfig, BenignGenerator, HeavyTailConfig, HeavyTailGenerator,
    PayloadModel, RuleCorpusConfig, TracePacket, VictimConfig,
};
use splitdetect::SplitDetectConfig;

/// Workload names, in reporting order. Permanent: later PRs are judged on
/// these, and `BENCHMARK.json` lists exactly this set.
pub const WORKLOADS: [&str; 4] = [
    "bulk-benign",
    "mice-churn",
    "evasion-mix",
    "rules10k-encrypted",
];

/// Flow-table hash seed pinned for every run, so `state_bytes`, eviction
/// counts and divert counts repeat exactly for a given `--seed`.
pub const FLOW_HASH_SEED: u64 = 0x5D_E2E0_2006;

/// Seed of the rule text, the same for every `--seed`: a deployment's rule
/// set is fixed while its traffic varies. It has to be, for runs on
/// different seeds to measure the same thing — which bytes start a piece
/// decides how often the scan's prefilter can skip, and with 200 random
/// signatures redrawn per seed the same traffic model scanned 20 % faster
/// or slower from one seed to the next.
const RULES_SEED: u64 = 2006;

/// Benign packets between two consecutive packets of one attack in
/// `evasion-mix`. Small, so that a whole attack conversation stays inside
/// the 1024-packet delay line: an attacker who spaces packets further apart
/// than the delay line is a documented, counted erosion
/// (`delay_line_misses`), not what this workload measures.
const ATTACK_PACKET_GAP: usize = 2;

/// One attack the victim model actually receives, so an engine that stays
/// silent on `flow` has missed it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExpectedAlert {
    /// The attack connection (5-tuple key, as alerts carry it).
    pub flow: FlowKey,
    /// Index of the signature in the rule text's order.
    pub signature: usize,
    /// Evasion strategy name, for failure messages.
    pub strategy: &'static str,
}

/// Packets, bytes and an FNV-1a hash of every byte offered: same seed ⇒
/// same fingerprint, on any machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Packets in the trace.
    pub packets: u64,
    /// Wire bytes (IPv4 datagram bytes) in the trace.
    pub bytes: u64,
    /// FNV-1a 64 over all packet bytes in order.
    pub fnv: u64,
}

impl Fingerprint {
    fn of(packets: &[TracePacket]) -> Self {
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        let mut bytes = 0u64;
        for p in packets {
            bytes += p.data.len() as u64;
            for &b in &p.data {
                fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Fingerprint {
            packets: packets.len() as u64,
            bytes,
            fnv,
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} packets, {} bytes, fnv {:016x}",
            self.packets, self.bytes, self.fnv
        )
    }
}

/// A generated workload: what the program is given (rule text, packets,
/// config) and what the benchmark checks it against (ground truth).
pub struct Workload {
    /// One of [`WORKLOADS`].
    pub name: &'static str,
    /// Snort-subset rule text, loaded through the lenient loader at set-up.
    pub rules_text: String,
    /// Default config except the pinned hash seed and, for `mice-churn`,
    /// the table capacity.
    pub config: SplitDetectConfig,
    /// The trace, in offer order; tick = index.
    pub packets: Vec<TracePacket>,
    /// Attacks the victim receives: each must alert.
    pub expected: Vec<ExpectedAlert>,
    /// Packets that do not parse as IPv4 (the generators emit none; kept
    /// so a `malformed` count above this is an engine refusal).
    pub unparsable: u64,
    /// Determinism record.
    pub fingerprint: Fingerprint,
    /// Seconds spent generating (the benchmark's own cost, not gated).
    pub gen_s: f64,
}

impl Workload {
    /// Generate workload `name` from `seed`. `scale` divides every flow
    /// count (1 = full size; `--smoke` uses 20).
    pub fn generate(name: &str, seed: u64, scale: usize) -> Result<Workload, String> {
        let start = Instant::now();
        let scale = scale.max(1);
        let config = SplitDetectConfig {
            flow_hash_seed: Some(FLOW_HASH_SEED),
            ..Default::default()
        };
        let (name, rules_text, config, packets, expected) = match name {
            "bulk-benign" => {
                let (text, _) = random_rules(200);
                let trace = BenignGenerator::new(benign(seed, 20_000 / scale)).generate();
                (WORKLOADS[0], text, config, trace.packets, Vec::new())
            }
            "mice-churn" => {
                let (text, _) = random_rules(200);
                let trace = HeavyTailGenerator::new(HeavyTailConfig {
                    seed,
                    concurrency: 200_000 / scale,
                    total_flows: 600_000 / scale,
                    alpha: 1.2,
                    min_flow_bytes: 64,
                    max_flow_bytes: 64 * 1024,
                    churn: 0.02,
                })
                .generate();
                let config = SplitDetectConfig {
                    // 200k concurrent flows in 2^18 slots: ≥ 75 % occupancy
                    // with evictions, scaled down together with the flows.
                    flow_table_capacity: ((1usize << 18) / scale).next_power_of_two(),
                    ..config
                };
                (WORKLOADS[1], text, config, trace.packets, Vec::new())
            }
            "evasion-mix" => {
                let (text, sigs) = random_rules(200);
                let benign = BenignGenerator::new(benign(seed, 30_000 / scale)).generate();
                let (packets, expected) = mix_attacks(benign.packets, &sigs, seed, 8_000 / scale);
                (WORKLOADS[2], text, config, packets, expected)
            }
            "rules10k-encrypted" => {
                // The corpus scales down with the trace so that `--smoke`
                // does not spend its half minute compiling automata.
                let text =
                    generate_rule_corpus(&RuleCorpusConfig::sized(10_000 / scale, RULES_SEED));
                let trace = BenignGenerator::new(BenignConfig {
                    payload: PayloadModel::Uniform,
                    ..benign(seed, 6_000 / scale)
                })
                .generate();
                (WORKLOADS[3], text, config, trace.packets, Vec::new())
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {}",
                    WORKLOADS.join(", ")
                ))
            }
        };
        let unparsable = packets
            .iter()
            .filter(|p| parse_ipv4(&p.data).is_err())
            .count() as u64;
        let fingerprint = Fingerprint::of(&packets);
        Ok(Workload {
            name,
            rules_text,
            config,
            packets,
            expected,
            unparsable,
            fingerprint,
            gen_s: start.elapsed().as_secs_f64(),
        })
    }

    /// Packets per flow key, for converting a wrong per-flow verdict into
    /// failed *operations* (packets). Built only when something failed.
    pub fn packets_of(&self, flows: &HashSet<FlowKey>) -> u64 {
        self.packets
            .iter()
            .filter(|p| p.flow_key().is_some_and(|k| flows.contains(&k)))
            .count() as u64
    }
}

/// The shared benign profile: HTTP-like payload, MSS segments, 0.2 %
/// per-packet reorder (the rate `sd-bench` uses for edge vantage points).
fn benign(seed: u64, flows: usize) -> BenignConfig {
    BenignConfig {
        seed,
        flows: flows.max(8),
        interactive_fraction: 0.05,
        reorder_prob: 0.002,
        ..Default::default()
    }
}

/// `count` random-byte signatures (16–39 bytes) as rule text. Returns the
/// text the program loads and the same set for the generator's own use
/// (attack payloads); signature id = rule order in both.
fn random_rules(count: usize) -> (String, SignatureSet) {
    let sigs = SignatureSet::generate(RULES_SEED, count, 16..40);
    let rules = sigs
        .iter()
        .map(|(id, sig)| Rule {
            proto: RuleProto::Tcp,
            src: "any".into(),
            src_port: "any".into(),
            dst: "any".into(),
            dst_port: "any".into(),
            msg: sig.name.clone(),
            contents: vec![sig.bytes.clone()],
            sid: 1_000_000 + id as u32,
            rev: 1,
            nocase: false,
        })
        .collect();
    let text = RuleSet {
        rules,
        ..Default::default()
    }
    .to_text();
    (text, sigs)
}

/// SplitMix64: the benchmark's own placement randomness, so that it needs
/// no RNG crate of its own.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// E6's mix at scale: `attacks` attack conversations cycling through the
/// whole evasion catalog and through the signature set, each on its own
/// client IP (diversion is keyed on the IP pair, so attacks sharing a
/// client would divert one another), interleaved into `benign`.
///
/// Ground truth comes from the victim model, as `sd-oracle` does it: an
/// attack is expected to alert only if the victim's stack reconstructs the
/// signature from exactly the packets emitted.
fn mix_attacks(
    benign: Vec<TracePacket>,
    sigs: &SignatureSet,
    seed: u64,
    attacks: usize,
) -> (Vec<TracePacket>, Vec<ExpectedAlert>) {
    let victim = VictimConfig::default();
    let catalog = EvasionStrategy::catalog();
    let mut rng = SplitMix(seed ^ 0x00A7_7AC4);
    let mut expected = Vec::new();
    // (slot in the benign sequence, order within the slot, bytes)
    let mut keyed: Vec<(usize, usize, Vec<u8>)> = Vec::new();
    let slots = benign.len();

    for i in 0..attacks {
        let strategy = catalog[i % catalog.len()];
        let signature = i % sigs.len();
        let mut spec = AttackSpec::simple(sigs.get(signature).bytes.clone());
        // 10.66.0.0 upward: disjoint from the benign generator's 10.1+
        // client space for any flow count this benchmark uses.
        spec.client = (
            Ipv4Addr::new(10, 66 + (i >> 16) as u8, (i >> 8) as u8, i as u8),
            1025 + (rng.next() % 60_000) as u16,
        );
        spec.isn = rng.next() as u32;
        let pkts = evasion::generate(&spec, strategy, victim, seed.wrapping_add(i as u64));
        let stream = receive_stream(pkts.iter(), victim, spec.server);
        if stream
            .windows(spec.signature.len())
            .any(|w| w == spec.signature)
        {
            expected.push(ExpectedAlert {
                flow: FlowKey::from_endpoints(6, spec.client, spec.server).0,
                signature,
                strategy: strategy.name(),
            });
        }
        let span = pkts.len() * ATTACK_PACKET_GAP;
        let start = rng.next() as usize % slots.saturating_sub(span).max(1);
        for (j, data) in pkts.into_iter().enumerate() {
            keyed.push((start + j * ATTACK_PACKET_GAP, 1 + i, data));
        }
    }

    keyed.extend(
        benign
            .into_iter()
            .enumerate()
            .map(|(slot, p)| (slot, 0, p.data)),
    );
    // Attack ids are unique and an attack visits a slot once, so the key
    // is total: the order does not depend on the sort's stability.
    keyed.sort_unstable_by_key(|(slot, order, _)| (*slot, *order));
    let packets = keyed
        .into_iter()
        .enumerate()
        .map(|(tick, (_, _, data))| TracePacket::new(tick as u64, data))
        .collect();
    (packets, expected)
}
