//! Adversarial trace programs — the generator grammar of the oracle.
//!
//! A [`TraceProgram`] is a small, fully deterministic attack description:
//! a seed, a victim overlap policy, padding sizes, and an ordered list of
//! [`Mutation`]s. Compiling a program yields the packet sequence a
//! Ptacek–Newsham attacker would emit — segment cuts at random and
//! signature-straddling offsets, IP fragmentation, reordering, duplication,
//! overlapping retransmits with consistent *and* inconsistent bytes,
//! TTL/checksum invalidation, and signature-free decoy flows. Mutations
//! rewrite a schedule of [`Segment`]s; the attack flow and every
//! background flow are emitted by [`Conversation`], the evasion catalog's
//! emitter.
//!
//! Two properties make programs a good fuzzing substrate:
//!
//! 1. **Ground truth is computed, not promised.** Mutation compositions are
//!    not required to preserve payload delivery; the executor asks the
//!    victim model what actually arrived. A composition that breaks the
//!    attack simply makes the detection invariant vacuous for that trace.
//! 2. **Mutations are independent under deletion.** Indices are resolved
//!    modulo the current schedule length and garbage bytes are salted per
//!    mutation (not drawn from a shared stream), so the shrinker can drop
//!    any subset and every surviving mutation still means the same thing.

use std::net::Ipv4Addr;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_reassembly::OverlapPolicy;
use sd_traffic::evasion::{garbage, Conversation, Fragmentation, Segment};
use sd_traffic::victim::VictimConfig;

/// The signature every program plants (20 bytes → pieces 7/7/6 under the
/// default `k = 3`).
pub const ORACLE_SIGNATURE: &[u8] = b"EVIL_SIGNATURE_BYTES";

/// The flow-hash seed every oracle engine pins. Production engines draw a
/// process-random key (collision floods cannot be precomputed there); the
/// oracle *needs* floods to be craftable, so it fixes the key and the
/// [`Mutation::CollisionFlood`] brute force targets it. Pinning also keeps
/// campaigns bit-deterministic.
pub const ORACLE_FLOW_HASH_SEED: u64 = 0x5EED_F00D_CAFE_D00D;

/// Collision floods collide on the low 16 bits of the seeded key hash.
/// Power-of-two table masks nest, so a 16-bit collision shares a probe
/// window with the attack flow in *any* table of ≤ 2^16 slots — the
/// default single-engine table and every smaller per-shard or test table.
const FLOOD_MASK: u64 = (1 << 16) - 1;

/// Honest maximum segment size, matching `sd_traffic::evasion`.
const MSS: usize = 1460;

/// The attack flow's initial sequence number.
const ISN: u32 = 0x1000_0000;

/// Garbage padding bytes per overlap-stitch sub-segment: with real chunks
/// of at most 5 bytes this keeps every interior sub-segment at
/// `chunk + STITCH_PAD ≥ 15`, above the default admissible small-segment
/// cutoff of 13 — the stitch must not be caught by the *small* rule.
const STITCH_PAD: usize = 12;

/// One primitive attack transformation. `usize` parameters are raw values
/// resolved modulo the relevant bound at application time, so any parameter
/// is valid against any schedule (important for shrinking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Cut the payload at a pseudo-random offset.
    SplitAt {
        /// Raw cut position, resolved modulo the payload length.
        offset: usize,
    },
    /// Cut the payload inside the signature (a signature-straddling
    /// boundary — the cut every per-packet matcher fears).
    SplitInSignature {
        /// Raw in-signature position, resolved modulo the signature length.
        delta: usize,
    },
    /// Swap two schedule entries (reordering).
    Swap {
        /// First entry (resolved modulo the schedule length).
        a: usize,
        /// Second entry (resolved modulo the schedule length).
        b: usize,
    },
    /// Re-send one segment verbatim — an overlapping retransmit with
    /// *consistent* bytes.
    Duplicate {
        /// Target entry (resolved modulo the schedule length).
        index: usize,
    },
    /// Conflicting retransmission of one segment: real and garbage copies
    /// of the same sequence range, ordered so the victim's overlap policy
    /// keeps the real bytes, behind a one-byte hole so the conflict is
    /// resolved in the reassembly buffer.
    InconsistentRetransmit {
        /// Target entry (resolved modulo the schedule length).
        index: usize,
    },
    /// The theorem-tight overlap attack: rewrite one segment as a train of
    /// overlapping segments, each carrying at most `chunk` real bytes
    /// embedded in garbage the victim's policy discards. No packet holds a
    /// whole signature piece, no segment is small — only the sequence
    /// monotonicity rule sees anything.
    OverlapStitch {
        /// Target entry (resolved modulo the schedule length).
        index: usize,
        /// Real bytes per sub-segment, clamped to `3..=5` (below the
        /// shortest piece length).
        chunk: usize,
    },
    /// Insert a garbage twin of one segment with a broken TCP checksum
    /// (the victim's stack drops it; a naive observer scans it).
    BadChecksumChaff {
        /// Target entry (resolved modulo the schedule length).
        index: usize,
    },
    /// Insert a garbage twin of one segment with a TTL that expires before
    /// the victim.
    LowTtlChaff {
        /// Target entry (resolved modulo the schedule length).
        index: usize,
    },
    /// IP-fragment one segment's packet into `unit`-byte fragments
    /// (`unit` need not be a multiple of 8 — the fragmenter rounds down).
    Fragment {
        /// Target entry (resolved modulo the schedule length).
        index: usize,
        /// Raw fragment payload size, clamped to `8..=256`.
        unit: usize,
    },
    /// Fragment one segment and inject a conflicting garbage copy of a
    /// data fragment, ordered so the victim's reassembly keeps the real one.
    OverlapFragment {
        /// Target entry (resolved modulo the schedule length).
        index: usize,
    },
    /// A signature-free decoy connection to a different server,
    /// interleaved with the attack packets.
    Decoy {
        /// Decoy identity (selects endpoints and payload).
        id: usize,
        /// Data segments the decoy sends, clamped to `1..=4`.
        segments: usize,
    },
    /// A collision flood: short-lived flows whose 5-tuples are brute-forced
    /// (under [`ORACLE_FLOW_HASH_SEED`]) to hash into the attack flow's
    /// probe window, filling it and forcing CLOCK evictions. Flood flows
    /// run *before* the attack connection and are victim-invisible
    /// (different server, signature-free filler).
    CollisionFlood {
        /// Colliding flows emitted, clamped to `1..=32`.
        flows: usize,
    },
    /// Heavy-tailed background churn: a seeded
    /// [`sd_traffic::heavytail::HeavyTailGenerator`] population (Zipf flow
    /// sizes, replacement churn) interleaved with the attack packets.
    /// Victim-invisible and signature-free like decoys.
    HeavyTailNoise {
        /// Distinct background flows, clamped to `4..=32`.
        flows: usize,
    },
}

/// How a random program draws one mutation parameter.
#[derive(Clone, Copy)]
enum Draw {
    /// Any `usize` (resolved modulo its bound when applied).
    Any,
    /// Uniform in `lo..=hi`.
    In(usize, usize),
}
use Draw::{Any, In};

/// Everything about one mutation kind except what it does.
struct Kind {
    /// Name in the `.trace` format.
    name: &'static str,
    /// Salt tag: garbage bytes depend on the mutation, not on its position
    /// in the program, so shrinking can delete any other mutation.
    tag: u64,
    /// Parameter names and random distributions, in `.trace` order.
    params: &'static [(&'static str, Draw)],
    /// The mutation with these parameters (unused slots are 0).
    make: fn([usize; 2]) -> Mutation,
}

/// One descriptor per [`Mutation`] variant; random programs draw kinds
/// uniformly in this order.
#[rustfmt::skip]
const KINDS: [Kind; 13] = [
    Kind { name: "split", tag: 1, params: &[("offset", Any)],
        make: |p| Mutation::SplitAt { offset: p[0] } },
    Kind { name: "split-sig", tag: 2, params: &[("delta", Any)],
        make: |p| Mutation::SplitInSignature { delta: p[0] } },
    Kind { name: "swap", tag: 3, params: &[("a", Any), ("b", Any)],
        make: |p| Mutation::Swap { a: p[0], b: p[1] } },
    Kind { name: "dup", tag: 4, params: &[("index", Any)],
        make: |p| Mutation::Duplicate { index: p[0] } },
    Kind { name: "retransmit-bad", tag: 5, params: &[("index", Any)],
        make: |p| Mutation::InconsistentRetransmit { index: p[0] } },
    Kind { name: "stitch", tag: 6, params: &[("index", Any), ("chunk", In(3, 5))],
        make: |p| Mutation::OverlapStitch { index: p[0], chunk: p[1] } },
    Kind { name: "chaff-cksum", tag: 7, params: &[("index", Any)],
        make: |p| Mutation::BadChecksumChaff { index: p[0] } },
    Kind { name: "chaff-ttl", tag: 8, params: &[("index", Any)],
        make: |p| Mutation::LowTtlChaff { index: p[0] } },
    Kind { name: "frag", tag: 9, params: &[("index", Any), ("unit", In(8, 63))],
        make: |p| Mutation::Fragment { index: p[0], unit: p[1] } },
    Kind { name: "frag-overlap", tag: 10, params: &[("index", Any)],
        make: |p| Mutation::OverlapFragment { index: p[0] } },
    Kind { name: "decoy", tag: 11, params: &[("id", In(0, 999)), ("segments", In(1, 4))],
        make: |p| Mutation::Decoy { id: p[0], segments: p[1] } },
    Kind { name: "collide-flood", tag: 12, params: &[("flows", In(8, 24))],
        make: |p| Mutation::CollisionFlood { flows: p[0] } },
    Kind { name: "heavytail", tag: 13, params: &[("flows", In(8, 32))],
        make: |p| Mutation::HeavyTailNoise { flows: p[0] } },
];

impl Mutation {
    /// This mutation's descriptor and parameters (unused slots are 0).
    fn parts(&self) -> (&'static Kind, [usize; 2]) {
        let (k, p) = match *self {
            Mutation::SplitAt { offset } => (0, [offset, 0]),
            Mutation::SplitInSignature { delta } => (1, [delta, 0]),
            Mutation::Swap { a, b } => (2, [a, b]),
            Mutation::Duplicate { index } => (3, [index, 0]),
            Mutation::InconsistentRetransmit { index } => (4, [index, 0]),
            Mutation::OverlapStitch { index, chunk } => (5, [index, chunk]),
            Mutation::BadChecksumChaff { index } => (6, [index, 0]),
            Mutation::LowTtlChaff { index } => (7, [index, 0]),
            Mutation::Fragment { index, unit } => (8, [index, unit]),
            Mutation::OverlapFragment { index } => (9, [index, 0]),
            Mutation::Decoy { id, segments } => (10, [id, segments]),
            Mutation::CollisionFlood { flows } => (11, [flows, 0]),
            Mutation::HeavyTailNoise { flows } => (12, [flows, 0]),
        };
        (&KINDS[k], p)
    }

    /// Stable name used by the `.trace` text format.
    pub fn name(&self) -> &'static str {
        self.parts().0.name
    }

    fn salt(&self) -> u64 {
        let (kind, [x, y]) = self.parts();
        mix(mix(kind.tag, x as u64), y as u64)
    }

    fn random(rng: &mut StdRng) -> Mutation {
        let kind = &KINDS[rng.gen_range(0..KINDS.len() as u32) as usize];
        let mut p = [0; 2];
        for (slot, &(_, draw)) in p.iter_mut().zip(kind.params) {
            *slot = match draw {
                Any => rng.gen(),
                In(lo, hi) => rng.gen_range(lo..=hi),
            };
        }
        (kind.make)(p)
    }
}

fn mix(a: u64, b: u64) -> u64 {
    (a ^ b)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// One adversarial trace, fully determined by its fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceProgram {
    /// Base seed: padding contents, decoy payloads and garbage all derive
    /// from it (salted per use).
    pub seed: u64,
    /// The victim stack's overlap policy the attack is crafted against.
    pub policy: OverlapPolicy,
    /// Benign bytes before the signature.
    pub prefix_len: usize,
    /// Benign bytes after the signature.
    pub suffix_len: usize,
    /// The mutation list, applied in order.
    pub mutations: Vec<Mutation>,
}

/// A compiled program: the wire packets plus everything the executor needs
/// to judge the run.
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    /// IPv4 packets in wire order (attack flow with decoys interleaved).
    pub packets: Vec<Vec<u8>>,
    /// The attack stream's application payload (prefix + signature + suffix).
    pub payload: Vec<u8>,
    /// Byte range of [`ORACLE_SIGNATURE`] within `payload`.
    pub sig_range: Range<usize>,
    /// The attacked server endpoint (victim model filter).
    pub server: (Ipv4Addr, u16),
    /// The attacker endpoint.
    pub client: (Ipv4Addr, u16),
    /// The victim stack configuration the program targets.
    pub victim: VictimConfig,
}

/// A scheduled send on the attack flow. `pristine` entries carry exactly
/// `payload[offset..offset + len]` with no invalidation or fragmentation:
/// only they are eligible targets for the retransmit/stitch rewrites.
#[derive(Clone)]
struct Entry {
    seg: Segment,
    pristine: bool,
}

impl Entry {
    fn real(payload: &[u8], offset: usize, len: usize) -> Entry {
        let seg = Segment::new(offset, &payload[offset..offset + len]);
        Entry {
            seg,
            pristine: true,
        }
    }

    fn forged(seg: Segment) -> Entry {
        Entry {
            seg,
            pristine: false,
        }
    }
}

/// Filler bytes that can never contain [`ORACLE_SIGNATURE`] (which has
/// uppercase letters): lowercase alphanumerics plus spacing.
fn filler(salt: u64, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ./-";
    let mut rng = StdRng::seed_from_u64(salt);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

impl TraceProgram {
    /// Draw a random program. Deterministic in `seed`; the program's own
    /// `seed` field is derived so that content randomness and structural
    /// randomness never alias.
    pub fn random(seed: u64) -> TraceProgram {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x09AC1E));
        let policy = OverlapPolicy::ALL[rng.gen_range(0..OverlapPolicy::ALL.len())];
        let prefix_len = rng.gen_range(8..500);
        let suffix_len = rng.gen_range(4..400);
        let n = rng.gen_range(0..=8);
        let mutations = (0..n).map(|_| Mutation::random(&mut rng)).collect();
        TraceProgram {
            seed,
            policy,
            prefix_len,
            suffix_len,
            mutations,
        }
    }

    /// The attack flow endpoints (fixed: the oracle judges per-flow alerts).
    pub fn endpoints() -> ((Ipv4Addr, u16), (Ipv4Addr, u16)) {
        (
            ("10.66.0.1".parse().expect("static addr"), 31337),
            ("10.0.0.2".parse().expect("static addr"), 80),
        )
    }

    /// Compile to wire packets. Deterministic; total (never panics on any
    /// field values).
    pub fn compile(&self) -> CompiledTrace {
        let (client, server) = Self::endpoints();
        let victim = VictimConfig {
            policy: self.policy,
            ..Default::default()
        };

        // Payload: seeded filler around the planted signature.
        let prefix = filler(mix(self.seed, 0xF111), self.prefix_len.clamp(2, 4096));
        let suffix = filler(mix(self.seed, 0xF222), self.suffix_len.clamp(1, 4096));
        let mut payload = prefix;
        let sig_start = payload.len();
        payload.extend_from_slice(ORACLE_SIGNATURE);
        let sig_range = sig_start..payload.len();
        payload.extend_from_slice(&suffix);

        // Phase 1 — cut set: MSS grid plus every split mutation.
        let mut cuts: Vec<usize> = (0..payload.len()).step_by(MSS).collect();
        cuts.push(payload.len());
        for m in &self.mutations {
            match *m {
                Mutation::SplitAt { offset } => {
                    let at = 1 + offset % (payload.len() - 1);
                    cuts.push(at);
                }
                Mutation::SplitInSignature { delta } => {
                    let at = sig_range.start + 1 + delta % (ORACLE_SIGNATURE.len() - 1);
                    cuts.push(at);
                }
                _ => {}
            }
        }
        cuts.sort_unstable();
        cuts.dedup();

        let mut schedule: Vec<Entry> = cuts
            .windows(2)
            .map(|w| Entry::real(&payload, w[0], w[1] - w[0]))
            .collect();

        // Phase 2 — structural mutations, in program order. Index
        // parameters resolve modulo the current schedule length.
        let forge_salt = mix(self.seed, 0x0F0F);
        let mut decoys: Vec<(usize, usize, u64)> = Vec::new();
        let mut floods: Vec<(usize, u64)> = Vec::new();
        let mut noise: Vec<(usize, u64)> = Vec::new();
        for m in &self.mutations {
            let salt = mix(self.seed, m.salt());
            let n = schedule.len();
            // A garbage twin of entry `e`, inserted just before it.
            let twin =
                |e: &Entry| Segment::new(e.seg.offset, garbage(salt, e.seg.bytes.len().max(1)));
            match *m {
                Mutation::SplitAt { .. } | Mutation::SplitInSignature { .. } => {}
                Mutation::Swap { a, b } if n >= 2 => schedule.swap(a % n, b % n),
                Mutation::Duplicate { index } if n > 0 => {
                    let copy = schedule[index % n].clone();
                    schedule.insert(index % n + 1, copy);
                }
                Mutation::InconsistentRetransmit { index } => {
                    apply_inconsistent_retransmit(
                        &mut schedule,
                        index,
                        &payload,
                        self.policy,
                        salt,
                    );
                }
                Mutation::OverlapStitch { index, chunk } => {
                    apply_overlap_stitch(&mut schedule, index, chunk, &payload, salt);
                }
                Mutation::BadChecksumChaff { index } if n > 0 => {
                    let seg = Segment {
                        bad_checksum: true,
                        ..twin(&schedule[index % n])
                    };
                    schedule.insert(index % n, Entry::forged(seg));
                }
                Mutation::LowTtlChaff { index } if n > 0 => {
                    // VictimConfig::default() drops TTL < 4 hops.
                    let seg = Segment {
                        ttl: Some(2),
                        ..twin(&schedule[index % n])
                    };
                    schedule.insert(index % n, Entry::forged(seg));
                }
                Mutation::Fragment { index, unit } if n > 0 => {
                    let e = &mut schedule[index % n];
                    e.seg.frag = Fragmentation::Tiles {
                        unit: unit.clamp(8, 256),
                    };
                    e.seg.dont_frag = false;
                    e.pristine = false;
                }
                Mutation::OverlapFragment { index } if n > 0 => {
                    let e = &mut schedule[index % n];
                    e.seg.frag = forged_trisection(&e.seg, forge_salt, self.policy);
                    e.seg.dont_frag = false;
                    e.pristine = false;
                }
                Mutation::Decoy { id, segments } => {
                    decoys.push((id, segments.clamp(1, 4), salt));
                }
                Mutation::CollisionFlood { flows } => {
                    floods.push((flows.clamp(1, 32), salt));
                }
                Mutation::HeavyTailNoise { flows } => {
                    noise.push((flows.clamp(4, 32), salt));
                }
                // Index mutations on a schedule too short to resolve them.
                _ => {}
            }
        }

        // Phase 3 — emit the attack flow.
        let mut c = Conversation::new(client, server, ISN, 64);
        c.syn();
        for e in &schedule {
            c.send(&e.seg);
        }
        let mut packets = c.fin(payload.len());

        // Phase 4 — interleave decoy flows (and heavy-tail background
        // churn) at evenly spaced positions.
        for (id, segments, salt) in decoys {
            let decoy = decoy_packets(id, segments, salt);
            let stride = packets.len() / (decoy.len() + 1);
            for (k, pkt) in decoy.into_iter().enumerate() {
                let at = ((k + 1) * stride.max(1) + k).min(packets.len());
                packets.insert(at, pkt);
            }
        }
        for (flows, salt) in noise {
            let bg = heavytail_packets(flows, salt);
            let stride = packets.len() / (bg.len() + 1);
            for (k, pkt) in bg.into_iter().enumerate() {
                let at = ((k + 1) * stride.max(1) + k).min(packets.len());
                packets.insert(at, pkt);
            }
        }

        // Phase 5 — collision floods run *before* the attack connection:
        // they pre-fill the attack flow's probe window so the attack SYN
        // inserts into a full window (CLOCK eviction on arrival). Keeping
        // them ahead of the connection makes the campaign's detection
        // judgment independent of mid-stream table eviction; the
        // sticky-divert regression test drives mid-stream floods directly.
        if !floods.is_empty() {
            let mut front: Vec<Vec<u8>> = Vec::new();
            for (flows, salt) in floods {
                front.extend(collision_flood_packets(flows, salt));
            }
            front.extend(packets);
            packets = front;
        }

        CompiledTrace {
            packets,
            payload,
            sig_range,
            server,
            client,
            victim,
        }
    }
}

/// Brute-force `flows` distinct client endpoints whose canonical flow keys
/// hash (under [`ORACLE_FLOW_HASH_SEED`]) into the attack flow's probe
/// window, and emit each as a short victim-invisible connection (SYN, one
/// filler segment, FIN). Deterministic and total: the candidate scan is
/// bounded, so a pathological request degrades to fewer flood flows
/// instead of looping.
pub fn collision_flood_packets(flows: usize, salt: u64) -> Vec<Vec<u8>> {
    let flows = flows.clamp(1, 32);
    let (client, server) = TraceProgram::endpoints();
    let (attack_key, _) = sd_flow::FlowKey::from_endpoints(6, client, server);
    let target = sd_flow::hash::hash_key_seeded(ORACLE_FLOW_HASH_SEED, &attack_key) & FLOOD_MASK;
    // Flood flows talk to their own server, outside the victim model's
    // filter and every other generator's address space.
    let flood_server = (Ipv4Addr::new(10, 0, 8, 1), 80);

    let mut packets = Vec::with_capacity(flows * 3);
    let mut found = 0usize;
    // ~2^16 candidates expected per hit; the cap leaves a ~30× margin.
    let mut candidate = 0u64;
    let cap = flows as u64 * 2_000_000;
    while found < flows && candidate < cap {
        let c = candidate;
        candidate += 1;
        let port = 1024 + (c % 60_000) as u16;
        let ip = Ipv4Addr::from(0xAC18_0000u32.wrapping_add((c / 60_000) as u32));
        let (key, _) = sd_flow::FlowKey::from_endpoints(6, (ip, port), flood_server);
        if sd_flow::hash::hash_key_seeded(ORACLE_FLOW_HASH_SEED, &key) & FLOOD_MASK != target {
            continue;
        }
        found += 1;
        let isn = 0xC011_0000u32.wrapping_add(found as u32);
        let body = filler(mix(salt, c), 120);
        let mut flow = Conversation::new((ip, port), flood_server, isn, 64);
        flow.syn();
        flow.send(&Segment::new(0, body));
        packets.extend(flow.fin(120));
    }
    packets
}

/// Seeded heavy-tail background packets: Zipf flow sizes with churn, kept
/// small enough (4 KiB flow cap) that interleaving stays cheap. Servers
/// live in `192.168.1.0/24` — victim-invisible — and payloads are the
/// generator's lowercase filler, which cannot contain the signature.
fn heavytail_packets(flows: usize, salt: u64) -> Vec<Vec<u8>> {
    let flows = flows.clamp(4, 32);
    let mut gen = sd_traffic::HeavyTailGenerator::new(sd_traffic::HeavyTailConfig {
        seed: salt,
        concurrency: (flows / 4).max(1),
        total_flows: flows,
        min_flow_bytes: 64,
        max_flow_bytes: 4096,
        churn: 0.2,
        ..Default::default()
    });
    gen.generate().packets.into_iter().map(|p| p.data).collect()
}

/// Replace entry `index` with a conflicting-retransmission triplet: both
/// copies cover `offset + 1 ..`, arrive while the byte at `offset` is still
/// a hole (so they meet in the reassembly buffer), and are ordered so the
/// victim's policy keeps the real copy; the one-byte plug comes last.
fn apply_inconsistent_retransmit(
    schedule: &mut Vec<Entry>,
    index: usize,
    payload: &[u8],
    policy: OverlapPolicy,
    salt: u64,
) {
    if schedule.is_empty() {
        return;
    }
    let i = index % schedule.len();
    let e = &schedule[i];
    if !e.pristine || e.seg.bytes.len() < 2 {
        return;
    }
    let (o, l) = (e.seg.offset, e.seg.bytes.len());
    let contested_real = Entry::real(payload, o + 1, l - 1);
    let contested_garb = Entry::forged(Segment::new(o + 1, garbage(salt, l - 1)));
    let plug = Entry::real(payload, o, 1);
    // Both copies start at the same offset: every overlap is a tie, so
    // First/BSD victims keep the first arrival, Last/Linux the second.
    let real_first = matches!(policy, OverlapPolicy::First | OverlapPolicy::Bsd);
    let (first, second) = if real_first {
        (contested_real, contested_garb)
    } else {
        (contested_garb, contested_real)
    };
    schedule.splice(i..=i, [first, second, plug]);
}

/// Replace entry `index` with the overlap-stitch train: each sub-segment
/// is `garbage(pad) ++ real(chunk)` and starts `pad` bytes *before* its
/// real chunk. When the flow is otherwise in order, the garbage head lands
/// entirely on territory the victim has already **delivered** — and
/// delivered bytes are frozen in every real stack, so the garbage is
/// discarded under *all four* overlap policies while the real chunk
/// extends the stream.
///
/// No stitched packet carries more than `chunk ≤ 5` consecutive real bytes
/// (no whole piece), every stitched sub-segment is `chunk + STITCH_PAD ≥
/// 15` bytes (never small), and every sub-segment's sequence number
/// regresses behind the delivered edge — the attack is visible *only* to
/// the out-of-order rule.
fn apply_overlap_stitch(
    schedule: &mut Vec<Entry>,
    index: usize,
    chunk: usize,
    payload: &[u8],
    salt: u64,
) {
    if schedule.is_empty() {
        return;
    }
    let i = index % schedule.len();
    let e = &schedule[i];
    let chunk = chunk.clamp(3, 5);
    if !e.pristine || e.seg.bytes.len() < 2 * chunk {
        return;
    }
    let (o, l) = (e.seg.offset, e.seg.bytes.len());
    // Stream positions below STITCH_PAD cannot be given a full garbage
    // head; a shorter head would leave sub-segments under the small-segment
    // cutoff and the train would trip the small budget instead of staying
    // visible only to the out-of-order rule. Ship that lead-in as one plain
    // segment (at most one small segment — within the budget of T = 1).
    let pre = STITCH_PAD.saturating_sub(o).min(l);
    if l <= pre {
        return;
    }
    let mut train = Vec::new();
    if pre > 0 {
        train.push(Entry::real(payload, o, pre));
    }
    let mut j = pre;
    while j < l {
        let take = chunk.min(l - j);
        let mut bytes = garbage(mix(salt, j as u64), STITCH_PAD);
        bytes.extend_from_slice(&payload[o + j..o + j + take]);
        train.push(Entry::forged(Segment::new(o + j - STITCH_PAD, bytes)));
        j += take;
    }
    schedule.splice(i..=i, train);
}

/// The overlapping-fragment rewrite of `seg`: roughly trisect its datagram
/// and forge a *middle* fragment. The target must carry MF=1: a forged
/// copy of the final fragment would complete the datagram early with
/// garbage content and the real bytes could then never be delivered. A
/// datagram too short for three fragments goes out whole.
fn forged_trisection(seg: &Segment, salt: u64, policy: OverlapPolicy) -> Fragmentation {
    let ip_payload = 20 + seg.bytes.len();
    let unit = ip_payload.div_ceil(3).max(8);
    let tiles = ip_payload.div_ceil(unit & !7);
    if tiles < 3 {
        return Fragmentation::None;
    }
    let seq = ISN.wrapping_add(1).wrapping_add(seg.offset as u32);
    Fragmentation::Forged {
        unit,
        target: tiles - 2,
        salt: mix(salt, seq as u64),
        forged_first: !matches!(policy, OverlapPolicy::First | OverlapPolicy::Bsd),
    }
}

/// A decoy conversation: SYN, `segments` filler segments, FIN — to a
/// *different* server, so the victim model (which tracks the attacked
/// service) never sees it, and carrying filler that cannot contain the
/// signature, so any alert on it is a false alert.
fn decoy_packets(id: usize, segments: usize, salt: u64) -> Vec<Vec<u8>> {
    let client = Ipv4Addr::new(10, 77, ((id / 250) % 250) as u8, (1 + id % 250) as u8);
    let server = Ipv4Addr::new(10, 0, 9, (1 + id % 250) as u8);
    let cport = 20_000 + (id % 10_000) as u16;
    let isn = 0x5EED_0000u32.wrapping_add(id as u32);
    let mut rng = StdRng::seed_from_u64(salt);
    let mut flow = Conversation::new((client, cport), (server, 80), isn, 64);
    flow.syn();
    let mut off = 0usize;
    for _ in 0..segments {
        let len = rng.gen_range(40..600);
        flow.send(&Segment::new(off, filler(mix(salt, off as u64), len)));
        off += len;
    }
    flow.fin(off)
}

// ---------------------------------------------------------------------------
// The `.trace` text format.
// ---------------------------------------------------------------------------

impl TraceProgram {
    /// Render as the line-based `.trace` artifact format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("# split-detect fuzz trace\n");
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("policy {}\n", self.policy));
        s.push_str(&format!("prefix {}\n", self.prefix_len));
        s.push_str(&format!("suffix {}\n", self.suffix_len));
        for m in &self.mutations {
            let (kind, p) = m.parts();
            s.push_str("mutate ");
            s.push_str(kind.name);
            for v in &p[..kind.params.len()] {
                s.push_str(&format!(" {v}"));
            }
            s.push('\n');
        }
        s
    }

    /// Parse the `.trace` format back. Inverse of [`to_text`](Self::to_text).
    pub fn from_text(text: &str) -> Result<TraceProgram, String> {
        let mut seed = None;
        let mut policy = None;
        let mut prefix_len = None;
        let mut suffix_len = None;
        let mut mutations = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            fn take<'t>(
                tokens: &[&'t str],
                cursor: &mut usize,
                lineno: usize,
                name: &str,
            ) -> Result<&'t str, String> {
                let t = tokens
                    .get(*cursor)
                    .ok_or_else(|| format!("line {}: {name} needs a value", lineno + 1))?;
                *cursor += 1;
                Ok(t)
            }
            fn take_num(
                tokens: &[&str],
                cursor: &mut usize,
                lineno: usize,
                name: &str,
            ) -> Result<usize, String> {
                take(tokens, cursor, lineno, name)?
                    .parse::<usize>()
                    .map_err(|_| format!("line {}: bad {name} value", lineno + 1))
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let key = tokens[0];
            let mut at = 1usize;
            match key {
                "seed" => seed = Some(take_num(&tokens, &mut at, lineno, "seed")? as u64),
                "prefix" => prefix_len = Some(take_num(&tokens, &mut at, lineno, "prefix")?),
                "suffix" => suffix_len = Some(take_num(&tokens, &mut at, lineno, "suffix")?),
                "policy" => {
                    let p = take(&tokens, &mut at, lineno, "policy")?;
                    policy = Some(match p {
                        "first" => OverlapPolicy::First,
                        "last" => OverlapPolicy::Last,
                        "bsd" => OverlapPolicy::Bsd,
                        "linux" => OverlapPolicy::Linux,
                        other => {
                            return Err(format!("line {}: unknown policy {other:?}", lineno + 1))
                        }
                    });
                }
                "mutate" => {
                    let name = take(&tokens, &mut at, lineno, "mutation kind")?;
                    let kind = KINDS
                        .iter()
                        .find(|k| k.name == name)
                        .ok_or_else(|| format!("line {}: unknown mutation {name:?}", lineno + 1))?;
                    let mut p = [0; 2];
                    for (slot, (param, _)) in p.iter_mut().zip(kind.params) {
                        *slot = take_num(&tokens, &mut at, lineno, param)?;
                    }
                    mutations.push((kind.make)(p));
                }
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
            if at != tokens.len() {
                return Err(format!("line {}: trailing tokens", lineno + 1));
            }
        }
        Ok(TraceProgram {
            seed: seed.ok_or("missing seed")?,
            policy: policy.ok_or("missing policy")?,
            prefix_len: prefix_len.ok_or("missing prefix")?,
            suffix_len: suffix_len.ok_or("missing suffix")?,
            mutations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_traffic::victim::receive_stream;

    fn delivered(p: &TraceProgram) -> bool {
        let c = p.compile();
        let stream = receive_stream(c.packets.iter(), c.victim, c.server);
        stream
            .windows(ORACLE_SIGNATURE.len())
            .any(|w| w == ORACLE_SIGNATURE)
    }

    #[test]
    fn bare_program_delivers() {
        for policy in OverlapPolicy::ALL {
            let p = TraceProgram {
                seed: 1,
                policy,
                prefix_len: 100,
                suffix_len: 50,
                mutations: vec![],
            };
            assert!(delivered(&p), "bare program must deliver under {policy}");
        }
    }

    #[test]
    fn stitch_delivers_and_hides_pieces_under_every_policy() {
        for policy in OverlapPolicy::ALL {
            let p = TraceProgram {
                seed: 2,
                policy,
                prefix_len: 60,
                suffix_len: 40,
                mutations: vec![Mutation::OverlapStitch { index: 0, chunk: 4 }],
            };
            assert!(delivered(&p), "stitch must deliver under {policy}");
            // No packet may carry 6 consecutive signature bytes (the
            // shortest piece under the default split is 6 bytes).
            let c = p.compile();
            for pkt in &c.packets {
                for piece in ORACLE_SIGNATURE.windows(6) {
                    assert!(
                        !pkt.windows(6).any(|w| w == piece),
                        "a stitched packet leaks a signature window ({policy})"
                    );
                }
            }
        }
    }

    #[test]
    fn inconsistent_retransmit_delivers_under_every_policy() {
        for policy in OverlapPolicy::ALL {
            let p = TraceProgram {
                seed: 3,
                policy,
                prefix_len: 80,
                suffix_len: 30,
                mutations: vec![Mutation::InconsistentRetransmit { index: 0 }],
            };
            assert!(delivered(&p), "retransmit-bad must deliver under {policy}");
        }
    }

    #[test]
    fn chaff_and_fragments_deliver() {
        for policy in OverlapPolicy::ALL {
            let p = TraceProgram {
                seed: 4,
                policy,
                prefix_len: 120,
                suffix_len: 80,
                mutations: vec![
                    Mutation::SplitInSignature { delta: 9 },
                    Mutation::BadChecksumChaff { index: 0 },
                    Mutation::LowTtlChaff { index: 1 },
                    Mutation::Fragment { index: 1, unit: 13 },
                    Mutation::OverlapFragment { index: 2 },
                    Mutation::Decoy { id: 7, segments: 2 },
                ],
            };
            assert!(delivered(&p), "chaff program must deliver under {policy}");
        }
    }

    #[test]
    fn compile_is_total_on_junk_parameters() {
        // Any parameter values must compile without panicking.
        let p = TraceProgram {
            seed: 5,
            policy: OverlapPolicy::Linux,
            prefix_len: 0,
            suffix_len: 0,
            mutations: vec![
                Mutation::SplitAt { offset: usize::MAX },
                Mutation::Swap {
                    a: usize::MAX,
                    b: 0,
                },
                Mutation::OverlapStitch {
                    index: usize::MAX,
                    chunk: usize::MAX,
                },
                Mutation::Fragment {
                    index: 3,
                    unit: usize::MAX,
                },
                Mutation::InconsistentRetransmit { index: usize::MAX },
            ],
        };
        let c = p.compile();
        assert!(!c.packets.is_empty());
    }

    #[test]
    fn text_roundtrip() {
        for seed in 0..50u64 {
            let p = TraceProgram::random(seed);
            let text = p.to_text();
            let back = TraceProgram::from_text(&text).expect("parse back");
            assert_eq!(p, back, "text roundtrip for seed {seed}\n{text}");
        }
    }

    #[test]
    fn from_text_rejects_junk() {
        assert!(TraceProgram::from_text("").is_err());
        assert!(TraceProgram::from_text("seed 1\npolicy weird\n").is_err());
        assert!(TraceProgram::from_text(
            "seed 1\npolicy first\nprefix 1\nsuffix 1\nmutate zap 3\n"
        )
        .is_err());
        assert!(TraceProgram::from_text(
            "seed 1\npolicy first\nprefix 1\nsuffix 1\nmutate swap 3\n"
        )
        .is_err());
    }

    #[test]
    fn random_programs_are_deterministic() {
        assert_eq!(TraceProgram::random(42), TraceProgram::random(42));
        assert_ne!(TraceProgram::random(42), TraceProgram::random(43));
    }

    #[test]
    fn collision_flood_keys_share_the_attack_window() {
        use sd_packet::parse::parse_ipv4;
        let packets = collision_flood_packets(12, 99);
        assert_eq!(packets.len(), 12 * 3, "SYN + data + FIN per flood flow");
        let (client, server) = TraceProgram::endpoints();
        let (attack_key, _) = sd_flow::FlowKey::from_endpoints(6, client, server);
        let target =
            sd_flow::hash::hash_key_seeded(ORACLE_FLOW_HASH_SEED, &attack_key) & FLOOD_MASK;
        let mut keys = std::collections::HashSet::new();
        for pkt in &packets {
            let parsed = parse_ipv4(pkt).expect("flood packet parses");
            let (key, _) = sd_flow::FlowKey::from_parsed(&parsed).expect("flood packet is tcp");
            assert_ne!(key, attack_key, "flood flows are distinct from the attack");
            assert_eq!(
                sd_flow::hash::hash_key_seeded(ORACLE_FLOW_HASH_SEED, &key) & FLOOD_MASK,
                target,
                "every flood key must collide with the attack window"
            );
            keys.insert(key);
        }
        assert_eq!(keys.len(), 12, "flood flows are pairwise distinct");
    }

    #[test]
    fn flood_and_heavytail_programs_deliver_and_stay_signature_free() {
        for policy in OverlapPolicy::ALL {
            let p = TraceProgram {
                seed: 21,
                policy,
                prefix_len: 100,
                suffix_len: 60,
                mutations: vec![
                    Mutation::SplitInSignature { delta: 5 },
                    Mutation::CollisionFlood { flows: 10 },
                    Mutation::HeavyTailNoise { flows: 12 },
                ],
            };
            assert!(delivered(&p), "flooded program must deliver under {policy}");
            // Background packets carry no signature bytes: the only packets
            // that may contain signature fragments come from the attack
            // client.
            let c = p.compile();
            for pkt in &c.packets {
                let src = &pkt[12..16];
                if src == [10, 66, 0, 1] {
                    continue;
                }
                assert!(
                    !pkt.windows(6)
                        .any(|w| ORACLE_SIGNATURE.windows(6).any(|s| s == w)),
                    "background packet leaks signature bytes"
                );
            }
        }
    }
}
