//! FragRoute-style evasion attack generation.
//!
//! Each [`EvasionStrategy`] transforms one attack conversation — a TCP flow
//! whose client→server stream contains an exact signature — into the packet
//! sequence a Ptacek–Newsham attacker would emit. The generator is
//! *victim-aware*: strategies that rely on ambiguity (inconsistent
//! retransmissions, overlapping fragments, chaff) are crafted so the
//! configured victim stack reconstructs the real payload while a
//! differently-configured observer reconstructs garbage. Every strategy is
//! verified (tests + experiment harness) to deliver the payload through
//! [`crate::victim::receive_stream`] — an "evasion" that breaks the attack
//! is a bug.
//!
//! A strategy is a schedule of [`Segment`]s: stream offset and bytes plus
//! every way a send may deviate (TTL, checksum, urgent pointer, DF, IP
//! fragmentation with an optional forged fragment). [`Conversation`] is
//! the one emitter that turns a schedule into packets; `sd-oracle`'s trace
//! programs compile onto it too, so each attack primitive is written once.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_packet::builder::TcpPacketSpec;
use sd_packet::frag::fragment_ipv4;
use sd_packet::ipv4::Ipv4Packet;
use sd_packet::tcp::TcpFlags;
use sd_reassembly::{OverlapPolicy, UrgentSemantics};

use crate::victim::VictimConfig;

/// The attack conversation to deliver.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// Attacker endpoint.
    pub client: (Ipv4Addr, u16),
    /// Victim endpoint.
    pub server: (Ipv4Addr, u16),
    /// The signature bytes the IPS must find.
    pub signature: Vec<u8>,
    /// Benign bytes sent before the signature.
    pub prefix: Vec<u8>,
    /// Benign bytes sent after the signature.
    pub suffix: Vec<u8>,
    /// Initial sequence number of the attacker's SYN.
    pub isn: u32,
    /// TTL for honest packets.
    pub ttl: u8,
}

impl AttackSpec {
    /// A ready-to-use spec with realistic cover text around `signature`
    /// (a few hundred bytes each side, so segmentation strategies produce
    /// genuinely multi-packet conversations).
    pub fn simple(signature: impl Into<Vec<u8>>) -> Self {
        let mut prefix = b"GET /index.html HTTP/1.1\r\nHost: target.example.com\r\n".to_vec();
        prefix.extend_from_slice(
            b"User-Agent: Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36\r\n\
              Accept: text/html,application/xhtml+xml,application/xml;q=0.9\r\n\
              Accept-Language: en-US,en;q=0.5\r\nAccept-Encoding: gzip, deflate\r\n\
              Connection: keep-alive\r\nCookie: session=deadbeefcafe0123; theme=dark\r\n\r\n",
        );
        let mut suffix = b"\r\n-- trailing exploit padding --\r\n".to_vec();
        suffix.extend_from_slice(&[b'#'; 180]);
        AttackSpec {
            client: ("10.66.0.1".parse().expect("static addr"), 31337),
            server: ("10.0.0.2".parse().expect("static addr"), 80),
            signature: signature.into(),
            prefix,
            suffix,
            isn: 0x1000_0000,
            ttl: 64,
        }
    }

    /// The complete client→server application payload.
    pub fn payload(&self) -> Vec<u8> {
        let mut p = self.prefix.clone();
        p.extend_from_slice(&self.signature);
        p.extend_from_slice(&self.suffix);
        p
    }

    /// Byte range of the signature within [`payload`](Self::payload).
    pub fn sig_range(&self) -> std::ops::Range<usize> {
        self.prefix.len()..self.prefix.len() + self.signature.len()
    }
}

/// One evasion technique from the Ptacek–Newsham / FragRoute family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvasionStrategy {
    /// No evasion: MSS-sized in-order segments (the detection floor every
    /// engine must pass).
    None,
    /// One segment boundary placed mid-signature: defeats any per-packet
    /// matcher while looking otherwise normal.
    SplitAtSignature,
    /// Every segment at most `size` bytes ("frag -s" in FragRoute): no
    /// signature piece of length > `size` can appear whole in a packet.
    TinySegments {
        /// Maximum TCP payload bytes per segment.
        size: usize,
    },
    /// IP-fragment every data packet into `frag`-byte fragments (multiple
    /// of 8): the signature never appears whole in any *IP packet*.
    TinyFragments {
        /// Fragment payload size in bytes (rounded up to a multiple of 8).
        frag: usize,
    },
    /// Overlapping IP fragments with conflicting content over the signature
    /// region; the victim's reassembly policy resolves to the real bytes.
    OverlappingFragments,
    /// Moderate segments sent in a pseudorandom order within a window.
    ReorderSegments {
        /// Reorder window in segments.
        window: usize,
    },
    /// All data segments in exactly reverse order.
    ReverseSegments,
    /// Every segment sent twice (retransmission noise).
    DuplicateSegments,
    /// Conflicting TCP retransmissions over the signature region; the
    /// victim's overlap policy resolves to the real bytes, the opposite
    /// policy reconstructs garbage.
    InconsistentRetransmission,
    /// Garbage chaff segments with *broken TCP checksums* interleaved at
    /// the signature's sequence range; the victim's stack discards them.
    BadChecksumChaff,
    /// Garbage chaff segments with TTLs that expire before the victim;
    /// only an IPS with an accurate TTL floor ignores them.
    LowTtlChaff {
        /// TTL given to chaff (must be below the victim's hop distance).
        chaff_ttl: u8,
    },
    /// Urgent-pointer chaff: garbage bytes inserted inside the signature,
    /// each flagged URG so a discard-semantics victim never delivers them
    /// — while any observer that treats urgent data as inline scans a
    /// corrupted signature. One chaff byte per `pitch` signature bytes, so
    /// no packet carries an intact piece of length ≥ `pitch` either.
    UrgentChaff {
        /// Distance between inserted urgent bytes (the defender's piece
        /// length is the natural choice).
        pitch: usize,
    },
    /// The theorem-tight adversary: in-order segments phase-shifted so a
    /// boundary falls in the middle of every defender piece — each interior
    /// segment is exactly `pitch` bytes (the defender's piece length), so
    /// no packet carries a whole piece and, against a defender whose
    /// small-segment cutoff is ≤ `pitch`, nothing ever looks small. The
    /// admissible cutoff `2p − 1` exists precisely to catch this.
    PitchSegments {
        /// The defender's piece length the attacker tunes to.
        pitch: usize,
    },
}

impl EvasionStrategy {
    /// The canonical attack suite, as exercised by experiment E1.
    pub fn catalog() -> Vec<EvasionStrategy> {
        vec![
            EvasionStrategy::None,
            EvasionStrategy::SplitAtSignature,
            EvasionStrategy::TinySegments { size: 4 },
            EvasionStrategy::TinyFragments { frag: 8 },
            EvasionStrategy::OverlappingFragments,
            EvasionStrategy::ReorderSegments { window: 6 },
            EvasionStrategy::ReverseSegments,
            EvasionStrategy::DuplicateSegments,
            EvasionStrategy::InconsistentRetransmission,
            EvasionStrategy::BadChecksumChaff,
            EvasionStrategy::LowTtlChaff { chaff_ttl: 2 },
            EvasionStrategy::UrgentChaff { pitch: 7 },
            EvasionStrategy::PitchSegments { pitch: 7 },
        ]
    }

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EvasionStrategy::None => "none",
            EvasionStrategy::SplitAtSignature => "split-at-signature",
            EvasionStrategy::TinySegments { .. } => "tiny-segments",
            EvasionStrategy::TinyFragments { .. } => "tiny-fragments",
            EvasionStrategy::OverlappingFragments => "overlapping-fragments",
            EvasionStrategy::ReorderSegments { .. } => "reorder",
            EvasionStrategy::ReverseSegments => "reverse",
            EvasionStrategy::DuplicateSegments => "duplicate",
            EvasionStrategy::InconsistentRetransmission => "inconsistent-retransmission",
            EvasionStrategy::BadChecksumChaff => "bad-checksum-chaff",
            EvasionStrategy::LowTtlChaff { .. } => "low-ttl-chaff",
            EvasionStrategy::UrgentChaff { .. } => "urgent-chaff",
            EvasionStrategy::PitchSegments { .. } => "pitch-segments",
        }
    }
}

/// Maximum segment size for honest segments.
const MSS: usize = 1460;

/// Seeded unconstrained bytes: chaff, forged fragments and the garbage
/// copies of conflicting retransmissions. One seed gives one stream, so
/// slices of one draw equal consecutive draws from it.
pub fn garbage(salt: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(salt);
    (0..len).map(|_| rng.gen()).collect()
}

/// How a [`Segment`]'s IP datagram goes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fragmentation {
    /// One unfragmented datagram.
    None,
    /// IP fragments carrying at most `unit` payload bytes each (rounded
    /// down to a multiple of 8).
    Tiles {
        /// Maximum fragment payload in bytes.
        unit: usize,
    },
    /// [`Tiles`](Self::Tiles) plus a forged twin of fragment `target`
    /// whose payload is [`garbage`]`(salt, len)`. Both copies start at the
    /// same offset, so the victim's overlap policy picks by arrival:
    /// First/BSD keep the earlier copy, Last/Linux the later one.
    Forged {
        /// Maximum fragment payload in bytes.
        unit: usize,
        /// Index of the fragment to forge (ignored when out of range).
        target: usize,
        /// Seed of the forged payload.
        salt: u64,
        /// Send the forged twin before the real fragment.
        forged_first: bool,
    },
}

/// One TCP data segment of an attack conversation, and every way it may
/// deviate from an honest one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Stream offset of the first byte (`seq = isn + 1 + offset`).
    pub offset: usize,
    /// TCP payload.
    pub bytes: Vec<u8>,
    /// TTL override (chaff that expires before the victim).
    pub ttl: Option<u8>,
    /// Flip the TCP checksum so the victim's stack drops the segment.
    pub bad_checksum: bool,
    /// Urgent pointer; nonzero also sets URG.
    pub urgent: u16,
    /// The IP Don't Fragment bit.
    pub dont_frag: bool,
    /// IP fragmentation applied on the wire.
    pub frag: Fragmentation,
}

impl Segment {
    /// An honest segment: conversation TTL, valid checksum, DF set, one
    /// datagram.
    pub fn new(offset: usize, bytes: impl Into<Vec<u8>>) -> Segment {
        Segment {
            offset,
            bytes: bytes.into(),
            ttl: None,
            bad_checksum: false,
            urgent: 0,
            dont_frag: true,
            frag: Fragmentation::None,
        }
    }
}

/// The one attack-flow emitter: a client→server TCP conversation that
/// turns a SYN, a schedule of [`Segment`]s and a FIN into IPv4 packets.
/// Every packet takes the next IP ident, so fragments of different
/// datagrams (and of different flows sharing a host pair in a mixed trace)
/// never collide in a reassembly context.
#[derive(Debug, Clone)]
pub struct Conversation {
    client: SocketAddrV4,
    server: SocketAddrV4,
    isn: u32,
    ttl: u8,
    next_ident: u16,
    packets: Vec<Vec<u8>>,
}

impl Conversation {
    /// A conversation whose SYN carries `isn` and whose packets carry `ttl`
    /// unless a segment overrides it.
    pub fn new(client: (Ipv4Addr, u16), server: (Ipv4Addr, u16), isn: u32, ttl: u8) -> Self {
        Conversation {
            client: SocketAddrV4::new(client.0, client.1),
            server: SocketAddrV4::new(server.0, server.1),
            isn,
            ttl,
            next_ident: client.1 ^ (isn as u16),
            packets: Vec::new(),
        }
    }

    fn seq(&self, offset: usize) -> u32 {
        self.isn.wrapping_add(1).wrapping_add(offset as u32)
    }

    fn packet(&mut self, seq: u32, flags: TcpFlags, s: &Segment) -> Vec<u8> {
        let ident = self.next_ident;
        self.next_ident = ident.wrapping_add(1);
        let mut pkt = TcpPacketSpec::between(self.client, self.server)
            .seq(seq)
            .flags(flags)
            .urgent(s.urgent)
            .ttl(s.ttl.unwrap_or(self.ttl))
            .ident(ident)
            .dont_frag(s.dont_frag)
            .payload(&s.bytes)
            .build();
        if s.bad_checksum {
            let ihl = Ipv4Packet::new_unchecked(&pkt[..]).header_len();
            pkt[ihl + 16] ^= 0xff;
        }
        pkt
    }

    /// Emit the SYN.
    pub fn syn(&mut self) {
        let p = self.packet(self.isn, TcpFlags::SYN, &Segment::new(0, []));
        self.packets.push(p);
    }

    /// Emit one data segment (ACK|PSH), fragmented as it asks. A datagram
    /// the fragmenter refuses goes out whole.
    pub fn send(&mut self, s: &Segment) {
        let pkt = self.packet(self.seq(s.offset), TcpFlags::ACK.union(TcpFlags::PSH), s);
        let unit = match s.frag {
            Fragmentation::None => return self.packets.push(pkt),
            Fragmentation::Tiles { unit } | Fragmentation::Forged { unit, .. } => unit,
        };
        let Ok(mut frags) = fragment_ipv4(&pkt, unit) else {
            return self.packets.push(pkt);
        };
        if let Fragmentation::Forged {
            target,
            salt,
            forged_first,
            ..
        } = s.frag
        {
            if let Some(real) = frags.get(target) {
                let mut forged = real.clone();
                let mut v = Ipv4Packet::new_unchecked(&mut forged[..]);
                let len = v.payload().len();
                v.payload_mut().copy_from_slice(&garbage(salt, len));
                v.fill_checksum();
                frags.insert(target + usize::from(!forged_first), forged);
            }
        }
        self.packets.extend(frags);
    }

    /// Emit the FIN after `len` stream bytes and hand back every packet in
    /// wire order.
    pub fn fin(mut self, len: usize) -> Vec<Vec<u8>> {
        let flags = TcpFlags::FIN.union(TcpFlags::ACK);
        let p = self.packet(self.seq(len), flags, &Segment::new(0, []));
        self.packets.push(p);
        self.packets
    }
}

/// `(start, end)` chunks of at most `size` bytes tiling `range`.
fn chunks(range: Range<usize>, size: usize) -> impl Iterator<Item = (usize, usize)> {
    let (size, end) = (size.max(1), range.end);
    range.step_by(size).map(move |s| (s, (s + size).min(end)))
}

/// `size`-byte chunks of `0..len` with one boundary pinned at `pin` — used
/// by the reorder/duplicate strategies so the signature always straddles a
/// segment boundary (a FragRoute attacker controls segmentation and would
/// never leave the whole signature inside one packet).
fn chunks_pinned(len: usize, size: usize, pin: usize) -> Vec<(usize, usize)> {
    let first = pin % size;
    chunks(0..first, size)
        .chain(chunks(first..len, size))
        .collect()
}

/// A data segment of the catalog: the catalog clears DF on every data
/// segment, fragmented or not.
fn data(offset: usize, bytes: &[u8]) -> Segment {
    Segment {
        dont_frag: false,
        ..Segment::new(offset, bytes)
    }
}

/// Generate the packet sequence for `spec` under `strategy`, crafted
/// against `victim`. Deterministic given `seed`.
///
/// ```
/// use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
/// use sd_traffic::victim::{receive_stream, VictimConfig};
///
/// let spec = AttackSpec::simple(&b"EVIL_SIGNATURE_BYTES"[..]);
/// let victim = VictimConfig::default();
/// let packets = generate(&spec, EvasionStrategy::TinySegments { size: 4 }, victim, 1);
/// // The evasion must still deliver the payload to the victim's stack:
/// assert_eq!(receive_stream(packets.iter(), victim, spec.server), spec.payload());
/// // ...while no single packet contains the whole signature:
/// assert!(packets.iter().all(|p| p.windows(20).all(|w| w != &spec.signature[..])));
/// ```
pub fn generate(
    spec: &AttackSpec,
    strategy: EvasionStrategy,
    victim: VictimConfig,
    seed: u64,
) -> Vec<Vec<u8>> {
    let payload = spec.payload();
    let mut c = Conversation::new(spec.client, spec.server, spec.isn, spec.ttl);
    c.syn();
    for s in schedule(spec, &payload, strategy, victim, seed) {
        c.send(&s);
    }
    c.fin(payload.len())
}

/// The segments `strategy` sends for `payload`.
fn schedule(
    spec: &AttackSpec,
    payload: &[u8],
    strategy: EvasionStrategy,
    victim: VictimConfig,
    seed: u64,
) -> Vec<Segment> {
    let len = payload.len();
    let sig = spec.sig_range();
    // Most strategies cut once mid-signature.
    let mid = sig.start + sig.len() / 2;
    let cut = |(s, e): (usize, usize)| data(s, &payload[s..e]);
    // First/BSD victims keep the first-arrived of two copies starting at
    // one offset; Last and tie-winning Linux keep the later one.
    let real_first = matches!(victim.policy, OverlapPolicy::First | OverlapPolicy::Bsd);
    // Garbage twins of the two halves around `mid`, each right before its
    // honest half: both twins come from one draw of `garbage(salt, len)`.
    let chaffed = |salt: u64, ttl: Option<u8>, bad_checksum: bool| {
        let chaff = garbage(salt, len);
        [(0, mid), (mid, len)]
            .into_iter()
            .flat_map(|(s, e)| {
                let twin = Segment {
                    ttl,
                    bad_checksum,
                    ..data(s, &chaff[s..e])
                };
                [twin, data(s, &payload[s..e])]
            })
            .collect()
    };

    match strategy {
        EvasionStrategy::None => chunks(0..len, MSS).map(cut).collect(),

        // Each half may still exceed MSS: MSS-chunk within the half (the
        // boundary at `mid` is what defeats per-packet matching).
        EvasionStrategy::SplitAtSignature => chunks(0..mid, MSS)
            .chain(chunks(mid..len, MSS))
            .map(cut)
            .collect(),

        EvasionStrategy::TinySegments { size } => chunks(0..len, size).map(cut).collect(),

        // One big TCP segment, fragmented at the IP layer.
        EvasionStrategy::TinyFragments { frag } => vec![Segment {
            frag: Fragmentation::Tiles {
                unit: frag.div_ceil(8) * 8,
            },
            ..data(0, payload)
        }],

        // Fragment the signature-carrying segment, then forge the fragment
        // holding the signature's first byte (20 bytes of TCP header into
        // the IP payload). Fragments are smaller than the signature so no
        // single one carries it whole (8-byte granularity).
        EvasionStrategy::OverlappingFragments => {
            let unit = (sig.len().saturating_sub(1) / 8).max(1) * 8;
            vec![Segment {
                frag: Fragmentation::Forged {
                    unit,
                    target: (20 + sig.start) / unit,
                    salt: seed ^ 0xF0F0,
                    forged_first: !real_first,
                },
                ..data(0, payload)
            }]
        }

        EvasionStrategy::ReorderSegments { window } => {
            let cuts = chunks_pinned(len, 128, mid);
            let mut idx: Vec<usize> = (0..cuts.len()).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for w in idx.chunks_mut(window.max(2)) {
                for i in (1..w.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    w.swap(i, j);
                }
            }
            idx.into_iter().map(|i| cut(cuts[i])).collect()
        }

        EvasionStrategy::ReverseSegments => chunks_pinned(len, 128, mid)
            .into_iter()
            .rev()
            .map(cut)
            .collect(),

        EvasionStrategy::DuplicateSegments => chunks_pinned(len, 128, mid)
            .into_iter()
            .flat_map(|c| [cut(c), cut(c)])
            .collect(),

        // Garbage and real copies of the signature region, held behind a
        // one-byte hole so the conflicting copies meet in the reassembly
        // buffer (not the delivered stream). Both copies are split at `mid`
        // — no packet carries the whole signature — and start at identical
        // offsets, so every overlap is a tie the victim's policy resolves
        // to the real bytes.
        EvasionStrategy::InconsistentRetransmission => {
            let g = garbage(seed ^ 0xBEEF, sig.len());
            let real = [cut((sig.start, mid)), cut((mid, sig.end))];
            let garb = [
                data(sig.start, &g[..mid - sig.start]),
                data(mid, &g[mid - sig.start..]),
            ];
            let (first, second) = if real_first {
                (real, garb)
            } else {
                (garb, real)
            };
            let mut v = Vec::new();
            if sig.start > 1 {
                v.push(cut((0, sig.start - 1)));
            }
            v.extend(first.into_iter().chain(second));
            // Plug the hole so everything delivers.
            v.push(cut((sig.start - 1, sig.start)));
            if sig.end < len {
                v.push(cut((sig.end, len)));
            }
            v
        }

        // Chaff twins (same seq, garbage data, broken checksum).
        EvasionStrategy::BadChecksumChaff => chaffed(seed ^ 0xC0DE, None, true),

        EvasionStrategy::LowTtlChaff { chaff_ttl } => {
            chaffed(seed ^ 0x7711, Some(chaff_ttl), false)
        }

        // An inline-delivery victim would receive the chaff: the attack
        // only exists against discard semantics, so degrade to the plain
        // mid-signature split (still an evasion).
        EvasionStrategy::UrgentChaff { .. } if victim.urgent != UrgentSemantics::DiscardOne => {
            schedule(
                spec,
                payload,
                EvasionStrategy::SplitAtSignature,
                victim,
                seed,
            )
        }

        // The wire stream is the payload with a chaff byte inserted after
        // every `pitch` signature bytes; a segment ends at each chaff byte
        // and its urgent pointer names it (1-based offset of its last byte).
        EvasionStrategy::UrgentChaff { pitch } => {
            let pitch = pitch.max(2);
            let chaff = garbage(seed ^ 0x0B0E, sig.len().saturating_sub(1) / pitch);
            let mut wire = payload[..sig.start].to_vec();
            let mut v = Vec::new();
            let mut prev = 0;
            for (i, &byte) in payload[sig.clone()].iter().enumerate() {
                if i > 0 && i % pitch == 0 {
                    wire.push(chaff[i / pitch - 1]);
                    v.push(Segment {
                        urgent: (wire.len() - prev) as u16,
                        ..data(prev, &wire[prev..])
                    });
                    prev = wire.len();
                }
                wire.push(byte);
            }
            wire.extend_from_slice(&payload[sig.end..]);
            if prev < wire.len() {
                v.push(data(prev, &wire[prev..]));
            }
            v
        }

        // Leading data up to the first mid-piece boundary, interior
        // segments of exactly `pitch` bytes each straddling two adjacent
        // pieces, then the remainder.
        EvasionStrategy::PitchSegments { pitch } => {
            let pitch = pitch.max(2);
            let first = sig.start + pitch / 2;
            let mut at = first;
            while at + pitch < sig.end + pitch / 2 && at + pitch <= len {
                at += pitch;
            }
            chunks(0..first, MSS)
                .chain(chunks(first..at, pitch))
                .chain(chunks(at..len, MSS))
                .map(cut)
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::receive_stream;

    fn spec() -> AttackSpec {
        AttackSpec::simple(&b"EVIL_SIGNATURE_BYTES"[..])
    }

    /// The master property: every strategy, against every victim policy,
    /// still delivers the full payload to the victim.
    #[test]
    fn every_strategy_delivers_to_every_victim() {
        for policy in OverlapPolicy::ALL {
            let victim = VictimConfig {
                policy,
                ..Default::default()
            };
            for strategy in EvasionStrategy::catalog() {
                let spec = spec();
                let packets = generate(&spec, strategy, victim, 42);
                let got = receive_stream(packets.iter(), victim, spec.server);
                assert_eq!(
                    got,
                    spec.payload(),
                    "strategy {} vs victim {policy} failed to deliver",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn none_puts_signature_in_one_packet() {
        let spec = spec();
        let packets = generate(&spec, EvasionStrategy::None, VictimConfig::default(), 1);
        let found = packets.iter().any(|p| {
            p.windows(spec.signature.len())
                .any(|w| w == &spec.signature[..])
        });
        assert!(found, "baseline must be per-packet detectable");
    }

    #[test]
    fn split_at_signature_hides_from_per_packet() {
        let spec = spec();
        let packets = generate(
            &spec,
            EvasionStrategy::SplitAtSignature,
            VictimConfig::default(),
            1,
        );
        let found = packets.iter().any(|p| {
            p.windows(spec.signature.len())
                .any(|w| w == &spec.signature[..])
        });
        assert!(!found, "no packet may contain the whole signature");
    }

    #[test]
    fn tiny_segments_have_bounded_payload() {
        let spec = spec();
        let packets = generate(
            &spec,
            EvasionStrategy::TinySegments { size: 4 },
            VictimConfig::default(),
            1,
        );
        for p in &packets {
            let ip = Ipv4Packet::new_unchecked(&p[..]);
            let l4 = ip.payload();
            if l4.len() > 20 {
                assert!(l4.len() - 20 <= 4, "segment payload exceeds 4 bytes");
            }
        }
    }

    #[test]
    fn tiny_fragments_are_fragments() {
        let spec = spec();
        let packets = generate(
            &spec,
            EvasionStrategy::TinyFragments { frag: 8 },
            VictimConfig::default(),
            1,
        );
        let frag_count = packets
            .iter()
            .filter(|p| Ipv4Packet::new_unchecked(&p[..][..]).is_fragment())
            .count();
        assert!(frag_count > 5, "expected many tiny fragments");
    }

    #[test]
    fn inconsistent_retransmission_confuses_wrong_policy() {
        // Craft against a First-policy victim; a Last-policy observer
        // reconstructs garbage in the signature region.
        let spec = spec();
        let victim = VictimConfig {
            policy: OverlapPolicy::First,
            ..Default::default()
        };
        let packets = generate(
            &spec,
            EvasionStrategy::InconsistentRetransmission,
            victim,
            7,
        );
        let wrong = VictimConfig {
            policy: OverlapPolicy::Last,
            ..Default::default()
        };
        let seen_by_wrong = receive_stream(packets.iter(), wrong, spec.server);
        let has_sig = seen_by_wrong
            .windows(spec.signature.len())
            .any(|w| w == &spec.signature[..]);
        assert!(
            !has_sig,
            "an observer with the wrong policy must reconstruct garbage"
        );
    }

    #[test]
    fn chaff_is_dropped_by_victim_but_present_on_wire() {
        let spec = spec();
        let victim = VictimConfig::default();
        let packets = generate(&spec, EvasionStrategy::BadChecksumChaff, victim, 7);
        // More packets than the honest 2-segment split needs.
        assert!(packets.len() >= 6, "chaff packets must be on the wire");
        let got = receive_stream(packets.iter(), victim, spec.server);
        assert_eq!(got, spec.payload());
    }

    #[test]
    fn catalog_names_are_unique() {
        let names: Vec<&str> = EvasionStrategy::catalog()
            .iter()
            .map(|s| s.name())
            .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = spec();
        let v = VictimConfig::default();
        let a = generate(&spec, EvasionStrategy::ReorderSegments { window: 4 }, v, 5);
        let b = generate(&spec, EvasionStrategy::ReorderSegments { window: 4 }, v, 5);
        assert_eq!(a, b);
    }
}
