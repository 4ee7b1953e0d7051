//! The experiment harness: one subcommand per table/figure of the
//! reconstructed evaluation (DESIGN.md §4, EXPERIMENTS.md records the
//! results). Run everything with:
//!
//! ```text
//! cargo run -p sd-bench --release --bin experiments -- all
//! ```
//!
//! or a single experiment with `-- e1` … `-- e15` (E7 and E8 are retired:
//! E2 carries E8's delay-line column). Every workload and every flow-hash
//! key is seeded, so E1–E6 and E9–E14 print the same bytes on every run
//! and `tests/golden.rs` pins each of them. E15 is the one timed table;
//! engine speed is otherwise measured by `sd-e2e` (`benchmark/`).

use std::net::Ipv4Addr;

use sd_bench::{benign_trace, drop_random, gbps, generated_signatures, header, SIG};
use sd_ips::api::run_trace;
use sd_ips::conventional::ConventionalConfig;
use sd_ips::{ConventionalIps, Ips, NaivePacketIps, Signature, SignatureSet};
use sd_reassembly::OverlapPolicy;
use sd_traffic::benign::{BenignConfig, BenignGenerator};
use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use sd_traffic::payload::PayloadModel;
use sd_traffic::victim::{receive_stream, VictimConfig};
use splitdetect::fastpath::DivertReason;
use splitdetect::{SplitDetect, SplitDetectConfig};

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match cmd.as_str() {
        "e1" => e1(),
        "e2" => e2(),
        "e3" => e3(),
        "e4" => e4(),
        "e5" => e5(),
        "e6" => e6(),
        "e9" => e9(),
        "e10" => e10(),
        "e11" => e11(),
        "e12" => e12(),
        "e13" => e13(),
        "e14" => e14(),
        "e15" => e15(),
        "all" => {
            for f in [
                e1 as fn(), e2, e3, e4, e5, e6, e9, e10, e11, e12, e13, e14, e15,
            ] {
                f();
                println!();
            }
        }
        other => {
            eprintln!("unknown experiment {other}; use e1..e6, e9..e15 or all");
            std::process::exit(2);
        }
    }
}

fn one_sig() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("evil", SIG)])
}

/// The default configuration with the flow-hash key pinned. The flow
/// table, the slow path's maps and the Bloom counters all draw their hashes
/// from this key, and an unset key is random per engine; every engine here
/// is built from this so each table prints the same bytes on every run.
fn pinned() -> SplitDetectConfig {
    SplitDetectConfig {
        flow_hash_seed: Some(0xE0),
        ..Default::default()
    }
}

// ---------------------------------------------------------------- E1 ----

/// E1 — detection matrix: every evasion × every engine, across all victim
/// policies (reproduces the paper's coverage table; the abstract's
/// "detects all byte-string evasions").
fn e1() {
    println!("== E1: detection matrix (evasions × engines, all victim policies) ==\n");
    header(&[
        ("strategy", 28),
        ("delivers", 9),
        ("naive", 6),
        ("conventional", 12),
        ("split-detect", 12),
    ]);

    for strategy in EvasionStrategy::catalog() {
        let mut delivered_all = true;
        let mut naive_hits = 0;
        let mut conv_hits = 0;
        let mut sd_hits = 0;
        let mut cases = 0;
        for policy in OverlapPolicy::ALL {
            let victim = VictimConfig {
                policy,
                ..Default::default()
            };
            let spec = AttackSpec::simple(SIG);
            let packets = generate(&spec, strategy, victim, 1000 + cases as u64);
            cases += 1;
            delivered_all &= receive_stream(packets.iter(), victim, spec.server) == spec.payload();

            let mut naive = NaivePacketIps::new(one_sig());
            naive_hits += usize::from(
                run_trace(&mut naive, packets.iter().map(|p| p.as_slice()))
                    .iter()
                    .any(|a| a.signature == 0),
            );
            let mut conv = ConventionalIps::with_config(
                one_sig(),
                ConventionalConfig {
                    policy,
                    ..Default::default()
                },
            );
            conv_hits += usize::from(
                run_trace(&mut conv, packets.iter().map(|p| p.as_slice()))
                    .iter()
                    .any(|a| a.signature == 0),
            );
            let mut sd = SplitDetect::with_config(
                one_sig(),
                SplitDetectConfig {
                    slow_path_policy: policy,
                    ..pinned()
                },
            )
            .expect("admissible");
            sd_hits += usize::from(
                run_trace(&mut sd, packets.iter().map(|p| p.as_slice()))
                    .iter()
                    .any(|a| a.signature == 0),
            );
        }
        println!(
            "{:>28} {:>9} {:>6} {:>12} {:>12}",
            strategy.name(),
            if delivered_all { "yes" } else { "NO" },
            format!("{naive_hits}/{cases}"),
            format!("{conv_hits}/{cases}"),
            format!("{sd_hits}/{cases}"),
        );
    }
    println!("\npaper claim: Split-Detect detects all byte-string evasions; the\nper-packet strawman detects only the unevaded baseline.");
}

// ---------------------------------------------------------------- E2 ----

/// E2 — state at the paper's sizing point (≈10 % claim): N concurrent
/// connections with 1 % upstream loss, both engines fully provisioned. The
/// delay line is shown apart: it is provisioned once, whatever N is, so the
/// ratio leaves it out.
fn e2() {
    println!("== E2: state requirement vs conventional (the ~10% claim) ==\n");
    header(&[
        ("connections", 11),
        ("conv state", 12),
        ("sd fast", 10),
        ("sd delay", 10),
        ("sd slow", 10),
        ("sd total", 10),
        ("ratio", 7),
    ]);
    for &n in &[1_000usize, 5_000, 10_000, 20_000] {
        let mut gen = BenignGenerator::new(BenignConfig {
            seed: 42,
            ..Default::default()
        });
        let mut trace = gen.generate_concurrent(n, 10 * 1460);
        drop_random(&mut trace, 0.01, 7);

        let mut conv = ConventionalIps::new(one_sig());
        let mut out = Vec::new();
        for (tick, p) in trace.iter_bytes().enumerate() {
            conv.process_packet(p, tick as u64, &mut out);
        }
        let conv_state = conv.resources().state_bytes_peak;

        let mut sd = SplitDetect::with_config(
            one_sig(),
            SplitDetectConfig {
                flow_table_capacity: n * 2,
                slow_path_max_connections: n,
                ..pinned()
            },
        )
        .expect("admissible");
        for (tick, p) in trace.iter_bytes().enumerate() {
            sd.process_packet(p, tick as u64, &mut out);
        }
        let s = sd.stats();
        let sd_total = s.fast_state_bytes + s.slow_state_peak_bytes;
        println!(
            "{:>11} {:>12} {:>10} {:>10} {:>10} {:>10} {:>6.1}%",
            n,
            conv_state,
            s.fast_state_bytes,
            s.divert_state_bytes,
            s.slow_state_peak_bytes,
            sd_total,
            sd_total as f64 / conv_state as f64 * 100.0
        );
    }
    println!(
        "\npaper claim: storage ≈ 10% of a conventional IPS. sd total and the\n\
         ratio leave out the delay line, provisioned once whatever N is."
    );
}

// ---------------------------------------------------------------- E3 ----

/// E3 — benign diverted fraction vs small-segment budget T (figure).
fn e3() {
    println!("== E3: benign diversion vs small-segment budget T ==\n");
    let trace = benign_trace(400, 3);
    header(&[
        ("T", 3),
        ("flows%", 8),
        ("packets%", 9),
        ("bytes%", 8),
        ("small", 7),
        ("ooo", 5),
        ("piece", 6),
    ]);
    for t in 0..=6usize {
        let mut sd = SplitDetect::with_config_unchecked(
            one_sig(),
            SplitDetectConfig {
                small_segment_budget: t, // admissible only for t ≤ 1 (k=3)
                ..pinned()
            },
        );
        let mut out = Vec::new();
        for (tick, p) in trace.iter_bytes().enumerate() {
            sd.process_packet(p, tick as u64, &mut out);
        }
        let s = sd.stats();
        println!(
            "{:>3} {:>7.2}% {:>8.2}% {:>7.2}% {:>7} {:>5} {:>6}{}",
            t,
            s.diverted_flow_fraction() * 100.0,
            s.slow_packet_fraction() * 100.0,
            s.slow_byte_fraction() * 100.0,
            s.diverts_by(DivertReason::SmallSegments),
            s.diverts_by(DivertReason::OutOfOrder),
            s.diverts_by(DivertReason::PieceMatch),
            if t <= 1 {
                ""
            } else {
                "   (inadmissible: theorem void)"
            }
        );
    }
    println!("\nshape: diversion falls as T rises; T ≤ k−2 = 1 keeps the guarantee.");

    // Companion sweep: the out-of-order rule's sensitivity to the benign
    // reorder rate — the deployment parameter that dominates slow-path
    // load, since one reordered packet diverts a whole flow.
    println!("\n-- benign reorder-rate sensitivity (T = 1) --\n");
    header(&[
        ("reorder/pkt", 12),
        ("flows%", 8),
        ("bytes%", 8),
        ("ooo diverts", 12),
    ]);
    for &r in &[0.0f64, 0.001, 0.002, 0.005, 0.01] {
        let trace = BenignGenerator::new(BenignConfig {
            flows: 400,
            seed: 3,
            interactive_fraction: 0.05,
            reorder_prob: r,
            ..Default::default()
        })
        .generate();
        let mut sd = SplitDetect::with_config(one_sig(), pinned()).expect("admissible");
        let mut out = Vec::new();
        for (tick, p) in trace.iter_bytes().enumerate() {
            sd.process_packet(p, tick as u64, &mut out);
        }
        let s = sd.stats();
        println!(
            "{:>11.1}% {:>7.2}% {:>7.2}% {:>12}",
            r * 100.0,
            s.diverted_flow_fraction() * 100.0,
            s.slow_byte_fraction() * 100.0,
            s.diverts_by(DivertReason::OutOfOrder),
        );
    }
    println!("\nthe out-of-order rule makes slow-path load a function of upstream\nreordering: at clean server-side vantages (~0.1-0.2%/pkt) byte share\nstays near the paper's budget; behind a reordering core it balloons --\nthe deployment constraint the paper's vantage assumption hides.");
}

// ---------------------------------------------------------------- E4 ----

/// E4 — benign diverted fraction vs piece length p (figure; p is driven by
/// the piece count k, which sets the small-segment cutoff 2p−1).
///
/// The sensitive population is flows whose application writes fall *near*
/// the cutoff — chat/RPC-style flows with a handful of 8–64-byte writes —
/// so the workload is built around exactly those.
fn e4() {
    use sd_packet::builder::TcpPacketSpec;
    use sd_packet::tcp::TcpFlags;
    use sd_traffic::trace::{Trace, TracePacket};

    println!("== E4: benign diversion vs piece length p (via k) ==\n");
    // Longer rules (48–64 B) so the sweep reaches k = 8 admissibly.
    let sigs = SignatureSet::generate(11, 50, 48..64);

    // 400 RPC-style flows: 6 writes each, sizes uniform in 8..64 bytes.
    let mut state = 99u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut packets = Vec::new();
    let mut ts = 0u64;
    for f in 0..400u32 {
        let src = format!("10.{}.{}.{}:2000", 1 + (f >> 16), (f >> 8) & 0xff, f & 0xff);
        let mut seq = 1_000u32;
        for _ in 0..6 {
            let size = 8 + rng() % 56;
            let payload: Vec<u8> = (0..size).map(|_| (rng() % 26) as u8 + b'a').collect();
            let packet = TcpPacketSpec::new(&src, "10.0.0.2:80")
                .seq(seq)
                .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                .payload(&payload)
                .build();
            ts += 7;
            packets.push(TracePacket::new(ts, packet));
            seq += size as u32;
        }
    }
    let trace = Trace::from_packets(packets);

    header(&[
        ("k", 3),
        ("max p", 6),
        ("cutoff", 7),
        ("flows%", 8),
        ("bytes%", 8),
        ("small", 7),
        ("piece", 6),
    ]);
    for k in 3..=8usize {
        let config = SplitDetectConfig {
            pieces_per_signature: k,
            small_segment_budget: 1,
            ..pinned()
        };
        let mut sd = match SplitDetect::with_config(sigs.clone(), config) {
            Ok(sd) => sd,
            Err(e) => {
                println!("{k:>3}  (inadmissible: {e})");
                continue;
            }
        };
        let p = sd.plan().max_piece_len();
        let cutoff = 2 * p - 1;
        let mut out = Vec::new();
        for (tick, pkt) in trace.iter_bytes().enumerate() {
            sd.process_packet(pkt, tick as u64, &mut out);
        }
        let s = sd.stats();
        println!(
            "{:>3} {:>6} {:>7} {:>7.2}% {:>7.2}% {:>7} {:>6}",
            k,
            p,
            cutoff,
            s.diverted_flow_fraction() * 100.0,
            s.slow_byte_fraction() * 100.0,
            s.diverts_by(DivertReason::SmallSegments),
            s.diverts_by(DivertReason::PieceMatch),
        );
    }
    println!("\nshape: larger k → shorter pieces → smaller cutoff → markedly fewer\nsmall-segment diversions of write-sized benign traffic; piece false\nhits stay near zero for p ≥ 6 (E5 isolates that axis).");
}

// ---------------------------------------------------------------- E5 ----

/// E5 — per-packet piece false-match probability vs piece length p,
/// measured under two payload models and compared with the analytic bound.
fn e5() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    println!("== E5: piece false-match probability vs piece length p ==\n");
    const PKT: usize = 1460;
    const PACKETS: usize = 4000;

    // Per-packet piece-hit rate of `plan` against `model` payloads.
    let rate = |plan: &splitdetect::split::SplitPlan, model: PayloadModel| {
        let mut rng = StdRng::seed_from_u64(77);
        let mut hits = 0usize;
        for _ in 0..PACKETS {
            let payload = model.generate(&mut rng, PKT);
            hits += usize::from(plan.scan(&payload).is_some());
        }
        hits as f64 / PACKETS as f64
    };

    header(&[
        ("p", 3),
        ("uniform", 9),
        ("http-like", 10),
        ("text-rules", 11),
        ("analytic(uniform)", 18),
    ]);
    for p in 2..=10usize {
        // Distinctive rules: printable-biased random strings of length 3p
        // (three pieces of exactly p bytes) — what a well-written content
        // rule looks like.
        let distinct = SignatureSet::generate(100 + p as u64, 60, 3 * p..3 * p + 1);
        let engine = SplitDetect::with_config_unchecked(distinct, SplitDetectConfig::default());
        let plan = engine.plan();
        let m = plan.piece_count() as f64;

        // Worst-case rules: substrings of HTTP-like traffic itself, so
        // their pieces are protocol words that occur everywhere. A rule
        // author must avoid these; this column shows why.
        let text_rules = {
            let mut rng = StdRng::seed_from_u64(500 + p as u64);
            let corpus = PayloadModel::HttpLike.generate(&mut rng, 1 << 16);
            SignatureSet::from_signatures((0..60).map(|i| {
                let at = (i * 991) % (corpus.len() - 3 * p);
                Signature::new(format!("text-{i}"), corpus[at..at + 3 * p].to_vec())
            }))
        };
        let text_engine =
            SplitDetect::with_config_unchecked(text_rules, SplitDetectConfig::default());
        let text_plan = text_engine.plan();

        // Analytic per-packet probability for uniform payloads:
        // 1 - (1 - m/256^p)^(PKT - p + 1).
        let per_pos = m / 256f64.powi(p as i32);
        let analytic = 1.0 - (1.0 - per_pos).powi((PKT - p + 1) as i32);
        println!(
            "{:>3} {:>8.4}% {:>9.4}% {:>10.4}% {:>17.4}%",
            p,
            rate(plan, PayloadModel::Uniform) * 100.0,
            rate(plan, PayloadModel::HttpLike) * 100.0,
            rate(text_plan, PayloadModel::HttpLike) * 100.0,
            analytic * 100.0
        );
    }
    println!(
        "\nshape: distinctive rules stop false-matching beyond p ≈ 4–6 (the A3\n\
         piece floor); rules built from common protocol text false-match at\n\
         any p — piece quality, not just length, bounds diversion."
    );
}

// ---------------------------------------------------------------- E6 ----

/// E6 — stateful per-byte work: the same mixed trace through all four
/// engines, counting the bytes each one scans and buffers (table; the
/// "processing ≈ 10 %" argument). Wall-clock cost is `sd-e2e`'s job.
fn e6() {
    println!("== E6: stateful per-byte work (scanned and buffered bytes) ==\n");
    let mut benign = BenignGenerator::new(sd_bench::standard_benign(2_000, 6)).generate();
    // Mix a handful of attacks so the slow path does real work.
    let victim = VictimConfig::default();
    let attacks: Vec<(Vec<Vec<u8>>, usize, &'static str)> = EvasionStrategy::catalog()
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let mut spec = AttackSpec::simple(SIG);
            spec.client.1 = 41_000 + i as u16;
            (generate(&spec, s, victim, i as u64), 0, s.name())
        })
        .collect();
    let labeled = sd_traffic::mixer::mix(std::mem::take(&mut benign), attacks, 13);
    let trace = labeled.trace;

    header(&[
        ("engine", 14),
        ("scanned MB", 11),
        ("buffered MB", 12),
        ("alerts", 7),
    ]);
    let run = |name: &str, engine: &mut dyn Ips| {
        let alerts = run_trace(engine, trace.iter_bytes());
        let res = engine.resources();
        println!(
            "{:>14} {:>11.1} {:>12.1} {:>7}",
            name,
            res.bytes_scanned as f64 / 1e6,
            res.bytes_buffered_total as f64 / 1e6,
            alerts.len(),
        );
    };

    let mut conv = ConventionalIps::new(one_sig());
    run("conventional", &mut conv);
    let mut sd = SplitDetect::with_config(one_sig(), pinned()).expect("admissible");
    run("split-detect", &mut sd);
    let mut sd_nodelay = SplitDetect::with_config(
        one_sig(),
        SplitDetectConfig {
            delay_line_packets: 0,
            ..pinned()
        },
    )
    .expect("admissible");
    run("sd(no-delay)", &mut sd_nodelay);
    let mut naive = NaivePacketIps::new(one_sig());
    run("naive-packet", &mut naive);

    let s = sd.stats();
    println!(
        "\nsplit-detect slow-path share: {:.2}% of packets, {:.2}% of bytes.\n\
         The paper's \"processing ≈ 10%\" is about *stateful* per-byte work\n\
         (normalization + reassembly buffering): compare the buffered-MB\n\
         column — Split-Detect buffers only diverted flows, and the gap to\n\
         sd(no-delay) is the delay line's replayed history. Time per packet\n\
         is measured end to end by sd-e2e (ips.sd_over_conventional).",
        s.slow_packet_fraction() * 100.0,
        s.slow_byte_fraction() * 100.0
    );
}

// ---------------------------------------------------------------- E9 ----

/// E9 — theorem validation grid: the attack suite with swept parameters ×
/// victim policies; expected 100 % detection under admissible configs.
fn e9() {
    println!("== E9: theorem validation grid (expect 100%) ==\n");
    let grid = attack_grid();
    header(&[
        ("strategy", 28),
        ("attacks", 8),
        ("delivered", 10),
        ("detected", 9),
    ]);
    let mut total = 0usize;
    let mut caught = 0usize;
    for (name, cells) in &grid {
        let mut delivered = 0;
        let mut detected = 0;
        for (packets, victim) in cells {
            let spec = AttackSpec::simple(SIG);
            if receive_stream(packets.iter(), *victim, spec.server) != spec.payload() {
                continue;
            }
            delivered += 1;
            let mut sd = SplitDetect::with_config(
                one_sig(),
                SplitDetectConfig {
                    slow_path_policy: victim.policy,
                    ..pinned()
                },
            )
            .expect("admissible");
            let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
            detected += usize::from(alerts.iter().any(|a| a.signature == 0));
        }
        total += delivered;
        caught += detected;
        println!(
            "{:>28} {:>8} {:>10} {:>9}",
            name,
            cells.len(),
            delivered,
            detected
        );
    }
    println!(
        "\noverall: {caught}/{total} delivered attacks detected ({:.1}%)",
        caught as f64 / total as f64 * 100.0
    );
    println!("paper claim: 100% of byte-string evasions under assumptions A1–A4.");
}

/// The parameter-swept attack grid shared by E9/E10: strategy → packet
/// sequences with their victim configs.
#[allow(clippy::type_complexity)]
fn attack_grid() -> Vec<(&'static str, Vec<(Vec<Vec<u8>>, VictimConfig)>)> {
    let mut grid: Vec<(&'static str, Vec<(Vec<Vec<u8>>, VictimConfig)>)> = Vec::new();
    let mut push = |name: &'static str, strategies: Vec<EvasionStrategy>| {
        let mut cells = Vec::new();
        for strategy in strategies {
            for policy in OverlapPolicy::ALL {
                let victim = VictimConfig {
                    policy,
                    ..Default::default()
                };
                let spec = AttackSpec::simple(SIG);
                cells.push((generate(&spec, strategy, victim, 555), victim));
            }
        }
        grid.push((name, cells));
    };

    push("none", vec![EvasionStrategy::None]);
    push(
        "split-at-signature",
        vec![EvasionStrategy::SplitAtSignature],
    );
    push(
        "tiny-segments (1..8)",
        (1..=8)
            .map(|s| EvasionStrategy::TinySegments { size: s })
            .collect(),
    );
    push(
        "tiny-fragments (8..32)",
        [8usize, 16, 24, 32]
            .into_iter()
            .map(|f| EvasionStrategy::TinyFragments { frag: f })
            .collect(),
    );
    push(
        "overlapping-fragments",
        vec![EvasionStrategy::OverlappingFragments],
    );
    push(
        "reorder (w=2..8)",
        [2usize, 4, 6, 8]
            .into_iter()
            .map(|w| EvasionStrategy::ReorderSegments { window: w })
            .collect(),
    );
    push("reverse", vec![EvasionStrategy::ReverseSegments]);
    push("duplicate", vec![EvasionStrategy::DuplicateSegments]);
    push(
        "inconsistent-retransmission",
        vec![EvasionStrategy::InconsistentRetransmission],
    );
    push(
        "bad-checksum-chaff",
        vec![EvasionStrategy::BadChecksumChaff],
    );
    push(
        "low-ttl-chaff (1..3)",
        (1..=3)
            .map(|t| EvasionStrategy::LowTtlChaff { chaff_ttl: t })
            .collect(),
    );
    push(
        "urgent-chaff (p=7)",
        vec![EvasionStrategy::UrgentChaff { pitch: 7 }],
    );
    // The theorem-tight adversary, tuned to the defender's piece length
    // (p = ⌈20/3⌉ = 7 for the standard signature).
    push(
        "pitch-segments (p=7)",
        vec![EvasionStrategy::PitchSegments { pitch: 7 }],
    );
    // Tuned against a k=2 defender (pieces of 10): one interior segment,
    // within any budget T ≥ 1 — why the theorem demands k ≥ 3.
    push(
        "pitch-segments (p=10)",
        vec![EvasionStrategy::PitchSegments { pitch: 10 }],
    );
    grid
}

// --------------------------------------------------------------- E10 ----

/// E10 — ablation: re-run the E9 grid with each theorem precondition
/// violated; shows which evasions each assumption blocks.
fn e10() {
    println!("== E10: ablation — violating each theorem precondition ==\n");
    let grid = attack_grid();

    let ablations: Vec<(&str, SplitDetectConfig)> = vec![
        ("admissible (baseline)", pinned()),
        (
            "k=2, T=0 (unusable)",
            SplitDetectConfig {
                pieces_per_signature: 2,
                small_segment_budget: 0,
                ..pinned()
            },
        ),
        (
            "k=2, T=1 (usable)",
            SplitDetectConfig {
                pieces_per_signature: 2,
                small_segment_budget: 1,
                ..pinned()
            },
        ),
        (
            "budget T=k-1",
            SplitDetectConfig {
                small_segment_budget: 2,
                ..pinned()
            },
        ),
        (
            "cutoff=p (too small)",
            SplitDetectConfig {
                small_segment_cutoff: Some(7), // p = ⌈20/3⌉ = 7 < 13
                ..pinned()
            },
        ),
        (
            "no out-of-order rule",
            SplitDetectConfig {
                divert_on_out_of_order: false,
                ..pinned()
            },
        ),
        (
            "no fragment rule",
            SplitDetectConfig {
                divert_on_fragments: false,
                ..pinned()
            },
        ),
        (
            "no urgent rule",
            SplitDetectConfig {
                divert_on_urgent: false,
                ..pinned()
            },
        ),
        (
            "delay line = 0",
            SplitDetectConfig {
                delay_line_packets: 0,
                ..pinned()
            },
        ),
    ];

    header(&[
        ("ablation", 24),
        ("detected", 10),
        ("missed strategies", 40),
    ]);
    for (name, config) in ablations {
        let mut total = 0usize;
        let mut caught = 0usize;
        let mut missed: Vec<&str> = Vec::new();
        for (sname, cells) in &grid {
            let mut all = true;
            for (packets, victim) in cells {
                let spec = AttackSpec::simple(SIG);
                if receive_stream(packets.iter(), *victim, spec.server) != spec.payload() {
                    continue;
                }
                total += 1;
                let mut sd = SplitDetect::with_config_unchecked(
                    one_sig(),
                    SplitDetectConfig {
                        slow_path_policy: victim.policy,
                        ..config
                    },
                );
                let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
                if alerts.iter().any(|a| a.signature == 0) {
                    caught += 1;
                } else {
                    all = false;
                }
            }
            if !all {
                missed.push(sname);
            }
        }
        println!(
            "{:>24} {:>9.1}% {:>40}",
            name,
            caught as f64 / total as f64 * 100.0,
            if missed.is_empty() {
                "-".to_string()
            } else {
                missed.join(", ")
            }
        );
    }
    println!("\neach precondition maps to the evasion family it blocks; the admissible\nrow is the theorem, the rest are its tightness.");
}

// --------------------------------------------------------------- E11 ----

/// E11 — ablation: counting-Bloom small-segment counters vs the exact
/// table (DESIGN §5): keyless memory vs collision-induced extra diversion.
fn e11() {
    use splitdetect::fastpath::SmallCounterBackend;

    println!("== E11: Bloom-counter backend — memory vs extra diversion ==\n");
    let trace = benign_trace(800, 31);

    header(&[
        ("backend", 16),
        ("counter B", 10),
        ("flows%", 8),
        ("bytes%", 8),
        ("small diverts", 14),
    ]);

    let run = |label: String, backend: SmallCounterBackend| {
        let mut sd = SplitDetect::with_config(
            one_sig(),
            SplitDetectConfig {
                small_counter: backend,
                ..pinned()
            },
        )
        .expect("admissible");
        let mut out = Vec::new();
        for (tick, p) in trace.iter_bytes().enumerate() {
            sd.process_packet(p, tick as u64, &mut out);
        }
        let s = sd.stats();
        let counter_bytes = match backend {
            SmallCounterBackend::Exact => 2 * 800, // 2 small-count bytes/flow at this concurrency
            SmallCounterBackend::Bloom { cells, .. } => cells.next_power_of_two(),
        };
        println!(
            "{:>16} {:>10} {:>7.2}% {:>7.2}% {:>14}",
            label,
            counter_bytes,
            s.diverted_flow_fraction() * 100.0,
            s.slow_byte_fraction() * 100.0,
            s.diverts_by(DivertReason::SmallSegments),
        );
    };

    run("exact".into(), SmallCounterBackend::Exact);
    for cells in [64usize, 128, 256, 1024, 4096] {
        run(
            format!("bloom/{cells}"),
            SmallCounterBackend::Bloom { cells, hashes: 2 },
        );
    }
    println!(
        "\nshape: at adequate sizing the Bloom backend matches the exact table\n\
         with no per-flow key storage; undersized filters saturate (counters\n\
         never decrement) and collision-divert benign flows - safe for\n\
         detection, costly for slow-path load."
    );
}

// --------------------------------------------------------------- E12 ----

/// E12 — ablation: delay-line depth vs detection under interleave. The
/// delay line must hold a diverted flow's recent data packets *despite*
/// benign traffic interleaved between them; this sweep finds the knee.
fn e12() {
    use sd_traffic::mixer::mix;

    println!("== E12: delay-line depth vs detection (interleaved traffic) ==\n");

    // 200 benign flows and 12 attacks whose detection needs history replay
    // (reordered segments: the diverting packet is not the one carrying the
    // start of the signature). Diversion is keyed on the IP pair, so each
    // attacker gets its own client address, one no benign flow uses (the
    // generator numbers benign clients from 10.1.0.0): no attack rides on
    // another's diversion.
    let benign = BenignGenerator::new(sd_bench::standard_benign(200, 77)).generate();
    let victim = VictimConfig::default();
    let attacks: Vec<(Vec<Vec<u8>>, usize, &'static str)> = (0..12)
        .map(|i| {
            let mut spec = AttackSpec::simple(SIG);
            spec.client = (Ipv4Addr::new(10, 66, 0, 1 + i as u8), 43_000 + i as u16);
            (
                generate(
                    &spec,
                    EvasionStrategy::ReorderSegments { window: 6 },
                    victim,
                    i as u64,
                ),
                0,
                "reorder",
            )
        })
        .collect();
    let labeled = mix(benign, attacks, 3);

    header(&[
        ("delay pkts", 11),
        ("delay KB", 9),
        ("detected", 9),
        ("replayed", 9),
    ]);
    for &depth in &[0usize, 4, 16, 64, 256, 1024] {
        let mut sd = SplitDetect::with_config(
            one_sig(),
            SplitDetectConfig {
                delay_line_packets: depth,
                ..pinned()
            },
        )
        .expect("admissible");
        let alerts = run_trace(&mut sd, labeled.trace.iter_bytes());
        let detected = labeled
            .attacks
            .iter()
            .filter(|a| alerts.iter().any(|al| al.flow == a.flow))
            .count();
        let s = sd.stats();
        println!(
            "{:>11} {:>9} {:>9} {:>9}",
            depth,
            s.divert_state_bytes / 1024,
            format!("{detected}/12"),
            s.divert.replayed_packets,
        );
    }
    println!(
        "\nshape: divert-from-now (0) misses attacks whose signature started\n\
         before the diverting packet; 1024 packets of history (about 1.5 MB\n\
         of line-card memory) restores 12/12 under this interleave."
    );
}

// --------------------------------------------------------------- E13 ----

/// E13 — rule-corpus scaling at the engine level: with more rules there
/// are more pieces, so benign piece hits (and thus diversion) could creep
/// up — the operational cost of a large corpus. Its per-packet time is
/// `sd-e2e`'s `rules10k-encrypted` workload.
fn e13() {
    println!("== E13: whole-engine scaling with rule-corpus size ==\n");
    let benign = BenignGenerator::new(sd_bench::standard_benign(500, 41)).generate();

    header(&[
        ("rules", 6),
        ("pieces", 7),
        ("automaton MB", 13),
        ("diverted%", 10),
        ("piece-div", 10),
        ("detects", 8),
    ]);
    for &n in &[10usize, 50, 100, 500, 1000] {
        let sigs = generated_signatures(n, 500 + n as u64);
        // One attack carrying rule 0, unevaded (detection sanity).
        let spec = {
            let mut sp = AttackSpec::simple(sigs.get(0).bytes.clone());
            sp.client.1 = 45_000;
            sp
        };
        let attack = generate(
            &spec,
            EvasionStrategy::SplitAtSignature,
            VictimConfig::default(),
            9,
        );
        let labeled = sd_traffic::mixer::mix(benign.clone(), vec![(attack, 0, "split")], 2);

        let mut sd =
            SplitDetect::with_config(sigs, pinned()).expect("generated rules are admissible");
        let alerts = run_trace(&mut sd, labeled.trace.iter_bytes());
        let s = sd.stats();
        println!(
            "{:>6} {:>7} {:>13.1} {:>9.2}% {:>10} {:>8}",
            n,
            sd.plan().piece_count(),
            s.automaton_bytes as f64 / 1e6,
            s.diverted_flow_fraction() * 100.0,
            s.diverts_by(DivertReason::PieceMatch),
            if alerts.iter().any(|a| a.signature == 0) {
                "yes"
            } else {
                "NO"
            },
        );
    }
    println!(
        "\nshape: automaton memory grows with the corpus; benign piece-hit\n\
         diversion stays flat for distinctive rules even at 1000 rules (3000\n\
         pieces of >= 6 bytes -- E5 explains why), so the slow-path budget\n\
         survives corpus growth."
    );
}

// --------------------------------------------------------------- E14 ----

/// E14 — adversarial diversion flood: the architecture's honest weakness.
/// An attacker opens cheap flows that each trip the small-segment rule, so
/// every one earns full slow-path state — a DoS amplification channel the
/// slow-path connection cap must bound.
fn e14() {
    use sd_packet::builder::TcpPacketSpec;
    use sd_packet::tcp::TcpFlags;

    println!("== E14: diversion-flood DoS pressure on the slow path ==\n");

    header(&[
        ("attack flows", 12),
        ("diverted", 9),
        ("slow peak KB", 13),
        ("KB/flow", 8),
        ("capped KB", 10),
        ("capped-div", 10),
    ]);
    for &n in &[100usize, 500, 1_000, 5_000] {
        // Each attacker flow: SYN + two tiny data segments (over budget).
        let mut packets: Vec<Vec<u8>> = Vec::with_capacity(n * 3);
        for f in 0..n as u32 {
            let src = format!(
                "10.{}.{}.{}:6666",
                200 + (f >> 16),
                (f >> 8) & 0xff,
                f & 0xff
            );
            let syn = TcpPacketSpec::new(&src, "10.0.0.2:80")
                .seq(99)
                .flags(TcpFlags::SYN)
                .build();
            packets.push(syn);
            for (j, off) in [0u32, 2].iter().enumerate() {
                let p = TcpPacketSpec::new(&src, "10.0.0.2:80")
                    .seq(100 + off)
                    .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                    .payload(&[b'a' + j as u8, b'b'])
                    .build();
                packets.push(p);
            }
        }

        let run_with_cap = |cap: usize| {
            let mut sd = SplitDetect::with_config(
                one_sig(),
                SplitDetectConfig {
                    slow_path_max_connections: cap,
                    flow_table_capacity: 2 * n,
                    ..pinned()
                },
            )
            .expect("admissible");
            let mut out = Vec::new();
            for (tick, p) in packets.iter().enumerate() {
                sd.process_packet(p, tick as u64, &mut out);
            }
            sd
        };

        let uncapped = run_with_cap(1 << 20);
        let s = uncapped.stats();
        let capped = run_with_cap(256);
        let sc = capped.stats();
        println!(
            "{:>12} {:>9} {:>13} {:>8.2} {:>10} {:>10}",
            n,
            s.divert.flows_diverted,
            s.slow_state_peak_bytes / 1024,
            s.slow_state_peak_bytes as f64 / n as f64 / 1024.0,
            sc.slow_state_peak_bytes / 1024,
            sc.divert.flows_diverted, // every flow still diverts; cap bounds state
        );
    }
    println!(
        "\nthe weakness, measured: every attacker flow costs the defender full\n\
         slow-path state (~0.2 KB here) for pennies of attacker traffic. The\n\
         slow-path connection cap bounds the damage (capped column) at the\n\
         price of evicting flows -- per-source diversion rate limiting is the\n\
         deployment answer the paper leaves as an assumption (A4 sizing)."
    );
}

// --------------------------------------------------------------- E15 ----

/// Order-independent digest of an alert set for cross-engine comparison.
fn summarize_alerts(alerts: &[sd_ips::Alert]) -> Vec<(sd_flow::FlowKey, usize)> {
    let mut v: Vec<_> = alerts.iter().map(|a| (a.flow, a.signature)).collect();
    v.sort();
    v
}

/// E15 — flow-sharded throughput, the one timed table (the mechanism
/// behind the paper's 20 Gbps point: per-flow state makes lanes
/// independent). Its timings are this host's; its detection is asserted
/// equal to the single-threaded engine's at every shard count.
fn e15() {
    use splitdetect::ShardedSplitDetect;
    use std::time::Instant;

    println!("== E15: throughput vs shards (flow-hash parallelism) ==\n");
    let mut benign = BenignGenerator::new(sd_bench::standard_benign(3_000, 15)).generate();
    let victim = VictimConfig::default();
    let attacks: Vec<(Vec<Vec<u8>>, usize, &'static str)> = (0..8)
        .map(|i| {
            let mut spec = AttackSpec::simple(SIG);
            spec.client.1 = 48_000 + i as u16;
            (
                generate(
                    &spec,
                    EvasionStrategy::TinySegments { size: 4 },
                    victim,
                    i as u64,
                ),
                0,
                "tiny",
            )
        })
        .collect();
    let labeled = sd_traffic::mixer::mix(std::mem::take(&mut benign), attacks, 3);
    let trace = labeled.trace;
    let bytes = trace.total_bytes();
    println!(
        "workload: {} packets, {:.0} MB, {} attack flows\n",
        trace.len(),
        bytes as f64 / 1e6,
        labeled.attacks.len()
    );

    let single_alerts = {
        let mut single = SplitDetect::with_config(one_sig(), pinned()).expect("admissible");
        summarize_alerts(&run_trace(&mut single, trace.iter_bytes()))
    };
    // One timed sharded run per shard count; its alerts must equal the
    // single engine's.
    header(&[
        ("shards", 7),
        ("Gbps", 7),
        ("speedup", 8),
        ("alerts", 7),
        ("detected", 9),
    ]);
    let mut base = None;
    for &n in &[1usize, 2, 4, 8] {
        let mut engine = ShardedSplitDetect::new(one_sig(), pinned(), n).expect("admissible");
        let start = Instant::now();
        let alerts = run_trace(&mut engine, trace.iter_bytes());
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            summarize_alerts(&alerts),
            single_alerts,
            "{n} shards changed detection vs the single engine"
        );
        let detected = labeled
            .attacks
            .iter()
            .filter(|a| alerts.iter().any(|al| al.flow == a.flow))
            .count();
        let base = *base.get_or_insert(secs);
        println!(
            "{:>7} {:>7.2} {:>7.2}x {:>7} {:>9}",
            n,
            gbps(bytes, secs),
            base / secs,
            alerts.len(),
            format!("{detected}/{}", labeled.attacks.len()),
        );
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\ndetection equals the single-threaded engine's at every shard count\n\
         (asserted). host parallelism: {cores} core(s)."
    );
}
