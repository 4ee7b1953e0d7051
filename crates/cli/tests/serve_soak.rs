//! Bounded-RSS soak: the daemon under sustained heavy-tail mixed
//! traffic must neither grow without bound nor shed below its
//! configured rate.
//!
//! `#[ignore]`d because it deliberately runs for tens of seconds; the
//! `serve-soak` CI job runs it with `--ignored` in release mode. Tune
//! the length with `SD_SOAK_SECS` (default 20).

use std::time::{Duration, Instant};

use sd_cli::serve::{serve, ServeControl, ServeEngine, ServeOptions};
use sd_ips::{AlertSource, Signature, SignatureSet};
use sd_packet::builder::TcpPacketSpec;
use sd_packet::tcp::TcpFlags;
use sd_telemetry::{promcheck, ScrapeServer};
use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use sd_traffic::victim::VictimConfig;
use sd_traffic::{loopback, LoopbackHandle, ZipfSizes};
use splitdetect::{SplitDetect, SplitDetectConfig};

const SIG: &[u8] = b"SOAK_EVIL_SIGNATURE_B_24"; // 24 bytes → admissible

/// Resident set size in kilobytes, from /proc/self/status.
#[cfg(target_os = "linux")]
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmRSS line present")
}

#[cfg(not(target_os = "linux"))]
fn rss_kb() -> u64 {
    0 // No /proc: the soak still checks sheds/warnings, not RSS.
}

/// One pass of heavy-tail mixed traffic: `flows` Zipf-sized benign
/// streams on pass-unique 5-tuples (new connections each pass, as real
/// churn gives) interleaved round-robin, plus one evasion conversation.
fn soak_pass(tx: &LoopbackHandle, pass: u64, tick: &mut u64) -> bool {
    const FLOWS: usize = 48;
    const MSS: usize = 1448;
    let zipf = ZipfSizes::new(1.2, 2 * 1024, 256 * 1024, 64);
    let mut rng_state = pass.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut rand = move || {
        // xorshift64*: cheap, deterministic per pass.
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        rng_state.wrapping_mul(0x2545F4914F6CDD1D)
    };

    struct Flow {
        src: String,
        seq: u32,
        left: usize,
    }
    let mut flows: Vec<Flow> = (0..FLOWS)
        .map(|f| {
            let r = rand();
            Flow {
                // Pass-unique client addresses: fresh connections, never
                // stale stream state from an earlier pass.
                src: format!(
                    "10.{}.{}.{}:{}",
                    1 + (pass % 200),
                    f / 8,
                    1 + f % 250,
                    10_000 + (r % 50_000) as u16
                ),
                seq: r as u32,
                left: zipf.sizes()[(r % 64) as usize],
            }
        })
        .collect();

    let payload = [b'h'; MSS];
    while !flows.is_empty() {
        let mut i = 0;
        while i < flows.len() {
            let f = &mut flows[i];
            let n = f.left.min(MSS);
            let frame = TcpPacketSpec::new(&f.src, "192.168.1.10:80")
                .seq(f.seq)
                .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                .payload(&payload[..n])
                .build();
            if !tx.send(*tick, &frame) {
                return false;
            }
            *tick += 1;
            f.seq = f.seq.wrapping_add(n as u32);
            f.left -= n;
            if f.left == 0 {
                flows.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    // One labelled attack conversation per pass, rotating strategies.
    let catalog = EvasionStrategy::catalog();
    let strategy = catalog[(pass as usize) % catalog.len()];
    let mut spec = AttackSpec::simple(SIG.to_vec());
    spec.client.1 = 20_000 + (pass % 40_000) as u16;
    for packet in generate(&spec, strategy, VictimConfig::default(), pass) {
        if !tx.send(*tick, &packet) {
            return false;
        }
        *tick += 1;
    }
    true
}

/// See the module docs. Run with:
/// `cargo test -p sd-cli --release --test serve_soak -- --ignored`
#[test]
#[ignore = "long-running soak; the serve-soak CI job runs it with --ignored"]
fn daemon_rss_stays_bounded_under_sustained_load() {
    let soak_secs: u64 = std::env::var("SD_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);

    let sigs = SignatureSet::from_signatures([Signature::new("soak-evil", SIG)]);
    let config = SplitDetectConfig {
        slow_path_workers: 2,
        flow_hash_seed: Some(42),
        ..Default::default()
    };
    let engine = SplitDetect::with_config(sigs, config).unwrap();

    let scrape = ScrapeServer::bind("127.0.0.1:0").unwrap();
    let scrape_addr = scrape.addr();
    let control = ServeControl::new();
    let (tx, mut src) = loopback(1024);

    let serve_control = control.clone();
    let daemon = std::thread::spawn(move || {
        let mut out: Vec<u8> = Vec::new();
        let summary = serve(
            ServeEngine::Single(Box::new(engine)),
            &mut src,
            &serve_control,
            ServeOptions {
                scrape: Some(scrape),
                ..Default::default()
            },
            &mut out,
        )
        .expect("serve drains cleanly");
        (summary, String::from_utf8(out).unwrap())
    });

    let deadline = Instant::now() + Duration::from_secs(soak_secs);
    let producer = std::thread::spawn(move || {
        let mut tick = 0u64;
        let mut pass = 0u64;
        while Instant::now() < deadline {
            if !soak_pass(&tx, pass, &mut tick) {
                break;
            }
            pass += 1;
        }
        // Dropping the handle closes the source: deterministic drain.
    });

    // Sample RSS and scrape health throughout. The baseline is taken a
    // beat in, after the engine's fixed tables are faulted.
    std::thread::sleep(Duration::from_secs(2));
    let baseline_kb = rss_kb();
    let mut max_kb = baseline_kb;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_secs(2));
        max_kb = max_kb.max(rss_kb());
        let body = scrape_body(scrape_addr);
        promcheck::validate(&body).expect("soak scrape stays valid");
    }

    producer.join().unwrap();
    let (summary, out) = daemon.join().unwrap();
    max_kb = max_kb.max(rss_kb());

    eprintln!(
        "soak: {} packets over {}s, {} alert(s); RSS baseline {} MB, max {} MB",
        summary.packets,
        soak_secs,
        summary.alerts.len(),
        baseline_kb / 1024,
        max_kb / 1024
    );

    assert!(
        summary.packets > 10_000,
        "soak barely ran: {}",
        summary.packets
    );
    assert!(
        !out.contains("WARNING"),
        "soak must stay warning-free:\n{out}"
    );
    assert_eq!(
        summary
            .alerts
            .iter()
            .filter(|a| a.source == AlertSource::Overload)
            .count(),
        0,
        "no sheds below the configured rate"
    );
    let stats = summary.stats.expect("single engine reports stats");
    assert_eq!(stats.divert.shed_packets, 0, "slow-path lanes must keep up");
    // Every pass carries one evasion conversation; the engine must be
    // catching them throughout, not just surviving.
    assert!(
        summary
            .alerts
            .iter()
            .any(|a| a.source == AlertSource::SlowPath),
        "attack conversations must still be detected under load"
    );

    if cfg!(target_os = "linux") {
        const CEILING_GROWTH_MB: u64 = 256;
        let growth_mb = max_kb.saturating_sub(baseline_kb) / 1024;
        assert!(
            growth_mb < CEILING_GROWTH_MB,
            "RSS grew {growth_mb} MB over the soak (ceiling {CEILING_GROWTH_MB} MB) — \
             unbounded state accumulation"
        );
    }
}

fn scrape_body(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("scrape endpoint up during soak");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: sd\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
        .split_once("\r\n\r\n")
        .expect("header/body split")
        .1
        .to_string()
}
