//! Daemon lifecycle: start → scrape → SIGHUP-style reload (flow state
//! survives, new rules match, bad rule files are rejected) → drain with
//! a deterministic final report.
//!
//! Drives the `serve` loop as the binary does — through a
//! [`ServeControl`] — with an in-process loopback source, and scrapes
//! the real HTTP endpoint over TCP.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sd_cli::serve::{serve, ServeControl, ServeEngine, ServeOptions, ServeSummary};
use sd_packet::builder::{ip_of_frame, TcpPacketSpec};
use sd_packet::parse::parse_ipv4;
use sd_packet::tcp::TcpFlags;
use sd_telemetry::{promcheck, ScrapeServer};
use sd_traffic::loopback;
use splitdetect::fastpath::DivertReason;
use splitdetect::{ShardedSplitDetect, SplitDetect, SplitDetectConfig};

const SIG_A: &str = "SERVE_SIG_ALPHA_BYTES_24";
const SIG_B: &str = "SERVE_SIG_BRAVO_BYTES_24";

fn rules_for(sig: &str, sid: u32) -> String {
    format!(
        "alert tcp any any -> any any (msg:\"lifecycle {sid}\"; content:\"{sig}\"; sid:{sid};)\n"
    )
}

fn pkt(src: &str, seq: u32, payload: &[u8]) -> Vec<u8> {
    let f = TcpPacketSpec::new(src, "10.0.0.9:80")
        .seq(seq)
        .flags(TcpFlags::ACK.union(TcpFlags::PSH))
        .payload(payload)
        .build();
    ip_of_frame(&f).to_vec()
}

/// The 5-tuple key alerts carry for a packet (alerts use the full
/// connection key, not the dispatcher's IP-pair key).
fn key_of(packet: &[u8]) -> sd_flow::FlowKey {
    let parsed = parse_ipv4(packet).unwrap();
    sd_flow::FlowKey::from_parsed(&parsed).unwrap().0
}

fn http_get_metrics(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: sd\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "bad response: {head}");
    body.to_string()
}

/// A counter's value in a scrape body; `None` until its first publish
/// (the endpoint serves an empty snapshot for a moment at startup).
fn try_counter(body: &str, name: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
}

fn counter(body: &str, name: &str) -> u64 {
    try_counter(body, name).unwrap_or_else(|| panic!("{name} missing from scrape:\n{body}"))
}

/// Scrape until `name` reaches `want` (the loop publishes on every
/// packet and idle gap, so this settles fast).
fn await_counter(addr: SocketAddr, name: &str, want: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = http_get_metrics(addr);
        if try_counter(&body, name).is_some_and(|v| v >= want) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {name} >= {want}:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn reload_does_not_drop_a_piece_straddling_the_boundary() {
    // Regression for the DESIGN §12 gap: a signature whose bytes straddle
    // a SIGHUP reload (first half scanned under the old automaton, second
    // half under the new) used to be silently missed because the slow
    // path's stream matchers were reset to their root state. The reload
    // now re-anchors them from a retained tail of delivered bytes.
    straddle_a_reload(1);
}

#[test]
fn sharded_reload_does_not_drop_a_piece_straddling_the_boundary() {
    // The same reload path on the sharded engine: serve compiles, and the
    // install reaches each shard behind the packets it already queued.
    straddle_a_reload(2);
}

/// Send half a signature, reload to a superset of the rules through
/// `serve()`, send the other half, and expect the alert. `shards` 1 runs
/// the single engine.
fn straddle_a_reload(shards: usize) {
    let dir =
        std::env::temp_dir().join(format!("sd-serve-straddle-{shards}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rules_path: PathBuf = dir.join("live.rules");
    std::fs::write(&rules_path, rules_for(SIG_B, 9001)).unwrap();

    let config = SplitDetectConfig {
        // Inline slow path: the first half is guaranteed scanned before
        // the reload lands, so the occurrence truly straddles the swap.
        slow_path_workers: 0,
        flow_hash_seed: Some(7),
        ..Default::default()
    };
    let rules = sd_ips::rules::parse_rules(&std::fs::read_to_string(&rules_path).unwrap()).unwrap();
    let sigs = rules.to_signatures();
    let engine = if shards == 1 {
        ServeEngine::Single(Box::new(SplitDetect::with_config(sigs, config).unwrap()))
    } else {
        ServeEngine::Sharded(Box::new(
            ShardedSplitDetect::new(sigs, config, shards).unwrap(),
        ))
    };

    let scrape = ScrapeServer::bind("127.0.0.1:0").unwrap();
    let scrape_addr = scrape.addr();
    let control = ServeControl::new();
    let (tx, mut src) = loopback(64);

    let serve_control = control.clone();
    let serve_rules_path = rules_path.clone();
    let daemon = std::thread::spawn(move || {
        let mut out: Vec<u8> = Vec::new();
        let opts = ServeOptions {
            rules_path: Some(serve_rules_path.to_string_lossy().into_owned()),
            scrape: Some(scrape),
            poll_timeout: Duration::from_millis(5),
            publish_every: 1,
            max_duration: None,
        };
        let summary = serve(engine, &mut src, &serve_control, opts, &mut out)
            .expect("serve runs to a clean drain");
        (summary, String::from_utf8(out).unwrap())
    });

    // Phase 1 — the first 10 bytes of SIG_B carry piece 0 whole: the flow
    // diverts and the slow path scans the half under the old automaton.
    let sig = SIG_B.as_bytes();
    let first = pkt("10.0.0.8:4100", 1000, &sig[..10]);
    assert!(tx.send(0, &first));
    let before = await_counter(scrape_addr, "sd_serve_packets_total", 1);

    // Phase 2 — reload to a superset (new signature ids, new automaton).
    std::fs::write(
        &rules_path,
        format!("{}{}", rules_for(SIG_A, 9001), rules_for(SIG_B, 9002)),
    )
    .unwrap();
    control.request_reload();
    let after = await_counter(scrape_addr, "sd_serve_reloads_total", 1);
    // The automaton gauges describe the installed plan, not the one the
    // daemon started with: two signatures need more states than one. (A
    // sharded engine's metrics exist only once its workers are joined.)
    let gauges = if shards == 1 {
        &["sd_automaton_hot_states", "sd_automaton_hot_bytes"][..]
    } else {
        &[]
    };
    for gauge in gauges {
        assert!(
            counter(&after, gauge) > counter(&before, gauge),
            "{gauge} must follow the reload"
        );
    }

    // Phase 3 — the remaining 14 bytes complete the straddling occurrence
    // under the new automaton.
    let second = pkt("10.0.0.8:4100", 1010, &sig[10..]);
    assert!(tx.send(1, &second));
    await_counter(scrape_addr, "sd_serve_packets_total", 2);

    control.request_drain();
    let (summary, _out): (ServeSummary, String) = daemon.join().unwrap();

    let j = key_of(&first);
    assert!(
        summary
            .alerts
            .iter()
            .any(|a| a.flow == j && a.signature == 1),
        "a piece straddling the reload boundary must still alert \
         (signature 1 = SIG_B in the reloaded set): {:?}",
        summary.alerts
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_survives_reload_and_drains_deterministically() {
    let dir = std::env::temp_dir().join(format!("sd-serve-lifecycle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rules_path: PathBuf = dir.join("live.rules");
    std::fs::write(&rules_path, rules_for(SIG_A, 9001)).unwrap();

    let config = SplitDetectConfig {
        slow_path_workers: 2,
        flow_hash_seed: Some(7),
        ..Default::default()
    };
    let rules = sd_ips::rules::parse_rules(&std::fs::read_to_string(&rules_path).unwrap()).unwrap();
    let engine = SplitDetect::with_config(rules.to_signatures(), config).unwrap();
    let engine = ServeEngine::Single(Box::new(engine));

    let scrape = ScrapeServer::bind("127.0.0.1:0").unwrap();
    let scrape_addr = scrape.addr();
    let control = ServeControl::new();
    let (tx, mut src) = loopback(64);

    let serve_control = control.clone();
    let serve_rules_path = rules_path.clone();
    let daemon = std::thread::spawn(move || {
        let mut out: Vec<u8> = Vec::new();
        let opts = ServeOptions {
            rules_path: Some(serve_rules_path.to_string_lossy().into_owned()),
            scrape: Some(scrape),
            poll_timeout: Duration::from_millis(5),
            publish_every: 1,
            max_duration: None,
        };
        let summary = serve(engine, &mut src, &serve_control, opts, &mut out)
            .expect("serve runs to a clean drain");
        (summary, String::from_utf8(out).unwrap())
    });

    // Phase 1 — live under the initial rules. Flow F builds tracked
    // stream state; flow G carries SIG_A and must alert.
    let flow_f = pkt("10.0.0.1:4000", 1000, &[b'n'; 64]);
    let flow_g = pkt("10.0.0.2:4001", 2000, format!("--{SIG_A}--").as_bytes());
    assert!(tx.send(0, &flow_f));
    assert!(tx.send(1, &flow_g));

    let body = await_counter(scrape_addr, "sd_serve_packets_total", 2);
    promcheck::validate(&body).expect("scrape output is valid Prometheus exposition");
    // The single engine's live registry rides along with the daemon's.
    assert!(body.contains("sd_packets_total"), "engine registry missing");
    assert_eq!(counter(&body, "sd_serve_reloads_total"), 0);

    // Phase 2 — reload to a different rule set. State must survive.
    std::fs::write(&rules_path, rules_for(SIG_B, 9002)).unwrap();
    control.request_reload();
    let body = await_counter(scrape_addr, "sd_serve_reloads_total", 1);
    assert_eq!(counter(&body, "sd_serve_reload_failures_total"), 0);

    // Phase 3 — a rule file with no usable rules is rejected wholesale;
    // the just-installed set stays in force.
    std::fs::write(&rules_path, "# no rules here\n").unwrap();
    control.request_reload();
    let body = await_counter(scrape_addr, "sd_serve_reload_failures_total", 1);
    assert_eq!(counter(&body, "sd_serve_reloads_total"), 1);

    // Phase 4 — under the new rules: the retired signature is silent,
    // the new one alerts, and flow F's pre-reload stream state still
    // drives the out-of-order divert (seq 900 < the tracked 1064).
    let flow_h = pkt("10.0.0.3:4002", 3000, format!("--{SIG_A}--").as_bytes());
    let flow_i = pkt("10.0.0.4:4003", 4000, format!("--{SIG_B}--").as_bytes());
    let flow_f_ooo = pkt("10.0.0.1:4000", 900, &[b'n'; 32]);
    assert!(tx.send(2, &flow_h));
    assert!(tx.send(3, &flow_i));
    assert!(tx.send(4, &flow_f_ooo));
    await_counter(scrape_addr, "sd_serve_packets_total", 5);

    // Phase 5 — drain and audit.
    control.request_drain();
    let (summary, out): (ServeSummary, String) = daemon.join().unwrap();

    assert_eq!(summary.packets, 5);
    assert_eq!(summary.reloads, 1);
    assert_eq!(summary.reload_failures, 1);

    let g = key_of(&flow_g);
    let h = key_of(&flow_h);
    let i = key_of(&flow_i);
    assert!(
        summary
            .alerts
            .iter()
            .any(|a| a.flow == g && a.signature == 0),
        "SIG_A must alert before the reload: {:?}",
        summary.alerts
    );
    assert!(
        summary.alerts.iter().all(|a| a.flow != h),
        "retired rules must not alert after the reload: {:?}",
        summary.alerts
    );
    assert!(
        summary
            .alerts
            .iter()
            .any(|a| a.flow == i && a.signature == 0),
        "reloaded rules must match end to end: {:?}",
        summary.alerts
    );

    let stats = summary.stats.expect("single engine always reports stats");
    assert!(
        stats.diverts_by(DivertReason::OutOfOrder) >= 1,
        "flow state must survive the reload (seq 900 after 1000..1064 \
         diverts only if the tracked stream state is still there)"
    );

    assert!(out.contains("drained after"), "missing drain line:\n{out}");
    assert!(
        out.contains("new automaton installed"),
        "missing reload line:\n{out}"
    );
    assert!(
        out.contains("reload rejected"),
        "missing rejection line:\n{out}"
    );
    assert!(!out.contains("WARNING"), "clean run must not warn:\n{out}");
    assert!(
        summary.report.contains("sd_diverts_total{reason}"),
        "final report must carry the divert breakdown:\n{}",
        summary.report
    );

    // The endpoint is down after the drain.
    assert!(
        TcpStream::connect(scrape_addr).is_err() || {
            // A TIME_WAIT race can still accept; a read must then fail fast.
            let mut s = TcpStream::connect(scrape_addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let _ = s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n");
            let mut buf = [0u8; 1];
            !matches!(s.read(&mut buf), Ok(n) if n > 0)
        }
    );

    let _ = std::fs::remove_dir_all(&dir);
}
