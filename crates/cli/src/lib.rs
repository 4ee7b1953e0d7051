//! # sd-cli — the `sd` command
//!
//! A thin operational front end over the workspace: scan captures with any
//! of the three engines, compare them side by side, lint rule files, run
//! the evasion gauntlet against your own rules, generate labelled
//! workloads, and drive the differential fuzzing oracle. All logic lives
//! here (the binary is a two-liner) so the integration tests drive exactly
//! what users run.
//!
//! ```text
//! sd scan capture.pcap --rules local.rules --engine split
//! sd compare capture.pcap
//! sd rules local.rules
//! sd gauntlet --rules local.rules
//! sd generate out.pcap --flows 200 --attacks 5 --seed 7
//! sd fuzz --iters 10000 --seed 1 --minimize
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod lab;
pub mod opts;
pub mod serve;

pub use opts::{Command, EngineKind, ParsedArgs};
pub use serve::{ServeControl, ServeEngine, ServeOptions, ServeSummary};

/// Run the CLI against `args` (without the program name), writing human
/// output to `out`. Returns the process exit code.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> i32 {
    // `lab` has its own action + flag namespace and picks its own exit
    // codes: `lab record` input that is not sd-e2e output exits 2.
    if args.first().map(String::as_str) == Some("lab") {
        return match opts::parse_lab(&args[1..]) {
            Ok(action) => lab::lab_cmd(&action, out),
            Err(e) => usage_error(&e, out),
        };
    }
    let parsed = match opts::parse(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e, out),
    };
    match commands::dispatch(parsed, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}

/// Report a bad command line with the usage text; exit code 2.
fn usage_error(e: &str, out: &mut dyn std::io::Write) -> i32 {
    let _ = writeln!(out, "error: {e}");
    let _ = writeln!(out, "{}", opts::USAGE);
    2
}
