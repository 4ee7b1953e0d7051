//! # sd-cli — the `sd` command
//!
//! A thin operational front end over the workspace: `scan` runs any of
//! the three engines over a capture (Split-Detect through [`serve::serve`],
//! the loop the daemon runs, optionally exporting metrics); the other
//! commands compare engines, lint rules, run the evasion gauntlet,
//! generate workloads, fuzz, and serve live traffic. All logic lives here
//! so the integration tests drive what users run.
//!
//! ```text
//! sd scan capture.pcap --rules local.rules --engine split
//! sd scan capture.pcap --shards 4 --metrics-out m   # m.prom
//! sd generate out.pcap --flows 200 --attacks 5 --seed 7
//! sd serve --flows 200 --attacks 5 --seed 7         # the same workload, one pass
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commands;
mod opts;
pub mod serve;

pub use serve::{ServeControl, ServeEngine, ServeOptions, ServeSummary};

/// Run the CLI against `args` (without the program name), writing human
/// output to `out`. Returns the process exit code: 2 for a bad command
/// line (with the usage text), 1 for a failed command.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> i32 {
    match opts::parse(args) {
        Ok(command) => commands::dispatch(command, out),
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            let _ = writeln!(out, "{}", opts::USAGE);
            2
        }
    }
}
