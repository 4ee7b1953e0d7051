//! Fast-path bench: per-packet classification throughput — the number the
//! paper's line-rate argument rides on — across three payload mixes
//! (benign, pieces, adversarial; see [`sd_bench::sweeps::fastpath`] for
//! the mix design) and three rule-set sizes.
//!
//! The criterion groups measure `FastPath::classify` end to end. The
//! custom `main` then runs the shared sweep core
//! ([`sd_bench::sweeps::fastpath::run`]) — a median measurement of the raw
//! `SplitPlan::scan` loop, the full classify path, and a `scan10k/benign`
//! mix over a generated 10k-rule corpus — and prints the table.
//!
//! Nothing is gated or written here: `sd lab run fastpath-matcher-mix`
//! journals the same sweep with provenance, `sd lab emit` regenerates
//! `BENCH_fastpath.json` from the journal and `sd lab compare` is the one
//! regression gate.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};
use sd_bench::sweeps::fastpath::{
    adversarial_corpus, benign_corpus, build_fastpath, piece_corpus, plan, sigs, Params, SEGMENT,
    VOLUME,
};
use sd_bench::{benign_trace, generated_signatures};

fn bench_classify(c: &mut Criterion) {
    let trace = benign_trace(200, 17);
    let bytes: u64 = trace.total_bytes();

    let mut group = c.benchmark_group("fastpath_classify");
    group.throughput(Throughput::Bytes(bytes));

    for &n in &[1usize, 100, 1000] {
        let sigs = if n == 1 {
            sigs()
        } else {
            generated_signatures(n, n as u64)
        };
        group.bench_with_input(BenchmarkId::new("benign_trace", n), &n, |b, _| {
            b.iter_batched(
                || build_fastpath(&sigs),
                |mut fp| {
                    let mut diverts = 0u64;
                    for pkt in trace.iter_bytes() {
                        let (_, v) = fp.classify(black_box(pkt), |_| false);
                        diverts +=
                            u64::from(matches!(v, splitdetect::fastpath::Verdict::Divert(_)));
                    }
                    diverts
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_scan_mixes(c: &mut Criterion) {
    let mixes: [(&str, Vec<u8>); 3] = [
        ("benign", benign_corpus()),
        ("pieces", piece_corpus()),
        ("adversarial", adversarial_corpus()),
    ];

    let mut group = c.benchmark_group("fastpath_scan");
    group.throughput(Throughput::Bytes(VOLUME as u64));
    let plan = plan();
    for (mix, corpus) in &mixes {
        group.bench_with_input(BenchmarkId::new("scan", mix), mix, |b, _| {
            b.iter(|| {
                let mut hits = 0u64;
                for seg in corpus.chunks(SEGMENT) {
                    hits += u64::from(plan.scan(black_box(seg)).is_some());
                }
                hits
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_classify, bench_scan_mixes);

fn main() {
    benches();
    sd_bench::sweeps::fastpath::run(&Params::full()).print();
}
