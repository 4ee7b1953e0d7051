//! Golden digests of the experiments binary's deterministic tables.
//!
//! Each test runs `experiments eN` and folds its whole stdout into FNV-1a.
//! EXPERIMENTS.md quotes these tables, so a change that moves one must
//! regenerate it there and update its digest here; a mismatch prints the
//! new table. E15 is timed and is not pinned.

use std::process::Command;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn check(experiment: &str, golden: u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg(experiment)
        .output()
        .expect("experiments binary runs");
    assert!(
        out.status.success(),
        "experiments {experiment} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = out.stdout.iter().fold(FNV_BASIS, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert!(
        digest == golden,
        "experiments {experiment} printed a new table (digest now {digest:#x}):\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn e1_detection_matrix_is_pinned() {
    check("e1", 0xcaef_8998_003e_318a);
}

#[test]
fn e2_state_requirement_is_pinned() {
    check("e2", 0x177e_1743_1223_88fc);
}

#[test]
fn e3_diversion_vs_budget_is_pinned() {
    check("e3", 0xfefb_50f8_161f_1a97);
}

#[test]
fn e4_diversion_vs_piece_length_is_pinned() {
    check("e4", 0xc216_fbde_ed99_8159);
}

#[test]
fn e5_false_match_rate_is_pinned() {
    check("e5", 0xac26_78ff_1b22_cb28);
}

#[test]
fn e6_stateful_work_is_pinned() {
    check("e6", 0x6617_2aca_c89a_90ee);
}

#[test]
fn e9_theorem_grid_is_pinned() {
    check("e9", 0x3f77_4feb_4a47_af72);
}

#[test]
fn e10_precondition_ablation_is_pinned() {
    check("e10", 0xb371_9277_f5b3_e54e);
}

#[test]
fn e11_bloom_counters_are_pinned() {
    check("e11", 0x3114_2332_20c0_3382);
}

#[test]
fn e12_delay_line_depth_is_pinned() {
    check("e12", 0xa2de_2b53_8528_54c5);
}

#[test]
fn e13_corpus_scaling_is_pinned() {
    check("e13", 0x4f5a_1efc_a704_25e6);
}

#[test]
fn e14_diversion_flood_is_pinned() {
    check("e14", 0xdf96_67e6_fdf8_22d6);
}
