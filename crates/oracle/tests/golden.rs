//! Golden digests of trace programs: their `.trace` text and their wire
//! bytes.
//!
//! Pinned reproducers and saved `sd fuzz` artifacts only mean what they
//! meant when they were found if a program still renders to the same text
//! and compiles to the same packets. A mismatch here means the generator
//! grammar or the packet emitter changed behaviour.

use sd_oracle::TraceProgram;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold length-prefixed byte strings into a running FNV-1a digest.
fn fold<'a>(mut h: u64, items: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    for item in items {
        for &b in (item.len() as u32).to_le_bytes().iter().chain(item) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn packets_digest(h: u64, program: &TraceProgram) -> u64 {
    fold(h, program.compile().packets.iter().map(|p| &p[..]))
}

#[test]
fn random_program_text_is_pinned() {
    let h = (0..128).fold(FNV_BASIS, |h, s| {
        fold(h, [TraceProgram::random(s).to_text().as_bytes()])
    });
    assert_eq!(h, 0x9a72_1bfb_6ce3_5bf8, "digest now {h:#x}");
}

#[test]
fn random_program_packets_are_pinned() {
    let h = (0..128).fold(FNV_BASIS, |h, s| {
        packets_digest(h, &TraceProgram::random(s))
    });
    assert_eq!(h, 0xa9c9_5b3f_553d_f2db, "digest now {h:#x}");
}

/// The programs pinned in `tests/regression.rs`, plus one that uses every
/// mutation kind.
const PINNED: [&str; 5] = [
    "seed 77\npolicy first\nprefix 40\nsuffix 30\nmutate split-sig 9\nmutate frag 0 24\n",
    "seed 13968259953709020894\npolicy first\nprefix 1\nsuffix 2\n\
     mutate chaff-cksum 1501928558060025601\nmutate frag 3759307373701782754 43\n",
    "seed 5770459859425060368\npolicy linux\nprefix 1\nsuffix 2\n\
     mutate retransmit-bad 9843630119496533149\nmutate frag-overlap 71580601167850740\n",
    "seed 12\npolicy first\nprefix 80\nsuffix 40\nmutate stitch 0 4\n",
    "seed 9\npolicy bsd\nprefix 300\nsuffix 200\n\
     mutate split 77\nmutate split-sig 4\nmutate swap 1 3\nmutate dup 2\n\
     mutate retransmit-bad 1\nmutate stitch 5 3\nmutate chaff-cksum 0\nmutate chaff-ttl 4\n\
     mutate frag 3 16\nmutate frag-overlap 6\nmutate decoy 11 3\nmutate collide-flood 2\n\
     mutate heavytail 5\n",
];

#[test]
fn pinned_program_packets_are_pinned() {
    let got: Vec<u64> = PINNED
        .iter()
        .map(|text| {
            let program = TraceProgram::from_text(text).expect("pinned text parses");
            packets_digest(FNV_BASIS, &program)
        })
        .collect();
    assert_eq!(
        got,
        [
            0x6ab4_819a_dc48_597d,
            0x26e6_a5f0_2908_84c6,
            0x747b_25a3_517f_906a,
            0xcf75_1cda_ca45_7bc4,
            0xe9cb_d6ee_9c2f_ba33,
        ],
        "digests now {got:#x?}"
    );
}
