//! # sd-reassembly — defragmentation, stream reassembly, normalization
//!
//! The substrate the paper's *baseline* is built from, and that Split-Detect
//! keeps only on its slow path:
//!
//! * [`policy`] — the four classical conflicting-overlap resolutions
//!   (First/Last/BSD/Linux). Inconsistent retransmission evasions work
//!   precisely because different host stacks resolve overlaps differently;
//!   an IPS must either know the victim's policy or try several.
//! * [`defrag`] — IPv4 fragment reassembly keyed by
//!   (src, dst, proto, ident), with byte-granularity overlap resolution and
//!   explicit resource accounting.
//! * [`stream`] — per-direction TCP stream reassembly: sequence tracking
//!   from the SYN, out-of-order buffering, overlap resolution, FIN/RST
//!   handling and byte-accurate memory accounting. In-order bytes go to a
//!   caller-supplied sink as they become deliverable — a segment at the
//!   live edge with nothing buffered goes straight from the packet, with
//!   no allocation or copy — and none are kept once delivered.
//! * [`conn`] — a bidirectional connection wrapper pairing two streams.
//! * [`normalize`] — packet-level normalization: checksum verification,
//!   header sanity, the drop/accept decisions a consistent normalizer makes
//!   before bytes ever reach a matcher.
//! * [`urgent`] — urgent-pointer delivery semantics (inline vs discard),
//!   the ambiguity behind the urgent-chaff evasion.
//!
//! Everything here is deterministic and allocation-conscious, but it is the
//! *expensive* half of the comparison on purpose: per-connection state is
//! kilobytes (buffers) versus the fast path's ~16 bytes. Experiments E2/E8
//! measure exactly that gap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod defrag;
pub mod normalize;
pub mod policy;
pub mod stream;
pub mod urgent;

pub use conn::Connection;
pub use defrag::Defragmenter;
pub use normalize::{Normalizer, Verdict};
pub use policy::OverlapPolicy;
pub use stream::TcpStreamReassembler;
pub use urgent::UrgentSemantics;
