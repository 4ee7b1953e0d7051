//! # sd-packet — wire formats for the Split-Detect reproduction
//!
//! Zero-copy, smoltcp-style packet views and owned `Repr` types for the
//! protocols the paper's data path touches. Packets are IPv4 from builder
//! to engine; link headers are stripped at the capture source.
//!
//! * [`ipv4`] — IPv4 headers including the fragmentation fields,
//! * [`tcp`] — TCP segments with option parsing and wrapping
//!   sequence-number arithmetic ([`seq`]),
//! * [`udp`] — UDP datagrams,
//! * [`checksum`] — the RFC 1071 Internet checksum and pseudo-header sums,
//! * [`builder`] — convenience builders that emit complete IPv4 packets,
//! * [`frag`] — IPv4 fragmentation of complete packets,
//! * [`parse`] — one-shot layered parsing of a full IPv4 packet.
//!
//! ## Design
//!
//! Each protocol offers two complementary types, following the smoltcp
//! idiom:
//!
//! * a *view* (`Ipv4Packet<T: AsRef<[u8]>>`, `TcpSegment<T>`, …) that wraps a
//!   buffer and reads/writes fields in place without copying, and
//! * a *repr* (`Ipv4Repr`, `TcpRepr`, …) that owns the parsed header in
//!   native types and can `emit` itself back into a view.
//!
//! Views validate lazily: `new_checked` performs the length/sanity checks a
//! hardware fast path would, while field accessors assume a checked buffer.
//! All multi-byte fields are big-endian on the wire.
//!
//! ```
//! use sd_packet::builder::TcpPacketSpec;
//!
//! // Build a TCP/IPv4 packet carrying "GET / HTTP/1.1".
//! let packet = TcpPacketSpec::new("10.0.0.1:1234", "10.0.0.2:80")
//!     .seq(1000)
//!     .payload(b"GET / HTTP/1.1")
//!     .build();
//! let parsed = sd_packet::parse::parse_ipv4(&packet).unwrap();
//! let tcp = parsed.tcp().unwrap();
//! assert_eq!(tcp.payload, b"GET / HTTP/1.1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod checksum;
pub mod error;
pub mod frag;
pub mod ipv4;
pub mod parse;
pub mod seq;
pub mod tcp;
pub mod udp;

pub use error::{Error, Result};
pub use seq::SeqNumber;
