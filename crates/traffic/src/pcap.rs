//! Classic libpcap file I/O.
//!
//! The experiments run on synthetic workloads, but the repro hint calls for
//! trace replay — so traces serialize to the classic pcap format (the fixed
//! 24-byte global header + 16-byte per-record headers) and real captures
//! can be loaded back. Both byte orders are read; files are written
//! little-endian with `LINKTYPE_RAW` (raw IP, 101). Ethernet captures
//! (linktype 1) are accepted on read: the engines consume IPv4 packets, so
//! only IPv4 frames are kept, with their link header stripped.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::trace::{Trace, TracePacket};

/// LINKTYPE_RAW: packets start at the IP header.
pub const LINKTYPE_RAW: u32 = 101;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Ethernet II header: two MAC addresses, then the ethertype at 12..14.
const ETH_HEADER_LEN: usize = 14;
/// The one ethertype both capture sources keep.
pub(crate) const ETHERTYPE_IPV4: u16 = 0x0800;

const MAGIC_LE: u32 = 0xa1b2_c3d4;
const MAGIC_BE: u32 = 0xd4c3_b2a1;

/// Largest record the reader allocates for, whatever the header's snaplen
/// claims: libpcap's own ceiling (256 KiB).
pub const MAX_RECORD_BYTES: usize = 262_144;

/// Errors from pcap parsing.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a pcap file (bad magic).
    BadMagic(u32),
    /// Link type this reader does not understand.
    UnsupportedLinkType(u32),
    /// Truncated record.
    Truncated,
    /// A record header claiming more bytes than the file's snaplen (or
    /// [`MAX_RECORD_BYTES`]) allows; rejected before allocating.
    Oversized {
        /// The record's claimed captured length.
        len: usize,
        /// The largest length this file admits.
        max: usize,
    },
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap i/o error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            PcapError::UnsupportedLinkType(t) => write!(f, "unsupported linktype {t}"),
            PcapError::Truncated => f.write_str("truncated pcap record"),
            PcapError::Oversized { len, max } => {
                write!(f, "pcap record of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Write a trace as a classic little-endian pcap with `LINKTYPE_RAW`.
pub fn write_trace<W: Write>(mut w: W, trace: &Trace) -> Result<(), PcapError> {
    w.write_all(&MAGIC_LE.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&65_535u32.to_le_bytes())?; // snaplen
    w.write_all(&LINKTYPE_RAW.to_le_bytes())?;
    for p in &trace.packets {
        let sec = (p.ts_micros / 1_000_000) as u32;
        let usec = (p.ts_micros % 1_000_000) as u32;
        let len = p.data.len() as u32;
        w.write_all(&sec.to_le_bytes())?;
        w.write_all(&usec.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?; // incl_len
        w.write_all(&len.to_le_bytes())?; // orig_len
        w.write_all(&p.data)?;
    }
    Ok(())
}

/// Write a trace to a file path.
pub fn save(path: impl AsRef<Path>, trace: &Trace) -> Result<(), PcapError> {
    let f = File::create(path)?;
    write_trace(BufWriter::new(f), trace)
}

/// Read a classic pcap stream into a trace.
pub fn read_trace<R: Read>(mut r: R) -> Result<Trace, PcapError> {
    let mut hdr = [0u8; 24];
    r.read_exact(&mut hdr)?;
    let magic = u32::from_le_bytes(hdr[0..4].try_into().expect("4 bytes"));
    let big_endian = match magic {
        MAGIC_LE => false,
        MAGIC_BE => true,
        other => return Err(PcapError::BadMagic(other)),
    };
    let read_u32 = |b: &[u8]| -> u32 {
        let arr: [u8; 4] = b.try_into().expect("4 bytes");
        if big_endian {
            u32::from_be_bytes(arr)
        } else {
            u32::from_le_bytes(arr)
        }
    };
    let linktype = read_u32(&hdr[20..24]);
    if linktype != LINKTYPE_RAW && linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::UnsupportedLinkType(linktype));
    }
    // Record lengths are untrusted: bound them before allocating. Like
    // libpcap, a snaplen of 0 means "unset" rather than "nothing fits".
    let max_record = match read_u32(&hdr[16..20]) as usize {
        0 => MAX_RECORD_BYTES,
        snaplen => snaplen.min(MAX_RECORD_BYTES),
    };

    let mut packets = Vec::new();
    loop {
        let mut rec = [0u8; 16];
        match r.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let sec = read_u32(&rec[0..4]) as u64;
        let usec = read_u32(&rec[4..8]) as u64;
        let incl = read_u32(&rec[8..12]) as usize;
        if incl > max_record {
            return Err(PcapError::Oversized {
                len: incl,
                max: max_record,
            });
        }
        let mut data = vec![0u8; incl];
        r.read_exact(&mut data).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                PcapError::Truncated
            } else {
                PcapError::Io(e)
            }
        })?;
        if linktype == LINKTYPE_ETHERNET {
            if data.len() < ETH_HEADER_LEN {
                return Err(PcapError::Truncated);
            }
            // Keep IPv4 frames only, as the AF_PACKET source does: ARP,
            // IPv6 or a VLAN tag would reach the engines as bad IPv4.
            if data[12..14] != ETHERTYPE_IPV4.to_be_bytes() {
                continue;
            }
            data.drain(..ETH_HEADER_LEN);
        }
        packets.push(TracePacket::new(sec * 1_000_000 + usec, data));
    }
    Ok(Trace::from_packets(packets))
}

/// Read a trace from a file path.
pub fn load(path: impl AsRef<Path>) -> Result<Trace, PcapError> {
    let f = File::open(path)?;
    read_trace(BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_packet::builder::TcpPacketSpec;

    fn sample_trace() -> Trace {
        let packets = (0..5u16)
            .map(|i| {
                let f = TcpPacketSpec::new(&format!("10.0.0.1:{}", 1000 + i), "10.0.0.2:80")
                    .payload(format!("packet {i}").as_bytes())
                    .build();
                TracePacket::new(i as u64 * 1_000_000 + 42, f)
            })
            .collect();
        Trace::from_packets(packets)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        match read_trace(&buf[..]) {
            Err(PcapError::BadMagic(0)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn truncated_record_detected() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_trace(&buf[..]), Err(PcapError::Truncated)));
    }

    /// A 24-byte header (snaplen 65535) plus one 16-byte record header.
    fn header_and_record(incl_len: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        for field in [MAGIC_LE, 0x0004_0002, 0, 0, 65_535, LINKTYPE_RAW] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        for field in [0, 0, incl_len, incl_len] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        buf
    }

    #[test]
    fn oversized_record_rejected_before_allocating() {
        // A 40-byte file claiming a ~4 GiB record used to allocate it.
        let buf = header_and_record(0xFFFF_FFF0);
        assert_eq!(buf.len(), 40);
        assert!(matches!(
            read_trace(&buf[..]),
            Err(PcapError::Oversized {
                len: 0xFFFF_FFF0,
                max: 65_535
            })
        ));
        // Longer than the snaplen, though under the absolute ceiling.
        let mut buf = header_and_record(65_536);
        buf.resize(buf.len() + 65_536, 0);
        assert!(matches!(
            read_trace(&buf[..]),
            Err(PcapError::Oversized { .. })
        ));
        // Exactly the snaplen is fine.
        let mut buf = header_and_record(65_535);
        buf.resize(buf.len() + 65_535, 0);
        assert_eq!(read_trace(&buf[..]).unwrap().len(), 1);
    }

    #[test]
    fn big_endian_files_read() {
        // Hand-build a big-endian header + one record.
        let trace = sample_trace();
        let pkt = &trace.packets[0];
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_LE.to_be_bytes()); // BE writer stores swapped
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_RAW.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes()); // sec
        buf.extend_from_slice(&42u32.to_be_bytes()); // usec
        buf.extend_from_slice(&(pkt.data.len() as u32).to_be_bytes());
        buf.extend_from_slice(&(pkt.data.len() as u32).to_be_bytes());
        buf.extend_from_slice(&pkt.data);
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.packets[0].data, pkt.data);
        assert_eq!(back.packets[0].ts_micros, 42);
    }

    /// An Ethernet II frame with zeroed MACs around `payload`.
    fn ethernet_frame(ethertype: u16, payload: &[u8]) -> Vec<u8> {
        let mut f = vec![0u8; 12];
        f.extend_from_slice(&ethertype.to_be_bytes());
        f.extend_from_slice(payload);
        f
    }

    /// A `LINKTYPE_ETHERNET` capture holding `frames`.
    fn ethernet_pcap(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut buf = Vec::new();
        for field in [MAGIC_LE, 0x0004_0002, 0, 0, 65_535, LINKTYPE_ETHERNET] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        for f in frames {
            for field in [0, 0, f.len() as u32, f.len() as u32] {
                buf.extend_from_slice(&field.to_le_bytes());
            }
            buf.extend_from_slice(f);
        }
        buf
    }

    #[test]
    fn ethernet_linktype_strips_header() {
        let ip = sample_trace().packets[0].data.clone();
        let buf = ethernet_pcap(&[ethernet_frame(0x0800, &ip)]);
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.packets[0].data, ip);
    }

    #[test]
    fn ethernet_linktype_keeps_only_ipv4_frames() {
        let ip = sample_trace().packets[0].data.clone();
        let buf = ethernet_pcap(&[
            ethernet_frame(0x0806, &[0u8; 28]),  // ARP
            ethernet_frame(0x86dd, &[0x60; 40]), // IPv6
            ethernet_frame(0x0800, &ip),
        ]);
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.packets[0].data, ip);
        // A record too short for the link header is still an error.
        let buf = ethernet_pcap(&[vec![0u8; 13]]);
        assert!(matches!(read_trace(&buf[..]), Err(PcapError::Truncated)));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("sd-traffic-pcap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pcap");
        let trace = sample_trace();
        save(&path, &trace).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(&path).ok();
    }
}
