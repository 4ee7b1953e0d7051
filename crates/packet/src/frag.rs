//! IPv4 fragmentation of complete packets.
//!
//! Used two ways in this repository: the evasion generator fragments attack
//! packets (including into deliberately tiny and overlapping fragments —
//! the overlapping variants are produced by the generator on top of the
//! honest fragmentation here), and round-trip tests pair this with
//! `sd-reassembly`'s defragmenter.

use crate::error::{Error, Result};
use crate::ipv4::{Ipv4Packet, MIN_HEADER_LEN};

/// Split a complete, unfragmented IPv4 packet into fragments whose payloads
/// hold at most `max_frag_payload` bytes.
///
/// `max_frag_payload` is rounded *down* to a multiple of 8 (fragment offsets
/// are in 8-byte units); it must be ≥ 8. Each output fragment carries a
/// copy of the original 20-byte header with offset/MF/length rewritten and
/// the checksum refilled. IP options are not carried (the builder never
/// emits them).
///
/// Returns an error if the input does not parse, is already a fragment, has
/// DF set, or `max_frag_payload < 8`. A packet that already fits yields a
/// single "fragment" identical to the input.
pub fn fragment_ipv4(packet: &[u8], max_frag_payload: usize) -> Result<Vec<Vec<u8>>> {
    let unit = max_frag_payload & !7;
    if unit == 0 {
        return Err(Error::Malformed);
    }
    let ip = Ipv4Packet::new_checked(packet)?;
    if ip.is_fragment() || ip.dont_frag() {
        return Err(Error::Malformed);
    }
    let header_len = ip.header_len();
    if header_len != MIN_HEADER_LEN {
        // Options would need per-fragment copy rules (RFC 791 class bit);
        // nothing in this repo emits them.
        return Err(Error::Malformed);
    }
    let payload = ip.payload();
    if payload.len() <= unit {
        return Ok(vec![packet[..ip.total_len() as usize].to_vec()]);
    }

    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < payload.len() {
        let chunk = (payload.len() - offset).min(unit);
        let more = offset + chunk < payload.len();
        let mut frag = Vec::with_capacity(MIN_HEADER_LEN + chunk);
        frag.extend_from_slice(&packet[..MIN_HEADER_LEN]);
        frag.extend_from_slice(&payload[offset..offset + chunk]);
        {
            let mut v = Ipv4Packet::new_unchecked(&mut frag[..]);
            v.set_total_len((MIN_HEADER_LEN + chunk) as u16);
            v.set_frag_fields(false, more, offset as u16);
            v.fill_checksum();
        }
        out.push(frag);
        offset += chunk;
    }
    Ok(out)
}

/// Compute the fragment coverage intervals `(offset, len, more_frags)` of a
/// list of fragments — used by tests and by the defragmenter's diagnostics.
pub fn coverage(fragments: &[Vec<u8>]) -> Result<Vec<(u16, usize, bool)>> {
    fragments
        .iter()
        .map(|f| {
            let ip = Ipv4Packet::new_checked(&f[..])?;
            Ok((ip.frag_offset(), ip.payload().len(), ip.more_frags()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TcpPacketSpec;

    fn tcp_ip_packet(payload_len: usize) -> Vec<u8> {
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        TcpPacketSpec::new("10.0.0.1:1000", "10.0.0.2:80")
            .dont_frag(false)
            .payload(&payload)
            .build()
    }

    #[test]
    fn splits_and_covers_everything() {
        let pkt = tcp_ip_packet(100); // 20 TCP header + 100 payload = 120 IP payload
        let frags = fragment_ipv4(&pkt, 48).unwrap();
        let cov = coverage(&frags).unwrap();
        // Offsets must tile [0, 120) without gaps.
        let mut expected_offset = 0u16;
        for (i, &(off, len, more)) in cov.iter().enumerate() {
            assert_eq!(off, expected_offset);
            assert_eq!(more, i + 1 < cov.len());
            expected_offset += len as u16;
        }
        assert_eq!(expected_offset, 120);
        // Every fragment except the last has an 8-byte-aligned payload size.
        for &(_, len, more) in &cov[..cov.len() - 1] {
            assert_eq!(len % 8, 0);
            assert!(more);
        }
        // Each fragment parses and verifies.
        for f in &frags {
            let ip = Ipv4Packet::new_checked(&f[..]).unwrap();
            assert!(ip.verify_checksum());
            assert!(ip.is_fragment());
        }
    }

    #[test]
    fn reassembled_bytes_match_original() {
        let pkt = tcp_ip_packet(333);
        let orig_payload = Ipv4Packet::new_checked(&pkt[..])
            .unwrap()
            .payload()
            .to_vec();
        let frags = fragment_ipv4(&pkt, 64).unwrap();
        let mut rebuilt = vec![0u8; orig_payload.len()];
        for f in &frags {
            let ip = Ipv4Packet::new_checked(&f[..]).unwrap();
            let off = ip.frag_offset() as usize;
            rebuilt[off..off + ip.payload().len()].copy_from_slice(ip.payload());
        }
        assert_eq!(rebuilt, orig_payload);
    }

    #[test]
    fn small_packet_passes_through() {
        let pkt = tcp_ip_packet(16);
        let frags = fragment_ipv4(&pkt, 1480).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], pkt);
        assert!(!Ipv4Packet::new_checked(&frags[0][..])
            .unwrap()
            .is_fragment());
    }

    #[test]
    fn tiny_unit_allowed_down_to_8() {
        let pkt = tcp_ip_packet(64);
        let frags = fragment_ipv4(&pkt, 8).unwrap();
        // 84 bytes of IP payload in 8-byte chunks: ceil(84/8) = 11 fragments.
        assert_eq!(frags.len(), 11);
    }

    #[test]
    fn rejects_df_and_tiny_unit() {
        let pkt = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .payload(&[0u8; 64])
            .build(); // DF set by default
        assert_eq!(fragment_ipv4(&pkt, 32).unwrap_err(), Error::Malformed);
        let pkt2 = tcp_ip_packet(64);
        assert_eq!(fragment_ipv4(&pkt2, 7).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_refragmenting_a_fragment() {
        let pkt = tcp_ip_packet(100);
        let frags = fragment_ipv4(&pkt, 48).unwrap();
        assert_eq!(fragment_ipv4(&frags[0], 16).unwrap_err(), Error::Malformed);
    }
}
