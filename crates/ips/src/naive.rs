//! The naive per-packet strawman.
//!
//! Scans each packet's payload independently with the full-signature
//! automaton (the same [`TieredNfa`] the conventional IPS runs over
//! streams): no normalization, no defragmentation, no reassembly, no
//! per-flow state at all. This is the engine Ptacek & Newsham's paper killed
//! — any signature split across two packets sails through — and it anchors
//! the detection matrix (E1) and the state comparison (it is the zero-state
//! lower bound).

use sd_flow::FlowKey;
use sd_match::TieredNfa;
use sd_packet::parse::{parse_ipv4, Transport};

use crate::alert::{Alert, AlertSource};
use crate::api::{Ips, ResourceUsage};
use crate::signature::SignatureSet;

/// The per-packet IPS.
pub struct NaivePacketIps {
    sigs: SignatureSet,
    matcher: TieredNfa,
    usage: ResourceUsage,
}

impl NaivePacketIps {
    /// Build from a signature set.
    pub fn new(sigs: SignatureSet) -> Self {
        let matcher = TieredNfa::new(sigs.to_patterns());
        NaivePacketIps {
            sigs,
            matcher,
            usage: ResourceUsage::default(),
        }
    }

    /// The signature set this engine scans for.
    pub fn signatures(&self) -> &SignatureSet {
        &self.sigs
    }

    fn scan(&mut self, flow: FlowKey, payload: &[u8], out: &mut Vec<Alert>) {
        self.usage.payload_bytes += payload.len() as u64;
        self.usage.bytes_scanned += payload.len() as u64;
        for m in self.matcher.find_all(payload) {
            self.usage.alerts += 1;
            out.push(Alert {
                flow,
                signature: m.pattern as usize,
                offset: m.end as u64,
                source: AlertSource::Packet,
            });
        }
    }
}

impl Ips for NaivePacketIps {
    fn name(&self) -> &'static str {
        "naive-packet"
    }

    fn process_packet(&mut self, packet: &[u8], _tick: u64, out: &mut Vec<Alert>) {
        self.usage.packets += 1;
        let Ok(parsed) = parse_ipv4(packet) else {
            return;
        };
        let Some((flow, _)) = FlowKey::from_parsed(&parsed) else {
            return;
        };
        match parsed.transport {
            Transport::Tcp(info) => self.scan(flow, info.payload, out),
            Transport::Udp(info) => self.scan(flow, info.payload, out),
            // Scans raw fragment payloads too — the best a stateless engine
            // can do, and still evadable by construction.
            Transport::Fragment(raw) | Transport::Other(raw) => self.scan(flow, raw, out),
            Transport::NonIp => {}
        }
        // Stateless: per-flow state is identically zero.
        self.usage.observe_state(0);
    }

    fn finish(&mut self, _out: &mut Vec<Alert>) {}

    fn resources(&self) -> ResourceUsage {
        self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::run_trace;
    use crate::signature::Signature;
    use sd_packet::builder::{ip_of_frame, TcpPacketSpec};

    fn sigs() -> SignatureSet {
        SignatureSet::from_signatures([Signature::new("evil", &b"EVIL_SIGNATURE_BYTES"[..])])
    }

    fn tcp_pkt(seq: u32, payload: &[u8]) -> Vec<u8> {
        let frame = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(seq)
            .payload(payload)
            .build();
        ip_of_frame(&frame).to_vec()
    }

    #[test]
    fn detects_whole_signature_in_packet() {
        let mut ips = NaivePacketIps::new(sigs());
        let alerts = run_trace(
            &mut ips,
            [tcp_pkt(1, b"..EVIL_SIGNATURE_BYTES..").as_slice()],
        );
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].source, AlertSource::Packet);
    }

    #[test]
    fn evaded_by_two_segment_split() {
        let mut ips = NaivePacketIps::new(sigs());
        let pkts = [tcp_pkt(1, b"EVIL_SIGNA"), tcp_pkt(11, b"TURE_BYTES")];
        let alerts = run_trace(&mut ips, pkts.iter().map(|p| p.as_slice()));
        assert!(alerts.is_empty(), "the strawman must be evadable");
    }

    #[test]
    fn zero_state_always() {
        let mut ips = NaivePacketIps::new(sigs());
        run_trace(&mut ips, [tcp_pkt(1, b"data").as_slice()]);
        let r = ips.resources();
        assert_eq!(r.state_bytes, 0);
        assert_eq!(r.state_bytes_peak, 0);
        assert_eq!(r.packets, 1);
    }

    #[test]
    fn scans_fragments_raw() {
        use sd_packet::frag::fragment_ipv4;
        let frame = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:80")
            .payload(b"....EVIL_SIGNATURE_BYTES....")
            .dont_frag(false)
            .build();
        let frags = fragment_ipv4(ip_of_frame(&frame), 8).unwrap();
        let mut ips = NaivePacketIps::new(sigs());
        let alerts = run_trace(&mut ips, frags.iter().map(|p| p.as_slice()));
        assert!(
            alerts.is_empty(),
            "signature split across fragments evades the strawman"
        );
        assert!(ips.resources().bytes_scanned > 0);
    }
}
