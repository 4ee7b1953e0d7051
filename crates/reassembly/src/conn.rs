//! Bidirectional TCP connection reassembly.
//!
//! Pairs two [`TcpStreamReassembler`]s under one connection, routing parsed
//! segments by [`Direction`], tracking the coarse connection lifecycle the
//! baseline IPS needs for state reclamation, and summing state for the
//! memory experiments.

use sd_flow::Direction;
use sd_packet::tcp::TcpRepr;

use crate::policy::OverlapPolicy;
use crate::stream::{PushSummary, TcpStreamReassembler};
use crate::urgent::UrgentSemantics;

/// Coarse connection lifecycle, enough for an IPS to reclaim state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Seen traffic; no FIN/RST yet.
    Established,
    /// At least one direction has sent FIN.
    Closing,
    /// Both directions finished, or an RST was seen.
    Closed,
}

/// Both directions of one TCP connection.
#[derive(Debug, Clone)]
pub struct Connection {
    forward: TcpStreamReassembler,
    backward: TcpStreamReassembler,
    urgent: UrgentSemantics,
}

impl Connection {
    /// New connection; both directions share the overlap policy. Urgent
    /// octets follow the default ([`UrgentSemantics::DiscardOne`]) — set
    /// the protected hosts' behaviour with
    /// [`with_urgent`](Self::with_urgent).
    pub fn new(policy: OverlapPolicy) -> Self {
        Connection {
            forward: TcpStreamReassembler::new(policy),
            backward: TcpStreamReassembler::new(policy),
            urgent: UrgentSemantics::default(),
        }
    }

    /// New connection with an explicit per-direction buffer cap.
    pub fn with_limit(policy: OverlapPolicy, limit: usize) -> Self {
        Connection {
            forward: TcpStreamReassembler::with_limit(policy, limit),
            backward: TcpStreamReassembler::with_limit(policy, limit),
            urgent: UrgentSemantics::default(),
        }
    }

    /// Set the urgent-octet delivery semantics (builder-style).
    pub fn with_urgent(mut self, urgent: UrgentSemantics) -> Self {
        self.urgent = urgent;
        self
    }

    /// Process one parsed segment traveling in `dir`.
    ///
    /// Handles SYN/FIN/RST flags and pushes payload into the right stream;
    /// bytes that become in-order in that direction go to `sink`.
    pub fn on_segment(
        &mut self,
        dir: Direction,
        repr: &TcpRepr,
        payload: &[u8],
        sink: impl FnMut(&[u8]),
    ) -> PushSummary {
        let stream = self.stream_mut(dir);
        if repr.flags.syn() {
            stream.on_syn(repr.seq);
        }
        if repr.flags.rst() {
            stream.on_rst();
        }
        let data_seq = if repr.flags.syn() {
            repr.seq + 1u32 // SYN occupies one sequence position
        } else {
            repr.seq
        };
        if let Some(skip) = self.urgent.discarded_seq(repr, data_seq, payload.len()) {
            self.stream_mut(dir).skip_at(skip);
        }
        let stream = self.stream_mut(dir);
        let summary = stream.push(data_seq, payload, sink);
        if repr.flags.fin() {
            let fin_seq = data_seq + payload.len();
            self.stream_mut(dir).on_fin(fin_seq);
        }
        summary
    }

    /// The reassembler for one direction.
    pub fn stream(&self, dir: Direction) -> &TcpStreamReassembler {
        match dir {
            Direction::Forward => &self.forward,
            Direction::Backward => &self.backward,
        }
    }

    /// Mutable access to one direction.
    pub fn stream_mut(&mut self, dir: Direction) -> &mut TcpStreamReassembler {
        match dir {
            Direction::Forward => &mut self.forward,
            Direction::Backward => &mut self.backward,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ConnState {
        if self.forward.is_reset() || self.backward.is_reset() {
            return ConnState::Closed;
        }
        match (self.forward.is_finished(), self.backward.is_finished()) {
            (true, true) => ConnState::Closed,
            (false, false) => ConnState::Established,
            _ => ConnState::Closing,
        }
    }

    /// Total state footprint of both directions.
    pub fn memory_bytes(&self) -> usize {
        self.forward.memory_bytes() + self.backward.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_packet::tcp::TcpFlags;
    use sd_packet::SeqNumber;

    /// Deliver one segment, returning what it made in-order.
    fn on(c: &mut Connection, dir: Direction, repr: &TcpRepr, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        c.on_segment(dir, repr, payload, |b| out.extend_from_slice(b));
        out
    }

    fn seg(seq: u32, flags: TcpFlags) -> TcpRepr {
        TcpRepr {
            src_port: 1000,
            dst_port: 80,
            seq: SeqNumber(seq),
            ack: SeqNumber(0),
            flags,
            window: 65535,
            urgent: 0,
        }
    }

    #[test]
    fn syn_consumes_sequence_position() {
        let mut c = Connection::new(OverlapPolicy::First);
        on(&mut c, Direction::Forward, &seg(100, TcpFlags::SYN), b"");
        let got = on(
            &mut c,
            Direction::Forward,
            &seg(101, TcpFlags::ACK),
            b"data",
        );
        assert_eq!(got, b"data");
    }

    #[test]
    fn directions_are_independent() {
        let mut c = Connection::new(OverlapPolicy::First);
        on(&mut c, Direction::Forward, &seg(100, TcpFlags::SYN), b"");
        on(&mut c, Direction::Backward, &seg(500, TcpFlags::SYN), b"");
        let req = on(&mut c, Direction::Forward, &seg(101, TcpFlags::ACK), b"req");
        let resp = on(
            &mut c,
            Direction::Backward,
            &seg(501, TcpFlags::ACK),
            b"resp",
        );
        assert_eq!(req, b"req");
        assert_eq!(resp, b"resp");
    }

    #[test]
    fn lifecycle_transitions() {
        let mut c = Connection::new(OverlapPolicy::First);
        on(&mut c, Direction::Forward, &seg(100, TcpFlags::SYN), b"");
        assert_eq!(c.state(), ConnState::Established);
        on(
            &mut c,
            Direction::Forward,
            &seg(101, TcpFlags::FIN.union(TcpFlags::ACK)),
            b"",
        );
        assert_eq!(c.state(), ConnState::Closing);
        on(&mut c, Direction::Backward, &seg(900, TcpFlags::SYN), b"");
        on(
            &mut c,
            Direction::Backward,
            &seg(901, TcpFlags::FIN.union(TcpFlags::ACK)),
            b"",
        );
        assert_eq!(c.state(), ConnState::Closed);
    }

    #[test]
    fn rst_closes_immediately() {
        let mut c = Connection::new(OverlapPolicy::First);
        on(&mut c, Direction::Forward, &seg(100, TcpFlags::SYN), b"");
        on(&mut c, Direction::Backward, &seg(1, TcpFlags::RST), b"");
        assert_eq!(c.state(), ConnState::Closed);
    }

    #[test]
    fn fin_with_payload_marks_end_after_data() {
        let mut c = Connection::new(OverlapPolicy::First);
        on(&mut c, Direction::Forward, &seg(100, TcpFlags::SYN), b"");
        let got = on(
            &mut c,
            Direction::Forward,
            &seg(101, TcpFlags::FIN.union(TcpFlags::PSH)),
            b"last",
        );
        assert_eq!(got, b"last");
        assert!(c.stream(Direction::Forward).is_finished());
    }

    #[test]
    fn urgent_octet_discarded_under_discard_semantics() {
        let mut c = Connection::new(OverlapPolicy::First); // default: DiscardOne
        on(&mut c, Direction::Forward, &seg(100, TcpFlags::SYN), b"");
        let mut urg = seg(101, TcpFlags::ACK.union(TcpFlags::URG));
        urg.urgent = 3; // third payload byte is urgent
        assert_eq!(
            on(&mut c, Direction::Forward, &urg, b"ab!cd"),
            b"abcd",
            "the urgent octet must not reach the application stream"
        );
        // Sequence accounting still includes it: the next segment starts
        // at 101 + 5.
        let got = on(&mut c, Direction::Forward, &seg(106, TcpFlags::ACK), b"ef");
        assert_eq!(got, b"ef");
    }

    #[test]
    fn urgent_octet_kept_inline() {
        let mut c = Connection::new(OverlapPolicy::First)
            .with_urgent(crate::urgent::UrgentSemantics::Inline);
        on(&mut c, Direction::Forward, &seg(100, TcpFlags::SYN), b"");
        let mut urg = seg(101, TcpFlags::ACK.union(TcpFlags::URG));
        urg.urgent = 3;
        assert_eq!(on(&mut c, Direction::Forward, &urg, b"ab!cd"), b"ab!cd");
    }

    #[test]
    fn urgent_in_buffered_out_of_order_segment() {
        let mut c = Connection::new(OverlapPolicy::First);
        on(&mut c, Direction::Forward, &seg(100, TcpFlags::SYN), b"");
        // Out-of-order urgent segment buffers first; discard must still
        // apply when it finally delivers.
        let mut urg = seg(105, TcpFlags::ACK.union(TcpFlags::URG));
        urg.urgent = 1;
        assert_eq!(on(&mut c, Direction::Forward, &urg, b"!yz"), b"");
        let got = on(
            &mut c,
            Direction::Forward,
            &seg(101, TcpFlags::ACK),
            b"wxyz",
        );
        assert_eq!(got, b"wxyzyz");
    }

    #[test]
    fn memory_sums_both_directions() {
        let mut c = Connection::new(OverlapPolicy::First);
        let base = c.memory_bytes();
        // Create a gap so bytes stay buffered.
        on(&mut c, Direction::Forward, &seg(100, TcpFlags::SYN), b"");
        on(
            &mut c,
            Direction::Forward,
            &seg(200, TcpFlags::ACK),
            b"buffered",
        );
        assert!(c.memory_bytes() > base);
    }
}
