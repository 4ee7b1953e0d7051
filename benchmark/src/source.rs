//! The benchmark's packet source: an in-memory trace handed to the real
//! daemon loop one packet per poll. One thread, no channel, host memory
//! only — no link and no loopback socket — so what `serve()` costs on top
//! of the engine is the loop itself and one copy per packet.

use std::time::{Duration, Instant};

use sd_traffic::{PacketSource, SourceEvent, TracePacket};

/// One packet in eight is timed, chosen by a multiplicative hash of its
/// index so the sample cannot alias with a generator's round-robin period.
fn sampled(index: usize) -> bool {
    (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 == 0
}

/// Yields each packet of a trace exactly once, tick = index, then
/// `Closed` for ever.
///
/// With [`TraceSource::timing_gaps`] it also records per-packet service
/// time — the gap between the poll that hands out packet *i* and the next
/// poll, which is when the closed loop's single client gets its verdict —
/// for a fixed 1-in-8 sample of packets. Two clock reads per sampled
/// packet cost the loop about 6 ns per packet on average, small enough to
/// leave on during the timed passes (so latency and throughput come from
/// the same passes and no engine is built just to be timestamped).
pub struct TraceSource<'a> {
    packets: &'a [TracePacket],
    next: usize,
    timing: bool,
    open_since: Option<Instant>,
    gaps_ns: Vec<u32>,
}

impl<'a> TraceSource<'a> {
    /// A source over `packets` that records no timing.
    pub fn new(packets: &'a [TracePacket]) -> Self {
        TraceSource {
            packets,
            next: 0,
            timing: false,
            open_since: None,
            gaps_ns: Vec::new(),
        }
    }

    /// A source that also records sampled per-packet service times.
    pub fn timing_gaps(packets: &'a [TracePacket]) -> Self {
        TraceSource {
            timing: true,
            gaps_ns: Vec::with_capacity(packets.len() / 8 + packets.len() / 64 + 16),
            ..Self::new(packets)
        }
    }

    /// Service times recorded so far, in offer order, nanoseconds.
    pub fn into_gaps_ns(self) -> Vec<u32> {
        self.gaps_ns
    }
}

impl PacketSource for TraceSource<'_> {
    fn poll(&mut self, buf: &mut Vec<u8>, _timeout: Duration) -> SourceEvent {
        let index = self.next;
        if self.timing && (self.open_since.is_some() || sampled(index)) {
            let now = Instant::now();
            if let Some(since) = self.open_since.take() {
                let ns = now.duration_since(since).as_nanos();
                self.gaps_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            }
            if sampled(index) && index < self.packets.len() {
                self.open_since = Some(now);
            }
        }
        let Some(packet) = self.packets.get(index) else {
            return SourceEvent::Closed;
        };
        buf.clear();
        buf.extend_from_slice(&packet.data);
        self.next += 1;
        SourceEvent::Packet { tick: index as u64 }
    }

    fn name(&self) -> &'static str {
        "trace-memory"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_WAIT: Duration = Duration::ZERO;

    fn trace(n: usize) -> Vec<TracePacket> {
        (0..n)
            .map(|i| TracePacket::new(i as u64, vec![i as u8; 1 + i % 7]))
            .collect()
    }

    #[test]
    fn yields_each_packet_exactly_once_then_closed() {
        let packets = trace(300);
        for mut src in [
            TraceSource::new(&packets),
            TraceSource::timing_gaps(&packets),
        ] {
            let mut buf = vec![0xEE; 9]; // stale bytes must not leak through
            for (i, p) in packets.iter().enumerate() {
                let ev = src.poll(&mut buf, NO_WAIT);
                assert_eq!(ev, SourceEvent::Packet { tick: i as u64 });
                assert_eq!(buf, p.data);
            }
            for _ in 0..3 {
                assert_eq!(src.poll(&mut buf, NO_WAIT), SourceEvent::Closed);
            }
        }
    }

    #[test]
    fn records_one_gap_per_sampled_packet() {
        let packets = trace(4096);
        let want = (0..packets.len()).filter(|&i| sampled(i)).count();
        assert!((400..=640).contains(&want), "1-in-8 sample drifted: {want}");
        let mut src = TraceSource::timing_gaps(&packets);
        let mut buf = Vec::new();
        while src.poll(&mut buf, NO_WAIT) != SourceEvent::Closed {}
        assert_eq!(src.into_gaps_ns().len(), want);

        let mut quiet = TraceSource::new(&packets);
        while quiet.poll(&mut buf, NO_WAIT) != SourceEvent::Closed {}
        assert!(quiet.into_gaps_ns().is_empty());
    }

    #[test]
    fn empty_trace_is_closed_at_once() {
        let mut src = TraceSource::timing_gaps(&[]);
        assert_eq!(src.poll(&mut Vec::new(), NO_WAIT), SourceEvent::Closed);
        assert!(src.into_gaps_ns().is_empty());
    }
}
