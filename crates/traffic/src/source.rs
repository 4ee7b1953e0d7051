//! Pluggable packet sources for the `serve()` loop behind `sd scan` and
//! `sd serve`.
//!
//! A [`PacketSource`] is the loop's intake: something that hands over
//! raw IPv4 packets one at a time, with a bounded wait so the serve loop
//! can interleave control work (signal flags, telemetry publishing, rule
//! reloads) between packets even when the wire is quiet.
//!
//! Three implementations ship:
//!
//! * [`TraceSource`] — a capture held in memory, one packet per poll.
//!   `sd scan` drains a pcap through it, and `sd serve --source loopback`
//!   plays the generated workload once or, cycling, until its deadline.
//! * [`LoopbackSource`] — an in-process bounded channel. The producing
//!   side ([`LoopbackHandle`]) is `Clone + Send`, so tests drive the
//!   daemon from another thread with zero I/O, and dropping every handle
//!   gives the daemon a deterministic end-of-stream.
//! * `AfPacketSource` (feature `afpacket`, Linux only) — a real capture
//!   socket; see the `afpacket` module (compiled only with that feature).

use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

use crate::trace::TracePacket;

/// What one [`PacketSource::poll`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceEvent {
    /// The caller's buffer now holds one raw IPv4 packet observed at
    /// `tick` (source-defined units; the loopback passes the producer's
    /// tick through, a capture source uses its packet counter).
    Packet {
        /// Engine tick to process the packet at.
        tick: u64,
    },
    /// No packet arrived within the timeout; the source is still open.
    /// The serve loop uses these gaps for control work.
    Idle,
    /// The source is exhausted (every producer hung up / the socket
    /// closed) and will never yield another packet.
    Closed,
}

/// A blocking pull-based packet intake. See the module docs.
pub trait PacketSource {
    /// Wait up to `timeout` for the next packet. On `Packet`, `buf` has
    /// been cleared and filled with the raw IPv4 bytes.
    fn poll(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> SourceEvent;

    /// Stable name for logs and reports.
    fn name(&self) -> &'static str;
}

/// A capture held in memory, one packet per poll: packet *i* comes at
/// tick *i*, and every poll after the last packet returns `Closed`.
///
/// [`TraceSource::cycling`] starts over after the last packet instead,
/// ticks still counting (`n, n+1, …`), and never closes unless the trace
/// is empty; the caller ends the run.
pub struct TraceSource<'a> {
    packets: &'a [TracePacket],
    next: u64,
    cycling: bool,
}

impl<'a> TraceSource<'a> {
    /// One pass over `packets`.
    pub fn new(packets: &'a [TracePacket]) -> Self {
        TraceSource {
            packets,
            next: 0,
            cycling: false,
        }
    }

    /// Pass after pass over `packets`.
    pub fn cycling(packets: &'a [TracePacket]) -> Self {
        TraceSource {
            cycling: true,
            ..Self::new(packets)
        }
    }
}

impl PacketSource for TraceSource<'_> {
    fn poll(&mut self, buf: &mut Vec<u8>, _timeout: Duration) -> SourceEvent {
        let len = self.packets.len() as u64;
        let index = if self.cycling && len > 0 {
            self.next % len
        } else {
            self.next
        };
        let Some(packet) = self.packets.get(index as usize) else {
            return SourceEvent::Closed;
        };
        buf.clear();
        buf.extend_from_slice(&packet.data);
        let tick = self.next;
        self.next += 1;
        SourceEvent::Packet { tick }
    }

    fn name(&self) -> &'static str {
        "trace"
    }
}

/// Producer half of the in-process loopback source.
///
/// Cloneable and `Send`: any number of generator threads can feed one
/// daemon. The channel is bounded — a producer outrunning the engine
/// blocks (offered-load backpressure), it never buffers unboundedly.
#[derive(Clone)]
pub struct LoopbackHandle {
    tx: SyncSender<(u64, Vec<u8>)>,
}

impl LoopbackHandle {
    /// Offer one packet at `tick`. Returns `false` once the source has
    /// been dropped (the daemon is gone; stop generating).
    pub fn send(&self, tick: u64, packet: &[u8]) -> bool {
        self.tx.send((tick, packet.to_vec())).is_ok()
    }
}

/// Consumer half of the in-process loopback source.
pub struct LoopbackSource {
    rx: Receiver<(u64, Vec<u8>)>,
}

impl PacketSource for LoopbackSource {
    fn poll(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> SourceEvent {
        match self.rx.recv_timeout(timeout) {
            Ok((tick, data)) => {
                buf.clear();
                buf.extend_from_slice(&data);
                SourceEvent::Packet { tick }
            }
            Err(RecvTimeoutError::Timeout) => SourceEvent::Idle,
            Err(RecvTimeoutError::Disconnected) => SourceEvent::Closed,
        }
    }

    fn name(&self) -> &'static str {
        "loopback"
    }
}

/// Build a loopback pair with a channel bound of `depth` packets.
pub fn loopback(depth: usize) -> (LoopbackHandle, LoopbackSource) {
    let (tx, rx) = sync_channel(depth.max(1));
    (LoopbackHandle { tx }, LoopbackSource { rx })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Duration = Duration::from_millis(10);

    fn packets(n: u8) -> Vec<TracePacket> {
        (0..n)
            .map(|i| TracePacket::new(0, vec![i; 1 + i as usize]))
            .collect()
    }

    #[test]
    fn trace_source_ticks_by_index_then_closes() {
        let packets = packets(3);
        let mut src = TraceSource::new(&packets);
        let mut buf = vec![0xEE; 9]; // stale bytes must not leak through
        for (i, p) in packets.iter().enumerate() {
            let tick = i as u64;
            assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Packet { tick });
            assert_eq!(buf, p.data);
        }
        for _ in 0..3 {
            assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Closed);
        }
        assert_eq!(src.name(), "trace");
    }

    #[test]
    fn cycling_trace_source_keeps_counting_ticks() {
        let packets = packets(3);
        let mut src = TraceSource::cycling(&packets);
        let mut buf = Vec::new();
        for tick in 0..8u64 {
            assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Packet { tick });
            assert_eq!(buf, packets[tick as usize % 3].data);
        }
    }

    #[test]
    fn empty_trace_source_is_closed_in_both_forms() {
        let mut buf = Vec::new();
        for mut src in [TraceSource::new(&[]), TraceSource::cycling(&[])] {
            for _ in 0..3 {
                assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Closed);
            }
        }
    }

    #[test]
    fn loopback_delivers_packets_in_order_with_ticks() {
        let (tx, mut src) = loopback(16);
        assert!(tx.send(7, b"abc"));
        assert!(tx.send(9, b"defg"));
        let mut buf = Vec::new();
        assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Packet { tick: 7 });
        assert_eq!(buf, b"abc");
        assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Packet { tick: 9 });
        assert_eq!(buf, b"defg");
        assert_eq!(src.name(), "loopback");
    }

    #[test]
    fn empty_open_source_reports_idle() {
        let (tx, mut src) = loopback(4);
        let mut buf = Vec::new();
        assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Idle);
        drop(tx);
    }

    #[test]
    fn dropping_every_handle_closes_the_source() {
        let (tx, mut src) = loopback(4);
        let tx2 = tx.clone();
        tx.send(0, b"x");
        drop(tx);
        drop(tx2);
        let mut buf = Vec::new();
        // Already-queued packets still drain before close.
        assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Packet { tick: 0 });
        assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Closed);
    }

    #[test]
    fn producer_blocks_at_the_bound_until_consumed() {
        let (tx, mut src) = loopback(1);
        assert!(tx.send(0, b"a"));
        let t = std::thread::spawn(move || {
            // This send blocks until the consumer drains the first packet.
            let ok = tx.send(1, b"b");
            (ok, std::time::Instant::now())
        });
        std::thread::sleep(Duration::from_millis(50));
        let mut buf = Vec::new();
        let drained_at = std::time::Instant::now();
        assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Packet { tick: 0 });
        let (ok, sent_at) = t.join().unwrap();
        assert!(ok);
        assert!(sent_at >= drained_at, "send must have waited for the drain");
        assert_eq!(src.poll(&mut buf, SHORT), SourceEvent::Packet { tick: 1 });
    }
}
