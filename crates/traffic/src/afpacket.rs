//! AF_PACKET mmap-ring capture source (Linux, feature `afpacket`).
//!
//! A real-wire [`PacketSource`] backed by a `PF_PACKET` socket with a
//! kernel-shared TPACKET_V2 receive ring: the kernel writes frames into a
//! memory-mapped buffer and flips a status word per frame, so steady-state
//! capture costs zero syscalls — the daemon only enters the kernel via
//! `poll(2)` when the ring is empty. This is the classic pre-AF_XDP fast
//! capture path, and it needs no capture library: the handful of libc
//! symbols involved are declared directly and the ring layout is the
//! stable kernel ABI from `Documentation/networking/packet_mmap.rst`.
//!
//! This module is the one place in the workspace allowed to use `unsafe`
//! (the crate forbids it unless this feature is on): raw sockets and a
//! shared memory map have no safe std equivalent. The surface is kept
//! minimal and every invariant is stated where it is relied on.
//!
//! Requires `CAP_NET_RAW` (or root); construction fails cleanly without
//! it, which is why CI drives the daemon through the loopback source and
//! this backend stays compile-checked only.

use std::io;
use std::time::Duration;

use crate::pcap::ETHERTYPE_IPV4;
use crate::source::{PacketSource, SourceEvent};

// ---- libc surface -------------------------------------------------------
// Declared directly instead of via the libc crate (the workspace takes no
// external dependencies). Values are the x86-64/aarch64 Linux ABI.

const AF_PACKET: i32 = 17;
const SOCK_RAW: i32 = 3;
const SOCK_CLOEXEC: i32 = 0o2000000;
/// ETH_P_ALL in network byte order (what `socket(2)` and `bind(2)` take).
const ETH_P_ALL_BE: u16 = 0x0003u16.to_be();
const SOL_PACKET: i32 = 263;
const PACKET_RX_RING: i32 = 5;
const PACKET_VERSION: i32 = 10;
const TPACKET_V2: i32 = 1;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 1;
const POLLIN: i16 = 0x1;
const TP_STATUS_USER: u32 = 1;
const TP_STATUS_KERNEL: u32 = 0;

#[repr(C)]
struct TpacketReq {
    tp_block_size: u32,
    tp_block_nr: u32,
    tp_frame_size: u32,
    tp_frame_nr: u32,
}

/// `struct tpacket2_hdr` — the per-frame header the kernel writes at the
/// start of every ring frame.
#[repr(C)]
struct Tpacket2Hdr {
    tp_status: u32,
    tp_len: u32,
    tp_snaplen: u32,
    tp_mac: u16,
    tp_net: u16,
    tp_sec: u32,
    tp_nsec: u32,
    tp_vlan_tci: u16,
    tp_vlan_tpid: u16,
    tp_padding: [u8; 4],
}

#[repr(C)]
struct SockaddrLl {
    sll_family: u16,
    sll_protocol: u16,
    sll_ifindex: i32,
    sll_hatype: u16,
    sll_pkttype: u8,
    sll_halen: u8,
    sll_addr: [u8; 8],
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const core::ffi::c_void, len: u32)
        -> i32;
    fn bind(fd: i32, addr: *const core::ffi::c_void, len: u32) -> i32;
    fn mmap(
        addr: *mut core::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut core::ffi::c_void;
    fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    fn close(fd: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn if_nametoindex(name: *const core::ffi::c_char) -> u32;
}

fn last_err(what: &str) -> io::Error {
    let e = io::Error::last_os_error();
    io::Error::new(e.kind(), format!("{what}: {e}"))
}

// ---- configuration ------------------------------------------------------

/// Ring sizing for [`AfPacketSource`]. The defaults give a 4 MiB ring of
/// 2 KiB frames — enough slack to absorb scheduling jitter at 10 GbE
/// while staying far under `rmem` limits.
#[derive(Debug, Clone, Copy)]
pub struct AfPacketConfig {
    /// Bytes per ring frame (header + packet; must hold an MTU frame).
    pub frame_size: usize,
    /// Total frames in the ring.
    pub frame_count: usize,
}

impl Default for AfPacketConfig {
    fn default() -> Self {
        AfPacketConfig {
            frame_size: 2048,
            frame_count: 2048,
        }
    }
}

// ---- the source ---------------------------------------------------------

/// A live AF_PACKET capture source. See the module docs.
pub struct AfPacketSource {
    fd: i32,
    ring: *mut u8,
    ring_len: usize,
    frame_size: usize,
    frame_count: usize,
    /// Next frame slot to inspect (the kernel fills the ring round-robin
    /// in order, so a single cursor visits frames exactly as they become
    /// ready).
    next_frame: usize,
    /// Packets delivered so far — doubles as the engine tick.
    packets: u64,
}

// SAFETY: the raw ring pointer is owned exclusively by this struct (the
// mapping is created here and unmapped in Drop, never aliased), so moving
// the whole source to another thread is sound.
unsafe impl Send for AfPacketSource {}

impl AfPacketSource {
    /// Open a capture socket on `interface` (e.g. `"eth0"`), set up the
    /// mmap ring, and start receiving. Fails with the OS error when the
    /// process lacks `CAP_NET_RAW`, the interface does not exist, or ring
    /// memory is refused.
    pub fn open(interface: &str, config: AfPacketConfig) -> io::Result<AfPacketSource> {
        let frame_size = config.frame_size.next_power_of_two().max(512);
        let frame_count = config.frame_count.next_power_of_two().max(8);
        // Blocks are page-sized multiples of the frame size holding an
        // integral number of frames; both sizes are powers of two by the
        // clamps above, so the division is exact.
        let block_size = frame_size.max(4096);
        let frames_per_block = block_size / frame_size;
        let block_nr = (frame_count / frames_per_block).max(1);
        let req = TpacketReq {
            tp_block_size: block_size as u32,
            tp_block_nr: block_nr as u32,
            tp_frame_size: frame_size as u32,
            tp_frame_nr: (block_nr * frames_per_block) as u32,
        };
        let frame_count = req.tp_frame_nr as usize;

        // SAFETY: plain syscall; the fd is checked and owned below.
        let fd = unsafe { socket(AF_PACKET, SOCK_RAW | SOCK_CLOEXEC, ETH_P_ALL_BE as i32) };
        if fd < 0 {
            return Err(last_err("socket(AF_PACKET)"));
        }
        // From here on, clean up the fd on any failure.
        let guard = FdGuard(fd);

        let version = TPACKET_V2;
        // SAFETY: value points at a live i32 of the advertised size.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_PACKET,
                PACKET_VERSION,
                &version as *const i32 as *const core::ffi::c_void,
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc < 0 {
            return Err(last_err("setsockopt(PACKET_VERSION)"));
        }
        // SAFETY: value points at a live TpacketReq of the advertised size.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_PACKET,
                PACKET_RX_RING,
                &req as *const TpacketReq as *const core::ffi::c_void,
                std::mem::size_of::<TpacketReq>() as u32,
            )
        };
        if rc < 0 {
            return Err(last_err("setsockopt(PACKET_RX_RING)"));
        }

        let ring_len = req.tp_block_size as usize * req.tp_block_nr as usize;
        // SAFETY: mapping the ring the kernel just agreed to; length and
        // protections match the setsockopt request.
        let ring = unsafe {
            mmap(
                std::ptr::null_mut(),
                ring_len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd,
                0,
            )
        };
        if ring as isize == -1 {
            return Err(last_err("mmap(rx ring)"));
        }

        // Bind to the requested interface so the ring sees only its
        // traffic.
        let name = std::ffi::CString::new(interface)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "interface name has NUL"))?;
        // SAFETY: name is a valid NUL-terminated string.
        let ifindex = unsafe { if_nametoindex(name.as_ptr()) };
        if ifindex == 0 {
            // SAFETY: unmapping exactly the mapping created above.
            unsafe { munmap(ring, ring_len) };
            return Err(last_err("if_nametoindex"));
        }
        let addr = SockaddrLl {
            sll_family: AF_PACKET as u16,
            sll_protocol: ETH_P_ALL_BE,
            sll_ifindex: ifindex as i32,
            sll_hatype: 0,
            sll_pkttype: 0,
            sll_halen: 0,
            sll_addr: [0; 8],
        };
        // SAFETY: addr points at a live SockaddrLl of the advertised size.
        let rc = unsafe {
            bind(
                fd,
                &addr as *const SockaddrLl as *const core::ffi::c_void,
                std::mem::size_of::<SockaddrLl>() as u32,
            )
        };
        if rc < 0 {
            // SAFETY: unmapping exactly the mapping created above.
            unsafe { munmap(ring, ring_len) };
            return Err(last_err("bind(sockaddr_ll)"));
        }

        std::mem::forget(guard); // the source owns the fd now
        Ok(AfPacketSource {
            fd,
            ring: ring as *mut u8,
            ring_len,
            frame_size,
            frame_count,
            next_frame: 0,
            packets: 0,
        })
    }

    /// Pointer to frame `i`'s header. Frames are laid out contiguously
    /// per block; with block_size a multiple of frame_size the flat index
    /// maps directly.
    fn frame_ptr(&self, i: usize) -> *mut Tpacket2Hdr {
        debug_assert!(i < self.frame_count);
        // SAFETY: i < frame_count and frame_count * frame_size == ring_len,
        // so the offset stays inside the mapping.
        unsafe { self.ring.add(i * self.frame_size) as *mut Tpacket2Hdr }
    }

    /// Copy the ready frame at `idx` into `buf` as an IPv4 packet, if it
    /// is one; always releases the frame back to the kernel. Returns
    /// whether `buf` was filled.
    fn take_frame(&mut self, idx: usize, buf: &mut Vec<u8>) -> bool {
        let hdr = self.frame_ptr(idx);
        // SAFETY: hdr is in-bounds (frame_ptr) and the kernel has
        // published this frame (status USER was observed via a volatile
        // read before calling). Reads of the header fields are plain loads
        // after the volatile status acquire.
        let (got, status_ptr) = unsafe {
            let h = &*hdr;
            let mac = h.tp_mac as usize;
            let net = h.tp_net as usize;
            let snap = h.tp_snaplen as usize;
            let l2_len = net.saturating_sub(mac);
            let ip_len = snap.saturating_sub(l2_len);
            let mut got = false;
            // Ethertype sits in the last two bytes of the L2 header the
            // kernel parsed for us (tp_net points past it). Read it from
            // the frame rather than trusting a fixed 14-byte header so
            // VLAN-tagged frames are simply skipped instead of mis-sliced.
            if l2_len >= 2 && net + ip_len <= self.frame_size && ip_len > 0 {
                let base = hdr as *const u8;
                let ethertype = u16::from_be_bytes([*base.add(net - 2), *base.add(net - 1)]);
                if ethertype == ETHERTYPE_IPV4 {
                    let data = std::slice::from_raw_parts(base.add(net), ip_len);
                    buf.clear();
                    buf.extend_from_slice(data);
                    got = true;
                }
            }
            (got, std::ptr::addr_of_mut!((*hdr).tp_status))
        };
        // SAFETY: releasing the frame to the kernel; volatile so the
        // store is not elided or reordered past the data reads above.
        unsafe { std::ptr::write_volatile(status_ptr, TP_STATUS_KERNEL) };
        self.next_frame = (idx + 1) % self.frame_count;
        got
    }
}

impl PacketSource for AfPacketSource {
    fn poll(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> SourceEvent {
        loop {
            // Sweep at most one full ring pass for a ready IPv4 frame.
            for _ in 0..self.frame_count {
                let idx = self.next_frame;
                let hdr = self.frame_ptr(idx);
                // SAFETY: in-bounds header; volatile read pairs with the
                // kernel's status publish.
                let status =
                    unsafe { std::ptr::read_volatile(std::ptr::addr_of!((*hdr).tp_status)) };
                if status & TP_STATUS_USER == 0 {
                    break;
                }
                if self.take_frame(idx, buf) {
                    let tick = self.packets;
                    self.packets += 1;
                    return SourceEvent::Packet { tick };
                }
                // Non-IPv4 frame: released, keep sweeping.
            }
            let mut pfd = PollFd {
                fd: self.fd,
                events: POLLIN,
                revents: 0,
            };
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: pfd is a live PollFd; nfds is 1.
            let rc = unsafe { poll(&mut pfd as *mut PollFd, 1, ms) };
            if rc <= 0 {
                // Timeout or EINTR: report idle, the serve loop re-polls.
                return SourceEvent::Idle;
            }
            // Ready: loop back and sweep the ring again.
        }
    }

    fn name(&self) -> &'static str {
        "af-packet"
    }
}

impl Drop for AfPacketSource {
    fn drop(&mut self) {
        // SAFETY: unmapping the mapping created in open(), then closing
        // the fd we own. Both are final uses.
        unsafe {
            munmap(self.ring as *mut core::ffi::c_void, self.ring_len);
            close(self.fd);
        }
    }
}

/// Closes the capture fd if `open` bails out before handing ownership to
/// the source.
struct FdGuard(i32);

impl Drop for FdGuard {
    fn drop(&mut self) {
        // SAFETY: the guard owns the fd until mem::forget.
        unsafe { close(self.0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_without_privileges_fails_cleanly() {
        // With CAP_NET_RAW this would succeed; either way the call must
        // return (never panic or leak) and errors must carry context.
        match AfPacketSource::open("lo", AfPacketConfig::default()) {
            Ok(src) => assert_eq!(src.name(), "af-packet"),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("socket") || msg.contains("bind") || msg.contains("setsockopt"),
                    "error should say which step failed: {msg}"
                );
            }
        }
    }
}
