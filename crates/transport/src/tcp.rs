//! Real loopback TCP transport.
//!
//! The paper's testbed ran a real TCP/IP stack; we provide the same for
//! end-to-end runs on the host. From user space, a portable TCP transport
//! cannot avoid the user/kernel crossings, so the data path costs exactly
//! one `write` copy on the sender and one `read` copy into a page-aligned
//! buffer on the receiver — both metered. The control/data separation is
//! kept at the framing level (a lane tag per frame), preserving the ORB's
//! "announce, then deposit" protocol shape on a real socket.

use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use zc_buffers::{CopyLayer, ZcBytes};

use crate::stats::{ConnStats, StatsCell, TransportField};
use crate::{
    Acceptor, Connection, Connector, TResult, TransportCtx, TransportError, WireViolation,
};

const LANE_CONTROL: u8 = 0;
const LANE_DATA: u8 = 1;

/// Upper bound for a single TCP frame. A frame carries at most one GIOP
/// message (64 MiB cap) or one data block, and every real workload stays
/// far below that, so anything larger is corruption or a hostile header —
/// and the announced length sizes a buffer allocation, so the cap is also
/// the receiver's worst-case allocation from a 9-byte header.
pub const MAX_TCP_FRAME: u64 = 64 << 20;

/// Validate a wire-announced frame length against [`MAX_TCP_FRAME`] and
/// convert it for allocation. Every allocation sized by a peer-controlled
/// length must pass through here first (wire-taint invariant).
fn checked_frame_len(len: u64) -> TResult<usize> {
    if len > MAX_TCP_FRAME {
        return Err(WireViolation::FrameTooLarge {
            announced: len,
            cap: MAX_TCP_FRAME,
        }
        .into());
    }
    Ok(len as usize)
}

/// A TCP connection speaking the zcorba lane framing:
/// `lane(1) | length(8, little-endian) | payload`.
pub struct TcpConn {
    stream: TcpStream,
    ctx: TransportCtx,
    peer: String,
    pending_control: std::collections::VecDeque<ZcBytes>,
    pending_data: std::collections::VecDeque<ZcBytes>,
    /// Bytes the parked frames of both lanes pin, each at least a page.
    parked_bytes: u64,
    stats: Arc<StatsCell>,
    trace_conn: u64,
}

impl TcpConn {
    fn new(stream: TcpStream, ctx: TransportCtx) -> TResult<TcpConn> {
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr().map_or_else(
            |_| "tcp:?".to_string(),
            |a| ["tcp:", &a.to_string()].concat(),
        );
        let stats = StatsCell::with_telemetry(ctx.telemetry.transport_mirror());
        Ok(TcpConn {
            stream,
            ctx,
            peer,
            pending_control: Default::default(),
            pending_data: Default::default(),
            parked_bytes: 0,
            stats,
            trace_conn: zc_trace::next_conn_id(),
        })
    }

    /// Write one frame whose payload is the concatenation of `parts`: the
    /// 9-byte header and every part leave in one gathered `writev`, so
    /// neither the caller nor this layer concatenates them.
    fn write_frame(&mut self, lane: u8, parts: &[&[u8]]) -> TResult<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let mut header = [0u8; 9];
        header[0] = lane;
        // zc-audit: allow(control-plane) — 9-byte frame header, no payload bytes
        header[1..9].copy_from_slice(&(len as u64).to_le_bytes());
        self.stats.add(TransportField::BytesSent, len as u64);
        // The kernel copies the payload out of user space here.
        self.ctx.meter.record(CopyLayer::SocketSend, len);
        let mut iov = [IoSlice::new(&[]); MAX_IOV];
        iov[0] = IoSlice::new(&header);
        let mut used = 1;
        for part in parts {
            if used == MAX_IOV {
                write_all_vectored(&mut self.stream, &mut iov)?;
                used = 0;
            }
            iov[used] = IoSlice::new(part);
            used += 1;
        }
        write_all_vectored(&mut self.stream, &mut iov[..used])?;
        self.stats.add(TransportField::FramesSent, 1);
        self.stats
            .add(TransportField::WireBytesSent, (len + 9) as u64);
        Ok(())
    }

    /// Read one frame; returns `(lane, payload)` with the payload already
    /// landed in a page-aligned buffer (one metered kernel→user copy).
    fn read_frame(&mut self) -> TResult<(u8, ZcBytes)> {
        let mut header = [0u8; 9];
        self.stream.read_exact(&mut header)?;
        let lane = header[0];
        let len = match <[u8; 8]>::try_from(&header[1..9]) {
            Ok(b) => u64::from_le_bytes(b),
            // `header` is 9 bytes, so the 8-byte window always converts;
            // an error return keeps hostile input away from any panic.
            Err(_) => return Err(WireViolation::MalformedFrameHeader.into()),
        };
        let len = checked_frame_len(len)?;
        let mut buf = self.ctx.pool.acquire(len.max(1));
        buf.set_len(len);
        self.stream.read_exact(buf.as_mut_slice())?;
        // Account the kernel→user copy `read` just performed.
        self.ctx.meter.record(CopyLayer::SocketRecv, len);
        self.stats
            .add(TransportField::WireBytesRecv, (len + 9) as u64);
        Ok((lane, buf.freeze()))
    }

    /// Read frames until one on `want` appears, parking others as the
    /// pooled views they were read into. An ORB peer never needs a backlog
    /// (deposits follow their announcement), so the parked frames may pin
    /// at most [`MAX_TCP_FRAME`] bytes.
    fn next_on_lane(&mut self, want: u8) -> TResult<ZcBytes> {
        let pinned = |frame: &ZcBytes| frame.len().max(zc_buffers::PAGE_SIZE) as u64;
        loop {
            let parked = match want {
                LANE_CONTROL => self.pending_control.pop_front(),
                _ => self.pending_data.pop_front(),
            };
            if let Some(z) = parked {
                self.parked_bytes = self.parked_bytes.saturating_sub(pinned(&z));
                return Ok(z);
            }
            let (lane, payload) = self.read_frame()?;
            if lane == want {
                return Ok(payload);
            }
            let parked = self.parked_bytes.saturating_add(pinned(&payload));
            if parked > MAX_TCP_FRAME {
                let cap = MAX_TCP_FRAME;
                return Err(WireViolation::LaneBacklog { parked, cap }.into());
            }
            self.parked_bytes = parked;
            match lane {
                LANE_CONTROL => self.pending_control.push_back(payload),
                LANE_DATA => self.pending_data.push_back(payload),
                other => return Err(WireViolation::UnknownLane(other).into()),
            }
        }
    }
}

/// Slices one gathered write carries; a frame of more parts than this
/// (none exists: the ORB sends three) takes a further write per group.
const MAX_IOV: usize = 8;

/// `write_all` for a gather list: `writev` until every slice is out.
fn write_all_vectored(stream: &mut TcpStream, mut bufs: &mut [IoSlice<'_>]) -> TResult<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(TransportError::Closed),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

impl Connection for TcpConn {
    fn send_control_vectored(&mut self, parts: &[&[u8]]) -> TResult<()> {
        self.stats.add(TransportField::ControlSent, 1);
        self.write_frame(LANE_CONTROL, parts)
    }

    fn recv_control(&mut self) -> TResult<ZcBytes> {
        let z = self.next_on_lane(LANE_CONTROL)?;
        self.stats.add(TransportField::ControlRecv, 1);
        self.stats.add(TransportField::BytesRecv, z.len() as u64);
        Ok(z)
    }

    fn send_data(&mut self, block: &ZcBytes) -> TResult<()> {
        self.stats.add(TransportField::DataBlocksSent, 1);
        self.write_frame(LANE_DATA, &[block.as_slice()])
    }

    fn recv_data(&mut self, expected_len: usize) -> TResult<ZcBytes> {
        let z = self.next_on_lane(LANE_DATA)?;
        if z.len() != expected_len {
            return Err(WireViolation::BlockLenMismatch {
                announced: expected_len,
                got: z.len(),
            }
            .into());
        }
        self.stats.add(TransportField::DataBlocksRecv, 1);
        self.stats.add(TransportField::BytesRecv, z.len() as u64);
        // A TCP data block always arrives as one frame, unstamped.
        self.ctx.telemetry.note_data_block(1, 0);
        Ok(z)
    }

    fn is_zero_copy(&self) -> bool {
        false
    }

    fn stats(&self) -> ConnStats {
        self.stats.snapshot()
    }

    fn peer(&self) -> &str {
        &self.peer
    }

    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> TResult<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn trace_conn_id(&self) -> u64 {
        self.trace_conn
    }
}

/// A bound TCP listener.
pub struct TcpTransportListener {
    listener: TcpListener,
    ctx: TransportCtx,
    port: u16,
}

impl TcpTransportListener {
    /// Bind on 127.0.0.1. `port == 0` picks an ephemeral port.
    pub fn bind(port: u16, ctx: TransportCtx) -> TResult<TcpTransportListener> {
        let listener = TcpListener::bind(("127.0.0.1", port)).map_err(|e| match e.kind() {
            std::io::ErrorKind::AddrInUse => TransportError::AddrInUse(port),
            _ => e.into(),
        })?;
        let port = listener.local_addr()?.port();
        Ok(TcpTransportListener {
            listener,
            ctx,
            port,
        })
    }
}

impl Acceptor for TcpTransportListener {
    fn accept(&self) -> TResult<Box<dyn Connection>> {
        let (stream, _) = self.listener.accept()?;
        // zc-audit: allow(cheap-clone) — TransportCtx is a trio of Arc handles (meter + pool + telemetry)
        Ok(Box::new(TcpConn::new(stream, self.ctx.clone())?))
    }

    fn endpoint(&self) -> (String, u16) {
        ("127.0.0.1".to_string(), self.port)
    }
}

/// Connector for outbound TCP connections.
pub struct TcpConnector {
    /// Context (meter + pool) installed into every connection.
    pub ctx: TransportCtx,
}

impl Connector for TcpConnector {
    fn connect(&self, host: &str, port: u16) -> TResult<Box<dyn Connection>> {
        let stream = TcpStream::connect((host, port)).map_err(|e| match e.kind() {
            std::io::ErrorKind::ConnectionRefused => TransportError::ConnectionRefused(port),
            _ => e.into(),
        })?;
        // zc-audit: allow(cheap-clone) — TransportCtx is a trio of Arc handles (meter + pool + telemetry)
        Ok(Box::new(TcpConn::new(stream, self.ctx.clone())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Box<dyn Connection>, Box<dyn Connection>, TransportCtx) {
        let ctx = TransportCtx::new();
        let listener = TcpTransportListener::bind(0, ctx.clone()).unwrap();
        let (host, port) = listener.endpoint();
        let handle = std::thread::spawn(move || listener.accept().unwrap());
        let client = TcpConnector { ctx: ctx.clone() }
            .connect(&host, port)
            .unwrap();
        let server = handle.join().unwrap();
        (client, server, ctx)
    }

    #[test]
    fn control_roundtrip() {
        let (mut c, mut s, _ctx) = pair();
        c.send_control(b"over real tcp").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"over real tcp"[..]);
        s.send_control(b"reply").unwrap();
        assert_eq!(c.recv_control().unwrap(), &b"reply"[..]);
    }

    #[test]
    fn control_message_is_gathered_from_its_parts() {
        let (mut c, mut s, ctx) = pair();
        // More parts than one gathered write carries, some of them empty.
        let parts: Vec<Vec<u8>> = (0..2 * MAX_IOV + 1)
            .map(|i| vec![i as u8; if i % 3 == 0 { 0 } else { 100 * i }])
            .collect();
        let views: Vec<&[u8]> = parts.iter().map(|p| &p[..]).collect();
        let before = ctx.meter.snapshot();
        c.send_control_vectored(&views).unwrap();
        assert_eq!(s.recv_control().unwrap().as_slice(), &parts.concat()[..]);
        let d = ctx.meter.snapshot().since(&before);
        assert_eq!(d.bytes(CopyLayer::SocketSend), parts.concat().len() as u64);
        assert_eq!(c.stats().frames_sent, 1);
    }

    #[test]
    fn data_roundtrip_with_metered_crossings() {
        let (mut c, mut s, ctx) = pair();
        let n = 256 * 1024;
        let pattern: Vec<u8> = (0..n).map(|i| (i % 253) as u8).collect();
        let block = {
            let mut b = zc_buffers::AlignedBuf::with_capacity(n);
            b.extend_from_slice(&pattern);
            ZcBytes::from_aligned(b)
        };
        let before = ctx.meter.snapshot();
        c.send_data(&block).unwrap();
        let got = s.recv_data(n).unwrap();
        assert_eq!(got.as_slice(), &pattern[..]);
        assert!(got.is_page_aligned(), "deposit target is page aligned");
        let d = ctx.meter.snapshot().since(&before);
        assert_eq!(d.bytes(CopyLayer::SocketSend), n as u64);
        assert_eq!(d.bytes(CopyLayer::SocketRecv), n as u64);
    }

    #[test]
    fn interleaved_lanes_buffer_correctly() {
        let (mut c, mut s, _ctx) = pair();
        c.send_data(&ZcBytes::zeroed(5000)).unwrap();
        c.send_control(b"ctrl").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"ctrl"[..]);
        assert_eq!(s.recv_data(5000).unwrap().len(), 5000);
    }

    #[test]
    fn a_lane_parks_at_most_one_frame_cap_while_the_other_is_awaited() {
        let listener = TcpTransportListener::bind(0, TransportCtx::new()).unwrap();
        let port = listener.endpoint().1;
        // A hostile peer streams data frames at a receiver awaiting control.
        let peer = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(("127.0.0.1", port)).unwrap();
            let block = vec![7u8; 1 << 20];
            let mut header = [LANE_DATA; 9];
            header[1..].copy_from_slice(&(block.len() as u64).to_le_bytes());
            for _ in 0..65 {
                // The receiver may hang up before the last frame is out.
                if raw
                    .write_all(&header)
                    .and_then(|()| raw.write_all(&block))
                    .is_err()
                {
                    break;
                }
            }
        });
        let mut conn = listener.accept().unwrap();
        let err = conn.recv_control().unwrap_err();
        let backlog = WireViolation::LaneBacklog {
            parked: 65 << 20,
            cap: MAX_TCP_FRAME,
        };
        assert_eq!(err, TransportError::Protocol(backlog));
        drop(conn);
        peer.join().unwrap();
    }

    #[test]
    fn length_mismatch_rejected() {
        let (mut c, mut s, _ctx) = pair();
        c.send_data(&ZcBytes::zeroed(10)).unwrap();
        assert!(matches!(s.recv_data(11), Err(TransportError::Protocol(_))));
    }

    #[test]
    fn close_detected() {
        let (c, mut s, _ctx) = pair();
        drop(c);
        assert_eq!(s.recv_control().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn connection_refused() {
        // Bind and immediately drop to get a (very likely) dead port.
        let dead_port = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap().port()
        };
        let r = TcpConnector {
            ctx: TransportCtx::new(),
        }
        .connect("127.0.0.1", dead_port);
        assert!(matches!(r, Err(TransportError::ConnectionRefused(_))));
    }

    #[test]
    fn empty_payloads() {
        let (mut c, mut s, _ctx) = pair();
        c.send_control(b"").unwrap();
        c.send_data(&ZcBytes::empty()).unwrap();
        assert_eq!(s.recv_control().unwrap(), &b""[..]);
        assert_eq!(s.recv_data(0).unwrap().len(), 0);
    }
}
