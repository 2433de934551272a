//! The client side of the event-driven transport: a nonblocking,
//! framed connection for pipelined clients.
//!
//! A client that waits for each reply before sending the next request
//! caps per-connection throughput at `1 / RTT`. A
//! [`NonblockingClient`] decouples the two directions — requests queue
//! into a reusable write buffer ([`NonblockingClient::queue`]) and
//! replies surface as they arrive ([`NonblockingClient::try_recv`]) —
//! which is exactly the substrate a pipelined engine needs to keep a
//! window of requests in flight. Request/reply *matching* is the
//! caller's job (the protocol is FIFO: reply *n* answers request *n*);
//! `communix-client`'s `PipelinedClient` builds that on top.
//!
//! Mirrors the server's per-connection state machine in
//! [`crate::reactor`]: framed reassembly of partial reads, short-write
//! resumption, buffers that give a drained large allocation back, and
//! a readiness poller (the same vendored [`polling`] backend) for
//! blocking waits. Encoding goes through the codec's
//! `*_into` path, so a burst of queued requests performs zero per-frame
//! allocations.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

use bytes::{Buf, BytesMut};
use polling::{Events, Poller};

use crate::codec::{frame_len, frame_request_into, give_back, Reply, Request};
use crate::tcp::ClientError;

/// Poller key of the connection's single descriptor.
const KEY: usize = 0;

/// Minimum room offered to a socket read while no frame header is in.
/// Not a copy granularity: reads land in the receive buffer, which is
/// sized to the frame being received once its header is.
const CHUNK: usize = 16 * 1024;

/// A nonblocking framed connection to a Communix server, for clients
/// that keep several requests in flight on one socket.
///
/// All methods are non-blocking except [`NonblockingClient::wait`],
/// which parks on the readiness poller until the socket can make
/// progress (readable always; writable while queued bytes remain).
///
/// The socket runs with `TCP_NODELAY` set — a pipelined window of small
/// frames must leave immediately, not sit in Nagle's buffer waiting for
/// the previous frame's ACK.
#[derive(Debug)]
pub struct NonblockingClient {
    stream: TcpStream,
    poller: Poller,
    events: Events,
    inbuf: BytesMut,
    out: BytesMut,
    want_write: bool,
    eof: bool,
}

impl NonblockingClient {
    /// Connects (blocking), then switches the socket to nonblocking
    /// mode with `TCP_NODELAY` set and registers it with a fresh
    /// readiness poller.
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-setup failures.
    pub fn connect(addr: SocketAddr) -> io::Result<NonblockingClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(stream.as_raw_fd(), KEY, true, false)?;
        Ok(NonblockingClient {
            stream,
            poller,
            events: Events::new(),
            // Allocated by the first read, which makes `CHUNK` of room.
            inbuf: BytesMut::new(),
            out: BytesMut::with_capacity(8 * 1024),
            want_write: false,
            eof: false,
        })
    }

    /// Whether `TCP_NODELAY` is set on the underlying socket (always,
    /// for a connected client; exposed so transport tests can assert
    /// the invariant).
    ///
    /// # Errors
    ///
    /// Propagates the socket option read failure.
    pub fn nodelay(&self) -> io::Result<bool> {
        self.stream.nodelay()
    }

    /// Appends `request`, framed, to the write buffer. Nothing touches
    /// the socket until [`NonblockingClient::flush`]. Allocation-free
    /// once the buffer has grown to the burst's working size, while that
    /// stays within the 64 KiB a drained buffer keeps.
    pub fn queue(&mut self, request: &Request) {
        frame_request_into(request, &mut self.out);
    }

    /// Writes queued bytes until done or the kernel would block.
    /// Returns `true` when the write buffer fully drained; a drained
    /// buffer gives a large allocation back.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on socket failures.
    pub fn flush(&mut self) -> Result<bool, ClientError> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => self.out.advance(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        give_back(&mut self.out);
        Ok(self.out.is_empty())
    }

    /// Returns the next complete reply, if one is available: reads the
    /// socket's readable bytes straight into the reassembly buffer and
    /// decodes at most one frame out of it. `Ok(None)` means no complete
    /// frame yet.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on socket failures, malformed replies,
    /// or a server that disconnected with no complete frame pending.
    pub fn try_recv(&mut self) -> Result<Option<Reply>, ClientError> {
        recv_reply(&mut self.inbuf, &mut self.eof, &mut self.stream)
    }

    /// Blocks until the socket is ready to make progress or `timeout`
    /// elapses (`None` waits forever): readable always counts; writable
    /// counts while queued bytes remain. Returns whether any readiness
    /// arrived (`false` means the wait timed out).
    ///
    /// # Errors
    ///
    /// Propagates poller failures.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<bool> {
        let want_write = !self.out.is_empty();
        if want_write != self.want_write {
            self.poller
                .modify(self.stream.as_raw_fd(), KEY, true, want_write)?;
            self.want_write = want_write;
        }
        Ok(self.poller.wait(&mut self.events, timeout)? > 0)
    }
}

/// The receive half of the connection's state machine, over any byte
/// source: decodes the frame at the front of `inbuf` where it lies, or
/// reads more of it in place. Once the header is in, the buffer is sized
/// for the whole frame (the header was bounded by `MAX_FRAME`, and this
/// client chose its server) and each read asks for all that is missing;
/// a large buffer is given back once its last frame is decoded.
pub(crate) fn recv_reply(
    inbuf: &mut BytesMut,
    eof: &mut bool,
    src: &mut impl Read,
) -> Result<Option<Reply>, ClientError> {
    loop {
        let min_room = match frame_len(inbuf)? {
            Some(len) if inbuf.len() >= 4 + len => {
                let reply = Reply::decode_from(&inbuf[4..4 + len]);
                inbuf.advance(4 + len);
                give_back(inbuf);
                return Ok(Some(reply?));
            }
            Some(len) => 4 + len - inbuf.len(),
            None => CHUNK,
        };
        if *eof {
            return Err(ClientError::Disconnected);
        }
        match inbuf.read_from(src, min_room) {
            Ok(0) => *eof = true,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

impl Drop for NonblockingClient {
    fn drop(&mut self) {
        let _ = self.poller.delete(self.stream.as_raw_fd());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    use crate::tcp::{Handler, TcpServer};
    use crate::test_io::{trickle, Scripted};

    fn echo_server() -> TcpServer {
        let handler: Handler = Arc::new(|req| match req {
            Request::IssueId { user } => Reply::Id {
                id: [(user & 0xff) as u8; 16],
            },
            Request::Get { from } => Reply::Sigs {
                from,
                sigs: Vec::new(),
            },
            other => Reply::Error {
                message: format!("unexpected {other:?}"),
            },
        });
        TcpServer::bind("127.0.0.1:0", handler).expect("bind")
    }

    fn drive_until_reply(conn: &mut NonblockingClient) -> Reply {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            conn.flush().expect("flush");
            if let Some(reply) = conn.try_recv().expect("recv") {
                return reply;
            }
            assert!(Instant::now() < deadline, "no reply within 10s");
            conn.wait(Some(Duration::from_millis(50))).expect("wait");
        }
    }

    #[test]
    fn queued_burst_answers_in_fifo_order() {
        let server = echo_server();
        let mut conn = NonblockingClient::connect(server.addr()).unwrap();
        for user in 0..32u64 {
            conn.queue(&Request::IssueId { user });
        }
        for user in 0..32u64 {
            let reply = drive_until_reply(&mut conn);
            assert_eq!(
                reply,
                Reply::Id {
                    id: [(user & 0xff) as u8; 16]
                },
                "reply order must match request order"
            );
        }
    }

    #[test]
    fn nodelay_is_set() {
        let server = echo_server();
        let conn = NonblockingClient::connect(server.addr()).unwrap();
        assert!(conn.nodelay().unwrap());
    }

    #[test]
    fn try_recv_without_traffic_is_none() {
        let server = echo_server();
        let mut conn = NonblockingClient::connect(server.addr()).unwrap();
        assert!(conn.try_recv().unwrap().is_none());
    }

    #[test]
    fn server_disconnect_surfaces_as_error() {
        let mut server = echo_server();
        let mut conn = NonblockingClient::connect(server.addr()).unwrap();
        conn.queue(&Request::IssueId { user: 1 });
        let _ = drive_until_reply(&mut conn);
        server.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match conn.try_recv() {
                Err(_) => break,
                Ok(_) => {
                    assert!(Instant::now() < deadline, "no disconnect within 10s");
                    let _ = conn.wait(Some(Duration::from_millis(50)));
                }
            }
        }
    }

    /// Every reply `recv_reply` yields from `reads`, until it would block.
    fn recv_all(reads: Vec<Vec<u8>>) -> Vec<Reply> {
        let mut src = Scripted::new(reads);
        let (mut inbuf, mut eof) = (BytesMut::new(), false);
        let mut replies = Vec::new();
        while let Some(reply) = recv_reply(&mut inbuf, &mut eof, &mut src).expect("receive") {
            replies.push(reply);
        }
        assert!(inbuf.is_empty(), "whole frames only");
        replies
    }

    #[test]
    fn fragmented_reads_yield_the_same_replies_in_order() {
        let replies = vec![
            Reply::Id { id: [1u8; 16] },
            Reply::Delta {
                from: 0,
                total: 3,
                sigs: vec!["a".repeat(300), String::new(), "c".repeat(40_000)],
            },
            Reply::AddAck {
                accepted: false,
                reason: "adjacent".into(),
            },
            Reply::Sigs {
                from: 7,
                sigs: vec!["s".repeat(90)],
            },
        ];
        let mut wire = BytesMut::new();
        for r in &replies {
            crate::codec::frame_reply_into(r, &mut wire);
        }
        assert_eq!(recv_all(vec![wire.to_vec()]), replies);

        // 1..=7 bytes a read.
        assert_eq!(recv_all(trickle(&wire)), replies);

        // Three frames and a half in one read, the remainder in the next.
        let mut fourth = BytesMut::new();
        crate::codec::frame_reply_into(&replies[3], &mut fourth);
        let cut = wire.len() - fourth.len() / 2;
        let split = vec![wire[..cut].to_vec(), wire[cut..].to_vec()];
        assert_eq!(recv_all(split), replies);
    }

    #[test]
    fn receive_buffer_is_sized_from_the_header_once() {
        // A 1 MB frame arriving in 16 KB reads: the buffer is sized when
        // the header is in, not regrown as the payload trickles.
        let reply = Reply::Stats {
            json: "j".repeat(1 << 20),
        };
        let mut wire = BytesMut::new();
        crate::codec::frame_reply_into(&reply, &mut wire);
        let (head, last) = wire.split_at(wire.len() - CHUNK);
        let mut src = Scripted::new(head.chunks(CHUNK).map(<[u8]>::to_vec));
        let (mut inbuf, mut eof) = (BytesMut::new(), false);
        assert_eq!(recv_reply(&mut inbuf, &mut eof, &mut src).unwrap(), None);
        assert!(inbuf.capacity() >= wire.len());
        assert!(
            inbuf.capacity() < wire.len() + 2 * CHUNK,
            "sized to the frame, not doubled past it: {}",
            inbuf.capacity()
        );
        let mut src = Scripted::new([last.to_vec()]);
        let got = recv_reply(&mut inbuf, &mut eof, &mut src).unwrap();
        assert_eq!(got, Some(reply));
    }

    #[test]
    fn a_drained_write_buffer_gives_its_allocation_back() {
        // A 4 MB ADD_BATCH upload, flushed to a peer that reads it whole:
        // the connection then keeps no more than an idle buffer.
        use crate::codec::{BatchAdd, IDLE_CAPACITY};
        use std::net::TcpListener;

        let adds = (0..64u8)
            .map(|i| BatchAdd {
                sender: [i; 16],
                sig_text: "b".repeat(64 * 1024),
            })
            .collect();
        let batch = Request::AddBatch { adds };
        let frame = 4 + batch.encode().len();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut got = vec![0u8; frame];
            sock.read_exact(&mut got).expect("the whole frame");
        });
        let mut conn = NonblockingClient::connect(addr).unwrap();
        conn.queue(&batch);
        assert!(conn.out.capacity() > IDLE_CAPACITY);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !conn.flush().expect("flush") {
            assert!(Instant::now() < deadline, "not flushed within 10s");
            conn.wait(Some(Duration::from_millis(50))).expect("wait");
        }
        peer.join().expect("peer");
        assert!(
            conn.out.capacity() <= IDLE_CAPACITY,
            "a drained client connection keeps {} bytes of write buffer",
            conn.out.capacity()
        );
    }
}
