//! Test support: a scripted byte stream standing in for a socket in the
//! state-machine tests of both ends of a connection, and a lock-step
//! client over a real one.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;

use bytes::BytesMut;

use crate::codec::{deframe, frame_request_into, Reply, Request};

/// Sends `req` on `stream` and blocks for its one reply.
pub(crate) fn call(stream: &mut TcpStream, req: &Request) -> io::Result<Reply> {
    let mut wire = BytesMut::new();
    frame_request_into(req, &mut wire);
    stream.write_all(&wire)?;
    let (mut inbuf, mut chunk) = (BytesMut::new(), [0u8; 16 * 1024]);
    loop {
        if let Some(payload) = deframe(&mut inbuf).map_err(io::Error::other)? {
            return Reply::decode(payload).map_err(io::Error::other);
        }
        match stream.read(&mut chunk)? {
            0 => return Err(ErrorKind::UnexpectedEof.into()),
            n => inbuf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Each `read` serves the next scripted slice (as much of it as the
/// reader has room for) and then `WouldBlock`; every `write` is accepted
/// whole and kept.
pub(crate) struct Scripted {
    reads: VecDeque<Vec<u8>>,
    pub(crate) written: Vec<u8>,
}

impl Scripted {
    pub(crate) fn new(reads: impl IntoIterator<Item = Vec<u8>>) -> Scripted {
        Scripted {
            reads: reads.into_iter().collect(),
            written: Vec::new(),
        }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(mut next) = self.reads.pop_front() else {
            return Err(ErrorKind::WouldBlock.into());
        };
        if next.len() > buf.len() {
            self.reads.push_front(next.split_off(buf.len()));
        }
        buf[..next.len()].copy_from_slice(&next);
        Ok(next.len())
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `wire` cut into reads of 1..=7 bytes.
pub(crate) fn trickle(wire: &[u8]) -> Vec<Vec<u8>> {
    let mut reads = Vec::new();
    let (mut rest, mut step) = (wire, 0);
    while !rest.is_empty() {
        step = step % 7 + 1;
        let (head, tail) = rest.split_at(step.min(rest.len()));
        reads.push(head.to_vec());
        rest = tail;
    }
    reads
}
