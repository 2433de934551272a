//! Test support: a lock-step client over a plain socket.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;

use bytes::BytesMut;
use communix_net::{deframe, frame_request_into, Reply, Request};

/// Sends `req` on `stream` and blocks for its one reply.
pub fn call(stream: &mut TcpStream, req: &Request) -> io::Result<Reply> {
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
