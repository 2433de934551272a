//! Test support shared by the facade's integration tests.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use communix::net::{deframe, frame_reply_into, frame_request_into, Reply, Request};
use communix::server::CommunixServer;

/// An in-process connector to `server` whose requests and replies cross
/// the codec as they would cross a socket: each is encoded, framed,
/// deframed and decoded. A window the server hands over as shared
/// handles (`Reply::SharedDelta`) is therefore really encoded, and a
/// reply no client could read fails here as it would over TCP.
pub fn framed(server: &Arc<CommunixServer>) -> impl FnMut(Request) -> Result<Reply, String> {
    let server = server.clone();
    let mut wire = BytesMut::new();
    move |request| {
        frame_request_into(&request, &mut wire);
        let request = Request::decode(unframe(&mut wire)?).map_err(|e| e.to_string())?;
        frame_reply_into(&server.handle(request), &mut wire);
        Reply::decode(unframe(&mut wire)?).map_err(|e| e.to_string())
    }
}

/// The whole frame at the front of `wire`, as a reader deframes it.
fn unframe(wire: &mut BytesMut) -> Result<Bytes, String> {
    let payload = deframe(wire).map_err(|e| e.to_string())?;
    payload.ok_or_else(|| "a frame arrived short".to_string())
}
