//! The Communix wire protocol.
//!
//! The server "processes two types of requests: an ADD(sig) request that
//! means 'add signature sig to the database', and a GET(k) request that
//! means 'send me the signatures from the database starting from index k'"
//! (§IV-A). ADD requests carry the sender's encrypted id (§III-C2). We add
//! an ISSUE_ID request standing in for the id-issuance service the paper
//! assumes but does not implement.
//!
//! Beyond the paper, the protocol carries two batched message pairs so a
//! client syncs in one round trip instead of one per signature:
//!
//! * `ADD_BATCH(adds)` → `BATCH_ACK(results)` — many ADDs in one frame,
//!   each with its own sender id and its own accept/reject verdict (one
//!   forged id inside a batch rejects that item only, never the batch).
//! * `GET_DELTA(from, max)` → `DELTA(from, total, sigs)` — an incremental
//!   GET with *server-side windowing*: the reply carries at most `max`
//!   signatures (the server also applies its own cap) plus the current
//!   database `total`, so the client knows whether another window remains.
//!
//! The original single-signature messages are unchanged; old clients keep
//! working against a batching server and vice versa.
//!
//! A third addition makes a live server observable: `STATS` (tag 0x06)
//! asks for the server's telemetry snapshot, answered by a reply (tag
//! 0x86) carrying the snapshot as a JSON string — counters, connection
//! gauges with peaks, and per-opcode latency histograms.
//!
//! Framing: every message is a 4-byte big-endian length followed by the
//! payload. Payloads start with a tag byte.
//!
//! # One copy each way
//!
//! A frame's bytes are written once by user-space code on the way in and
//! once on the way out, whatever the frame's size:
//!
//! * **in** — the transports read from the socket straight into the
//!   connection's receive buffer ([`BytesMut::read_from`]), peek the header
//!   with [`frame_len`], decode out of `inbuf[4..4 + len]` with
//!   [`Request::decode_from`]/[`Reply::decode_from`] — the one copy, from
//!   the buffer into the message's owned fields — and then advance past
//!   the frame. Nothing is split off or staged in between.
//! * **out** — [`frame_request_into`]/[`frame_reply_into`] append header
//!   and payload to the connection's reusable write buffer, copying each
//!   field from where it lives (for [`Reply::SharedDelta`], the server's
//!   stored text) and reserving a signature list's size once.
//!
//! [`Request::encode`]/[`Reply::encode`]/[`frame`] allocate a buffer per
//! message and [`deframe`] copies the payload out into an owned [`Bytes`]
//! (which `decode` then copies from again); they are for one-shot callers.

use std::fmt;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum accepted frame length (defensive bound; a signature is ~2 KB,
/// but GET replies batch many signatures).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// The payload bytes one `SIGS`/`DELTA` reply window holds: the server
/// closes a window at the last signature within it (a lone signature
/// may exceed it), and a server connection with this much of its
/// replies queued stops reading.
pub const REPLY_BUDGET: usize = 1 << 20;

/// The longest signature text a server accepts (§III-C): ≈ 21× the
/// largest any workload, detection or Table II attack in this repository
/// produces (3,074 B; a generated signature averages 1,745 B).
pub const MAX_SIG_BYTES: usize = 64 * 1024;

/// Most capacity a drained connection buffer keeps.
pub(crate) const IDLE_CAPACITY: usize = 64 * 1024;

/// Gives `buf`'s allocation back when it has drained above
/// [`IDLE_CAPACITY`], so an idle connection does not keep its largest frame.
pub(crate) fn give_back(buf: &mut BytesMut) {
    if buf.is_empty() && buf.capacity() > IDLE_CAPACITY {
        *buf = BytesMut::new();
    }
}

/// An encrypted user id: one AES-128 block (§III-C2).
pub type EncryptedId = [u8; 16];

/// A client→server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Add a signature (serialized in its text form) to the database.
    Add {
        /// The sender's encrypted id.
        sender: EncryptedId,
        /// Signature text (`sig … end`).
        sig_text: String,
    },
    /// Send the signatures starting from index `from`.
    Get {
        /// First index wanted (a client with n local signatures sends
        /// GET(n) — incremental download, §III-B).
        from: u64,
    },
    /// Mint an encrypted id for `user` (stand-in for the paper's assumed
    /// id-issuance service).
    IssueId {
        /// Plain user number to encrypt.
        user: u64,
    },
    /// Add many signatures in one round trip. Answered by
    /// [`Reply::BatchAck`] with one [`AddResult`] per item, in order.
    AddBatch {
        /// The batched ADDs, each with its own sender id.
        adds: Vec<BatchAdd>,
    },
    /// Incremental download with server-side windowing. Answered by
    /// [`Reply::Delta`].
    GetDelta {
        /// First index wanted (the client sends its local length).
        from: u64,
        /// Client-side cap on signatures per reply; `0` defers entirely
        /// to the server's window.
        max: u32,
    },
    /// Ask the server for its telemetry snapshot. Answered by
    /// [`Reply::Stats`] carrying the snapshot as JSON.
    Stats,
}

/// One item of an [`Request::AddBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAdd {
    /// The sender's encrypted id.
    pub sender: EncryptedId,
    /// Signature text (`sig … end`).
    pub sig_text: String,
}

/// The server's verdict on one batched ADD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddResult {
    /// Whether the signature was accepted into the database.
    pub accepted: bool,
    /// Human-readable rejection reason (empty when accepted).
    pub reason: String,
}

/// A server→client reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Outcome of an ADD.
    AddAck {
        /// Whether the signature was accepted into the database.
        accepted: bool,
        /// Human-readable rejection reason (empty when accepted).
        reason: String,
    },
    /// Signatures from index `from` onwards, in text form.
    Sigs {
        /// Index of the first signature in `sigs`.
        from: u64,
        /// Signature texts.
        sigs: Vec<String>,
    },
    /// A freshly minted encrypted id.
    Id {
        /// The AES-encrypted id block.
        id: EncryptedId,
    },
    /// Protocol-level failure.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Per-item outcomes of an [`Request::AddBatch`], in request order.
    BatchAck {
        /// One verdict per batched ADD.
        results: Vec<AddResult>,
    },
    /// One window of an incremental download ([`Request::GetDelta`]).
    Delta {
        /// Index of the first signature in `sigs`.
        from: u64,
        /// Total signatures the server holds; `from + sigs.len() < total`
        /// means another window remains.
        total: u64,
        /// Signature texts (at most the effective window size).
        sigs: Vec<String>,
    },
    /// [`Reply::Delta`] over texts the sender shares rather than owns:
    /// what a server that stores each text once hands the transport, which
    /// encodes straight from the shared text. Encode-only — on the wire it
    /// *is* a `Delta` (same tag, same bytes), so decoding never yields it;
    /// an in-process receiver gets the decoded form from
    /// [`Reply::into_owned`].
    SharedDelta {
        /// Index of the first signature in `sigs`.
        from: u64,
        /// Total signatures the server holds.
        total: u64,
        /// Signature texts (at most the effective window size).
        sigs: Vec<Arc<str>>,
    },
    /// The server's telemetry snapshot ([`Request::Stats`]).
    Stats {
        /// The snapshot rendered as JSON (counters, gauges with peaks,
        /// and latency histograms with p50/p90/p99/max in µs) — the
        /// output of the telemetry crate's JSON exporter.
        json: String,
    },
}

const TAG_ADD: u8 = 0x01;
const TAG_GET: u8 = 0x02;
const TAG_ISSUE_ID: u8 = 0x03;
const TAG_ADD_BATCH: u8 = 0x04;
const TAG_GET_DELTA: u8 = 0x05;
const TAG_STATS: u8 = 0x06;
const TAG_ADD_ACK: u8 = 0x81;
const TAG_SIGS: u8 = 0x82;
const TAG_ID: u8 = 0x83;
const TAG_BATCH_ACK: u8 = 0x84;
const TAG_DELTA: u8 = 0x85;
const TAG_STATS_REPLY: u8 = 0x86;
const TAG_ERROR: u8 = 0xFF;

/// Codec error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Frame shorter than its header claims, or truncated field.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Frame length exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated frame"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            CodecError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            CodecError::BadUtf8 => f.write_str("invalid utf-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Appends a signature list: its count, then each text, after reserving
/// the whole list's size once.
fn put_sigs<S: AsRef<str>>(buf: &mut BytesMut, sigs: &[S]) {
    buf.reserve(4 + sigs.iter().map(|s| 4 + s.as_ref().len()).sum::<usize>());
    buf.put_u32(sigs.len() as u32);
    for s in sigs {
        put_string(buf, s.as_ref());
    }
}

/// A read cursor over a borrowed payload: every getter checks what is
/// left and fails with [`CodecError::Truncated`] instead of panicking.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.0.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_be_bytes)
    }

    /// An element count, refused above `limit` before anything is sized
    /// by it.
    fn count(&mut self, limit: usize) -> Result<usize, CodecError> {
        let count = self.u32()? as usize;
        if count > limit {
            return Err(CodecError::TooLarge(count));
        }
        Ok(count)
    }

    /// A length-prefixed string: validated in place, copied exactly once.
    fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| CodecError::BadUtf8)
    }

    fn strings(&mut self, limit: usize) -> Result<Vec<String>, CodecError> {
        let count = self.count(limit)?;
        let mut out = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            out.push(self.string()?);
        }
        Ok(out)
    }
}

impl Request {
    /// Short stable name of this request's opcode, used to key
    /// per-opcode telemetry series (`server.latency.<opcode>`).
    pub fn opcode(&self) -> &'static str {
        match self {
            Request::Add { .. } => "add",
            Request::Get { .. } => "get",
            Request::IssueId { .. } => "issue_id",
            Request::AddBatch { .. } => "add_batch",
            Request::GetDelta { .. } => "get_delta",
            Request::Stats => "stats",
        }
    }

    /// Serializes the request payload (no frame header).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the request payload (no frame header) to `buf` without
    /// allocating a fresh buffer — the reusable-buffer counterpart of
    /// [`Request::encode`] for callers that reuse a write buffer.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Request::Add { sender, sig_text } => {
                buf.put_u8(TAG_ADD);
                buf.put_slice(sender);
                put_string(buf, sig_text);
            }
            Request::Get { from } => {
                buf.put_u8(TAG_GET);
                buf.put_u64(*from);
            }
            Request::IssueId { user } => {
                buf.put_u8(TAG_ISSUE_ID);
                buf.put_u64(*user);
            }
            Request::AddBatch { adds } => {
                buf.put_u8(TAG_ADD_BATCH);
                buf.put_u32(adds.len() as u32);
                for add in adds {
                    buf.put_slice(&add.sender);
                    put_string(buf, &add.sig_text);
                }
            }
            Request::GetDelta { from, max } => {
                buf.put_u8(TAG_GET_DELTA);
                buf.put_u64(*from);
                buf.put_u32(*max);
            }
            Request::Stats => {
                buf.put_u8(TAG_STATS);
            }
        }
    }

    /// Parses a request payload held in a [`Bytes`]; see
    /// [`Request::decode_from`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input.
    pub fn decode(payload: Bytes) -> Result<Self, CodecError> {
        Request::decode_from(&payload)
    }

    /// Parses a request payload where it lies, copying only into the
    /// request's own fields.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input.
    pub fn decode_from(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader(payload);
        match r.u8()? {
            TAG_ADD => Ok(Request::Add {
                sender: r.array()?,
                sig_text: r.string()?,
            }),
            TAG_GET => Ok(Request::Get { from: r.u64()? }),
            TAG_ISSUE_ID => Ok(Request::IssueId { user: r.u64()? }),
            TAG_ADD_BATCH => {
                let count = r.count(MAX_FRAME / 20)?;
                let mut adds = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    adds.push(BatchAdd {
                        sender: r.array()?,
                        sig_text: r.string()?,
                    });
                }
                Ok(Request::AddBatch { adds })
            }
            TAG_GET_DELTA => Ok(Request::GetDelta {
                from: r.u64()?,
                max: r.u32()?,
            }),
            TAG_STATS => Ok(Request::Stats),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

impl Reply {
    /// Serializes the reply payload (no frame header).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the reply payload (no frame header) to `buf` without
    /// allocating a fresh buffer — the reusable-buffer counterpart of
    /// [`Reply::encode`] for callers that reuse a write buffer.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Reply::AddAck { accepted, reason } => {
                buf.put_u8(TAG_ADD_ACK);
                buf.put_u8(u8::from(*accepted));
                put_string(buf, reason);
            }
            Reply::Sigs { from, sigs } => {
                buf.put_u8(TAG_SIGS);
                buf.put_u64(*from);
                put_sigs(buf, sigs);
            }
            Reply::Id { id } => {
                buf.put_u8(TAG_ID);
                buf.put_slice(id);
            }
            Reply::Error { message } => {
                buf.put_u8(TAG_ERROR);
                put_string(buf, message);
            }
            Reply::BatchAck { results } => {
                buf.put_u8(TAG_BATCH_ACK);
                buf.put_u32(results.len() as u32);
                for r in results {
                    buf.put_u8(u8::from(r.accepted));
                    put_string(buf, &r.reason);
                }
            }
            Reply::Delta { from, total, sigs } => {
                buf.put_u8(TAG_DELTA);
                buf.put_u64(*from);
                buf.put_u64(*total);
                put_sigs(buf, sigs);
            }
            Reply::SharedDelta { from, total, sigs } => {
                buf.put_u8(TAG_DELTA);
                buf.put_u64(*from);
                buf.put_u64(*total);
                put_sigs(buf, sigs);
            }
            Reply::Stats { json } => {
                buf.put_u8(TAG_STATS_REPLY);
                put_string(buf, json);
            }
        }
    }

    /// Parses a reply payload held in a [`Bytes`]; see
    /// [`Reply::decode_from`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input.
    pub fn decode(payload: Bytes) -> Result<Self, CodecError> {
        Reply::decode_from(&payload)
    }

    /// Parses a reply payload where it lies, copying only into the
    /// reply's own fields.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input.
    pub fn decode_from(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader(payload);
        match r.u8()? {
            TAG_ADD_ACK => Ok(Reply::AddAck {
                accepted: r.u8()? != 0,
                reason: r.string()?,
            }),
            TAG_SIGS => Ok(Reply::Sigs {
                from: r.u64()?,
                sigs: r.strings(MAX_FRAME / 4)?,
            }),
            TAG_ID => Ok(Reply::Id { id: r.array()? }),
            TAG_ERROR => Ok(Reply::Error {
                message: r.string()?,
            }),
            TAG_BATCH_ACK => {
                let count = r.count(MAX_FRAME / 5)?;
                let mut results = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    results.push(AddResult {
                        accepted: r.u8()? != 0,
                        reason: r.string()?,
                    });
                }
                Ok(Reply::BatchAck { results })
            }
            TAG_DELTA => Ok(Reply::Delta {
                from: r.u64()?,
                total: r.u64()?,
                sigs: r.strings(MAX_FRAME / 4)?,
            }),
            TAG_STATS_REPLY => Ok(Reply::Stats { json: r.string()? }),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// The reply as a receiver across the wire would decode it: a
    /// [`Reply::SharedDelta`] becomes the [`Reply::Delta`] owning copies of
    /// its texts, every other reply is returned as it is. For callers
    /// handed a server's reply in process.
    pub fn into_owned(self) -> Reply {
        match self {
            Reply::SharedDelta { from, total, sigs } => Reply::Delta {
                from,
                total,
                sigs: sigs.iter().map(|s| String::from(&**s)).collect(),
            },
            other => other,
        }
    }
}

/// Prepends the 4-byte length header to a payload.
pub fn frame(payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + 4);
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    buf.freeze()
}

/// Appends one framed message to `buf`: reserves the 4-byte header,
/// lets `encode` append the payload, then patches the length in. The
/// allocation-free core of [`frame_request_into`]/[`frame_reply_into`].
fn frame_into(buf: &mut BytesMut, encode: impl FnOnce(&mut BytesMut)) {
    let header = buf.len();
    buf.put_u32(0);
    encode(buf);
    let len = (buf.len() - header - 4) as u32;
    buf[header..header + 4].copy_from_slice(&len.to_be_bytes());
}

/// Appends `request`, fully framed (header + payload), to `buf` without
/// intermediate allocations. Byte-identical to
/// `frame(&request.encode())`.
pub fn frame_request_into(request: &Request, buf: &mut BytesMut) {
    frame_into(buf, |b| request.encode_into(b));
}

/// Appends `reply`, fully framed (header + payload), to `buf` without
/// intermediate allocations. Byte-identical to `frame(&reply.encode())`.
pub fn frame_reply_into(reply: &Reply, buf: &mut BytesMut) {
    frame_into(buf, |b| reply.encode_into(b));
}

/// Reads the length header at the front of `buf`: the payload length it
/// announces, or `None` while fewer than 4 bytes have arrived. The frame
/// is complete once `buf` holds `4 + len` bytes; its payload is
/// `buf[4..4 + len]`.
///
/// # Errors
///
/// Returns [`CodecError::TooLarge`] when the header announces a frame
/// beyond [`MAX_FRAME`] (the caller should drop the connection).
pub(crate) fn frame_len(buf: &[u8]) -> Result<Option<usize>, CodecError> {
    let Some(header) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*header) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::TooLarge(len));
    }
    Ok(Some(len))
}

/// Splits one frame off the front of `buf`, if complete. Returns a copy
/// of the payload.
///
/// # Errors
///
/// Returns [`CodecError::TooLarge`] when the header announces a frame
/// beyond [`MAX_FRAME`] (the caller should drop the connection).
pub fn deframe(buf: &mut BytesMut) -> Result<Option<Bytes>, CodecError> {
    match frame_len(buf)? {
        Some(len) if buf.len() >= 4 + len => {
            buf.advance(4);
            Ok(Some(buf.split_to_frozen(len)))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        assert_eq!(Request::decode(r.encode()).unwrap(), r);
    }

    fn roundtrip_reply(r: Reply) {
        assert_eq!(Reply::decode(r.encode()).unwrap(), r);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Add {
            sender: [7u8; 16],
            sig_text: "sig local\nouter a#b:1\ninner a#c:2\nend".into(),
        });
        roundtrip_req(Request::Get { from: 12345 });
        roundtrip_req(Request::IssueId { user: 42 });
    }

    #[test]
    fn batched_request_roundtrips() {
        roundtrip_req(Request::AddBatch {
            adds: vec![
                BatchAdd {
                    sender: [7u8; 16],
                    sig_text: "sig local\nouter a#b:1\ninner a#c:2\nend".into(),
                },
                BatchAdd {
                    sender: [9u8; 16],
                    sig_text: "sig remote\nouter d#e:3\ninner d#f:4\nend".into(),
                },
            ],
        });
        roundtrip_req(Request::AddBatch { adds: Vec::new() });
        roundtrip_req(Request::GetDelta { from: 77, max: 256 });
        roundtrip_req(Request::GetDelta { from: 0, max: 0 });
    }

    #[test]
    fn batched_reply_roundtrips() {
        roundtrip_reply(Reply::BatchAck {
            results: vec![
                AddResult {
                    accepted: true,
                    reason: String::new(),
                },
                AddResult {
                    accepted: false,
                    reason: "invalid encrypted sender id".into(),
                },
            ],
        });
        roundtrip_reply(Reply::BatchAck {
            results: Vec::new(),
        });
        roundtrip_reply(Reply::Delta {
            from: 5,
            total: 9,
            sigs: vec!["sig-a".into(), "sig-b".into()],
        });
        roundtrip_reply(Reply::Delta {
            from: 9,
            total: 9,
            sigs: Vec::new(),
        });
    }

    #[test]
    fn stats_roundtrips() {
        roundtrip_req(Request::Stats);
        roundtrip_reply(Reply::Stats {
            json: r#"{"counters":{"server.adds":3}}"#.into(),
        });
        roundtrip_reply(Reply::Stats {
            json: String::new(),
        });
    }

    #[test]
    fn truncated_stats_reply_rejected() {
        // STATS_REPLY announcing a longer snapshot than it carries.
        let mut buf = BytesMut::new();
        buf.put_u8(0x86);
        buf.put_u32(10);
        buf.put_slice(b"short");
        assert_eq!(Reply::decode(buf.freeze()), Err(CodecError::Truncated));
        // A bare STATS request carries no payload; like every other
        // message, trailing bytes after the last field are ignored.
        let mut buf = BytesMut::new();
        buf.put_u8(0x06);
        buf.put_u8(0xAA);
        assert_eq!(Request::decode(buf.freeze()), Ok(Request::Stats));
    }

    #[test]
    fn truncated_batched_payloads_rejected() {
        // AddBatch announcing one item but carrying no sender.
        let mut buf = BytesMut::new();
        buf.put_u8(0x04);
        buf.put_u32(1);
        assert_eq!(Request::decode(buf.freeze()), Err(CodecError::Truncated));
        // GetDelta missing its max field.
        let mut buf = BytesMut::new();
        buf.put_u8(0x05);
        buf.put_u64(3);
        assert_eq!(Request::decode(buf.freeze()), Err(CodecError::Truncated));
        // BatchAck announcing more results than it carries.
        let mut buf = BytesMut::new();
        buf.put_u8(0x84);
        buf.put_u32(2);
        buf.put_u8(1);
        buf.put_u32(0);
        assert_eq!(Reply::decode(buf.freeze()), Err(CodecError::Truncated));
        // Delta with a short header.
        let mut buf = BytesMut::new();
        buf.put_u8(0x85);
        buf.put_u64(0);
        assert_eq!(Reply::decode(buf.freeze()), Err(CodecError::Truncated));
    }

    #[test]
    fn absurd_batch_counts_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0x04);
        buf.put_u32(u32::MAX);
        assert!(matches!(
            Request::decode(buf.freeze()),
            Err(CodecError::TooLarge(_))
        ));
        let mut buf = BytesMut::new();
        buf.put_u8(0x84);
        buf.put_u32(u32::MAX);
        assert!(matches!(
            Reply::decode(buf.freeze()),
            Err(CodecError::TooLarge(_))
        ));
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip_reply(Reply::AddAck {
            accepted: true,
            reason: String::new(),
        });
        roundtrip_reply(Reply::AddAck {
            accepted: false,
            reason: "adjacent signature from same sender".into(),
        });
        roundtrip_reply(Reply::Sigs {
            from: 3,
            sigs: vec!["sig-a".into(), "sig-b".into()],
        });
        roundtrip_reply(Reply::Id { id: [9u8; 16] });
        roundtrip_reply(Reply::Error {
            message: "boom".into(),
        });
    }

    #[test]
    fn empty_sigs_reply() {
        roundtrip_reply(Reply::Sigs {
            from: 0,
            sigs: Vec::new(),
        });
    }

    #[test]
    fn frame_into_is_byte_identical_to_allocating_path() {
        let requests = [
            Request::Add {
                sender: [7u8; 16],
                sig_text: "sig local\nouter a#b:1\ninner a#c:2\nend".into(),
            },
            Request::Get { from: 12345 },
            Request::AddBatch {
                adds: vec![BatchAdd {
                    sender: [9u8; 16],
                    sig_text: "sig remote\nouter d#e:3\nend".into(),
                }],
            },
            Request::Stats,
        ];
        let mut buf = BytesMut::new();
        let mut reference = Vec::new();
        for req in &requests {
            frame_request_into(req, &mut buf);
            reference.extend_from_slice(&frame(&req.encode()));
        }
        assert_eq!(&buf[..], &reference[..]);

        let replies = [
            Reply::AddAck {
                accepted: false,
                reason: "duplicate".into(),
            },
            Reply::Delta {
                from: 3,
                total: 9,
                sigs: vec!["a".into(), "b".into()],
            },
            Reply::Error {
                message: "boom".into(),
            },
        ];
        let mut buf = BytesMut::new();
        let mut reference = Vec::new();
        for reply in &replies {
            frame_reply_into(reply, &mut buf);
            reference.extend_from_slice(&frame(&reply.encode()));
        }
        assert_eq!(&buf[..], &reference[..]);
    }

    #[test]
    fn frame_into_burst_deframes_in_order() {
        // A pipelined burst written through the reusable buffer splits
        // back into the same frames, in order.
        let mut buf = BytesMut::new();
        for i in 0..20u64 {
            frame_request_into(&Request::Get { from: i }, &mut buf);
        }
        for i in 0..20u64 {
            let payload = deframe(&mut buf).unwrap().expect("frame present");
            assert_eq!(Request::decode(payload).unwrap(), Request::Get { from: i });
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn framing_roundtrip() {
        let payload = Request::Get { from: 8 }.encode();
        let framed = frame(&payload);
        let mut buf = BytesMut::from(&framed[..]);
        let got = deframe(&mut buf).unwrap().unwrap();
        assert_eq!(got, payload);
        assert!(buf.is_empty());
    }

    #[test]
    fn deframe_handles_partial_input() {
        let payload = Request::Get { from: 8 }.encode();
        let framed = frame(&payload);
        let mut buf = BytesMut::from(&framed[..3]);
        assert_eq!(deframe(&mut buf).unwrap(), None);
        buf.extend_from_slice(&framed[3..framed.len() - 1]);
        assert_eq!(deframe(&mut buf).unwrap(), None);
        buf.extend_from_slice(&framed[framed.len() - 1..]);
        assert!(deframe(&mut buf).unwrap().is_some());
    }

    #[test]
    fn deframe_two_messages_in_one_buffer() {
        let a = frame(&Request::Get { from: 1 }.encode());
        let b = frame(&Request::Get { from: 2 }.encode());
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b);
        let p1 = deframe(&mut buf).unwrap().unwrap();
        let p2 = deframe(&mut buf).unwrap().unwrap();
        assert_eq!(Request::decode(p1).unwrap(), Request::Get { from: 1 });
        assert_eq!(Request::decode(p2).unwrap(), Request::Get { from: 2 });
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32((MAX_FRAME + 1) as u32);
        assert_eq!(deframe(&mut buf), Err(CodecError::TooLarge(MAX_FRAME + 1)));
    }

    #[test]
    fn truncated_payloads_rejected() {
        assert_eq!(Request::decode(Bytes::new()), Err(CodecError::Truncated));
        assert_eq!(
            Request::decode(Bytes::from_static(&[TAG_ADD, 1, 2])),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            Reply::decode(Bytes::from_static(&[TAG_SIGS, 0])),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            Request::decode(Bytes::from_static(&[0x55])),
            Err(CodecError::BadTag(0x55))
        );
        assert_eq!(
            Reply::decode(Bytes::from_static(&[0x55])),
            Err(CodecError::BadTag(0x55))
        );
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_ERROR);
        buf.put_u32(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert_eq!(Reply::decode(buf.freeze()), Err(CodecError::BadUtf8));
    }

    #[test]
    fn wire_size_of_realistic_signature_near_paper() {
        // The paper reports 1.7 KB per signature on the wire.
        use communix_crypto::sha256;
        use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};
        let deep: CallStack = (0..10)
            .map(|i| {
                Frame::with_hash(
                    "com.limegroup.gnutella.ConnectionManager",
                    "initializeFetchedConnection",
                    900 + i,
                    sha256(&[i as u8]),
                )
            })
            .collect();
        let sig = Signature::local(vec![
            SigEntry::new(deep.clone(), deep.clone()),
            SigEntry::new(deep.clone(), deep),
        ]);
        let req = Request::Add {
            sender: [0u8; 16],
            sig_text: sig.to_string(),
        };
        let bytes = frame(&req.encode());
        assert!(
            bytes.len() > 1000 && bytes.len() < 8000,
            "wire size {} out of plausible range",
            bytes.len()
        );
    }
}
