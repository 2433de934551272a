//! Property-based tests for the wire codec.

use std::sync::Arc;

use bytes::BytesMut;
use communix_net::{deframe, frame, frame_reply_into, Reply, Request};
use proptest::prelude::*;

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<[u8; 16]>(), "[ -~]{0,400}")
            .prop_map(|(sender, sig_text)| Request::Add { sender, sig_text }),
        any::<u64>().prop_map(|from| Request::Get { from }),
        any::<u64>().prop_map(|user| Request::IssueId { user }),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        (any::<bool>(), "[ -~]{0,80}")
            .prop_map(|(accepted, reason)| Reply::AddAck { accepted, reason }),
        (
            any::<u64>(),
            proptest::collection::vec("[ -~]{0,200}", 0..8)
        )
            .prop_map(|(from, sigs)| Reply::Sigs { from, sigs }),
        any::<[u8; 16]>().prop_map(|id| Reply::Id { id }),
        "[ -~]{0,120}".prop_map(|message| Reply::Error { message }),
    ]
}

proptest! {
    /// Request encode/decode round-trips.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        prop_assert_eq!(Request::decode(req.encode()).unwrap(), req);
    }

    /// Reply encode/decode round-trips.
    #[test]
    fn reply_roundtrip(reply in arb_reply()) {
        prop_assert_eq!(Reply::decode(reply.encode()).unwrap(), reply);
    }

    /// A shared delta is a delta on the wire: the same bytes through either
    /// encoding path, decoding (from a `Bytes` or in place) to the owned
    /// form, which is also what an in-process receiver gets.
    #[test]
    fn shared_delta_is_a_delta_on_the_wire(
        from in any::<u64>(),
        total in any::<u64>(),
        sigs in proptest::collection::vec("[ -~]{0,200}", 0..12),
    ) {
        let shared = Reply::SharedDelta {
            from,
            total,
            sigs: sigs.iter().map(|s| Arc::from(s.as_str())).collect(),
        };
        let owned = Reply::Delta { from, total, sigs };
        let mut framed = BytesMut::new();
        frame_reply_into(&shared, &mut framed);
        prop_assert_eq!(&framed[..], &frame(&owned.encode())[..]);
        prop_assert_eq!(Reply::decode(shared.encode()).unwrap(), owned.clone());
        prop_assert_eq!(Reply::decode_from(&framed[4..]).unwrap(), owned.clone());
        prop_assert_eq!(shared.into_owned(), owned);
    }

    /// deframe(frame(x)) == x, and works under arbitrary fragmentation:
    /// feeding the framed bytes in any chunking yields the same payload.
    #[test]
    fn framing_survives_fragmentation(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        cut in any::<usize>(),
    ) {
        let framed = frame(&bytes::Bytes::from(payload.clone()));
        let cut = cut % (framed.len() + 1);
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&framed[..cut]);
        // Possibly incomplete: deframe must not consume a partial frame.
        match deframe(&mut buf).unwrap() {
            Some(got) => {
                prop_assert_eq!(cut, framed.len());
                prop_assert_eq!(got.as_ref(), payload.as_slice());
            }
            None => {
                buf.extend_from_slice(&framed[cut..]);
                let got = deframe(&mut buf).unwrap().expect("complete now");
                prop_assert_eq!(got.as_ref(), payload.as_slice());
                prop_assert!(buf.is_empty());
            }
        }
    }

    /// Two frames back-to-back deframe in order.
    #[test]
    fn framing_preserves_order(
        a in proptest::collection::vec(any::<u8>(), 0..100),
        b in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&frame(&bytes::Bytes::from(a.clone())));
        buf.extend_from_slice(&frame(&bytes::Bytes::from(b.clone())));
        let first = deframe(&mut buf).unwrap().unwrap();
        prop_assert_eq!(first.as_ref(), a.as_slice());
        let second = deframe(&mut buf).unwrap().unwrap();
        prop_assert_eq!(second.as_ref(), b.as_slice());
        prop_assert!(deframe(&mut buf).unwrap().is_none());
    }

    /// Garbage never panics the decoders.
    #[test]
    fn decoders_never_panic(junk in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Request::decode(bytes::Bytes::from(junk.clone()));
        let _ = Reply::decode(bytes::Bytes::from(junk));
    }
}
