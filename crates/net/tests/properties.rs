//! Property-based tests for the wire format.

use citymesh_net::{
    bitio::{BitReader, BitWriter},
    CityMeshHeader, MessageKind, RouteEncoding,
};
use proptest::prelude::*;

fn message_kind() -> impl Strategy<Value = MessageKind> {
    prop_oneof![
        Just(MessageKind::Data),
        Just(MessageKind::PostboxCheckin),
        Just(MessageKind::PushNotify),
        Just(MessageKind::Ack),
    ]
}

fn header() -> impl Strategy<Value = CityMeshHeader> {
    (
        any::<u64>(),
        0u16..=1023,
        proptest::collection::vec(any::<u32>(), 1..=255),
        message_kind(),
        any::<bool>(),
    )
        .prop_map(|(msg_id, width_dm, waypoints, kind, delta)| {
            let mut h = CityMeshHeader::new(msg_id, 0.0, waypoints);
            h.conduit_width_dm = width_dm;
            h.kind = kind;
            h.encoding = if delta {
                RouteEncoding::Delta
            } else {
                RouteEncoding::Absolute
            };
            h
        })
}

proptest! {
    #[test]
    fn bitio_round_trips(ops in proptest::collection::vec((any::<u64>(), 1u32..=64), 1..200)) {
        let mut w = BitWriter::new();
        let mut expected = Vec::new();
        for (value, width) in ops {
            let masked = if width == 64 { value } else { value & ((1u64 << width) - 1) };
            w.write_bits(masked, width);
            expected.push((masked, width));
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (value, width) in expected {
            prop_assert_eq!(r.read_bits(width).unwrap(), value);
        }
    }

    #[test]
    fn header_round_trips(h in header()) {
        let mut w = BitWriter::new();
        h.encode(&mut w).unwrap();
        prop_assert_eq!(w.bit_len(), h.total_bits());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let back = CityMeshHeader::decode(&mut r).unwrap();
        prop_assert_eq!(back, h);
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // The header is the one structure a relay decodes from the air:
        // any input must produce Ok or Err, never a panic.
        let _ = CityMeshHeader::decode(&mut BitReader::new(&bytes));
    }

    #[test]
    fn decode_never_panics_on_a_flipped_header(h in header(), flip in any::<usize>()) {
        let mut w = BitWriter::new();
        h.encode(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 0x80 >> (bit % 8);
        // No checksum guards the header, so a flip may decode to another
        // valid header; it must never panic.
        let _ = CityMeshHeader::decode(&mut BitReader::new(&bytes));
    }
}
