//! The CityMesh packet header.
//!
//! The header is the entire routing state of a packet. Relaying APs
//! decode it, reconstruct the conduits between consecutive waypoint
//! buildings from their cached map, and rebroadcast iff they sit
//! inside one (paper §3 step 3).
//!
//! Bit layout (MSB-first):
//!
//! ```text
//! version:4  kind:4  msg_id:64  conduit_width_dm:10  enc:1
//! if enc == 0 (absolute):  id_bits:6  count:8  count × id_bits
//! if enc == 1 (delta):     count:8    first id then zigzag deltas,
//!                          each as nibble-group varbits (5 bits/group)
//! ```
//!
//! The *route bits* metric reported by the paper (median 175, 90%ile
//! 225) covers the route description: conduit width, encoding flag,
//! and the waypoint list. [`CityMeshHeader::route_bits`] measures
//! exactly that span.
//!
//! The header carries no hop limit. The conduits and per-message
//! duplicate suppression already end every flood, and a limit that
//! relays decremented would drop deliveries the conduits make: on a
//! healthy 2×2 metro, 660 of 1,631 delivered sample pairs first reach
//! the destination more than 64 relay hops out. Version 1 headers,
//! which carried an 8-bit TTL after the kind, are rejected as
//! [`NetError::UnsupportedVersion`].

use crate::bitio::{BitReader, BitWriter};
use crate::NetError;

/// Protocol version emitted by this implementation.
pub const VERSION: u8 = 2;

/// Maximum number of waypoints a route may carry (8-bit count).
pub const MAX_WAYPOINTS: usize = 255;

/// Largest conduit width the 10-bit decimeter field can encode,
/// meters. Senders that widen conduits for retries clamp to this.
pub const MAX_CONDUIT_WIDTH_M: f64 = 102.3;

/// What the packet payload means to the receiving postbox.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Application data destined for a postbox.
    Data,
    /// A device polling its postbox for cached messages (§3 step 4).
    PostboxCheckin,
    /// A push notification forwarded toward a device's last known
    /// location (§3 step 4).
    PushNotify,
    /// End-to-end delivery acknowledgment travelling the reverse route.
    Ack,
}

impl MessageKind {
    fn to_bits(self) -> u64 {
        match self {
            MessageKind::Data => 0,
            MessageKind::PostboxCheckin => 1,
            MessageKind::PushNotify => 2,
            MessageKind::Ack => 3,
        }
    }

    fn from_bits(v: u64) -> Result<Self, NetError> {
        match v {
            0 => Ok(MessageKind::Data),
            1 => Ok(MessageKind::PostboxCheckin),
            2 => Ok(MessageKind::PushNotify),
            3 => Ok(MessageKind::Ack),
            other => Err(NetError::UnknownKind(other as u8)),
        }
    }
}

/// How the waypoint list is packed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum RouteEncoding {
    /// Fixed-width IDs at `⌈log₂(max_id + 1)⌉` bits each. Predictable
    /// size; the paper's headline numbers correspond to this mode.
    #[default]
    Absolute,
    /// First ID then zigzag deltas in 5-bit varbit groups. Smaller when
    /// building IDs are assigned in spatial order (neighbors get nearby
    /// IDs); evaluated as an ablation.
    Delta,
}

/// A decoded CityMesh header.
#[derive(Clone, Debug, PartialEq)]
pub struct CityMeshHeader {
    /// Message kind.
    pub kind: MessageKind,
    /// Unique message ID; relays suppress duplicates by it.
    pub msg_id: u64,
    /// Conduit width in decimeters (the paper's `W`; 500 ⇒ 50 m).
    pub conduit_width_dm: u16,
    /// Waypoint building IDs, source building first, destination
    /// (postbox) building last. Never empty.
    pub waypoints: Vec<u32>,
    /// Waypoint list packing.
    pub encoding: RouteEncoding,
}

impl CityMeshHeader {
    /// Convenience constructor with the defaults used throughout the
    /// evaluation: kind `Data`, absolute encoding.
    ///
    /// # Panics
    /// Panics on an empty waypoint list — a route always contains at
    /// least the destination building.
    pub fn new(msg_id: u64, conduit_width_m: f64, waypoints: Vec<u32>) -> Self {
        assert!(!waypoints.is_empty(), "a route needs at least one waypoint");
        let dm = (conduit_width_m * 10.0).round();
        assert!(
            (0.0..=1023.0).contains(&dm),
            "conduit width {conduit_width_m} m out of the encodable 0–102.3 m range"
        );
        CityMeshHeader {
            kind: MessageKind::Data,
            msg_id,
            conduit_width_dm: dm as u16,
            waypoints,
            encoding: RouteEncoding::Absolute,
        }
    }

    /// Conduit width in meters.
    pub fn conduit_width_m(&self) -> f64 {
        self.conduit_width_dm as f64 / 10.0
    }

    /// Rewrites this header in place for a new message, producing the
    /// same state [`CityMeshHeader::new`] would, but **reusing the
    /// waypoint buffer** — the per-message path of a simulation kernel
    /// that sends millions of flows must not reallocate the route.
    ///
    /// # Panics
    /// Panics on an empty waypoint list or an unencodable width,
    /// exactly like [`CityMeshHeader::new`].
    pub fn reuse_for(&mut self, msg_id: u64, conduit_width_m: f64, waypoints: &[u32]) {
        assert!(!waypoints.is_empty(), "a route needs at least one waypoint");
        let dm = (conduit_width_m * 10.0).round();
        assert!(
            (0.0..=1023.0).contains(&dm),
            "conduit width {conduit_width_m} m out of the encodable 0–102.3 m range"
        );
        self.kind = MessageKind::Data;
        self.msg_id = msg_id;
        self.conduit_width_dm = dm as u16;
        self.waypoints.clear();
        self.waypoints.extend_from_slice(waypoints);
        self.encoding = RouteEncoding::Absolute;
    }

    /// Destination (postbox) building: the final waypoint.
    pub fn destination(&self) -> u32 {
        *self.waypoints.last().expect("waypoints never empty")
    }

    /// Encodes into `w`.
    ///
    /// # Errors
    /// [`NetError::FieldOverflow`] when the waypoint list exceeds
    /// [`MAX_WAYPOINTS`].
    pub fn encode(&self, w: &mut BitWriter) -> Result<(), NetError> {
        if self.waypoints.is_empty() || self.waypoints.len() > MAX_WAYPOINTS {
            return Err(NetError::FieldOverflow("waypoint count"));
        }
        w.write_bits(VERSION as u64, 4);
        w.write_bits(self.kind.to_bits(), 4);
        w.write_bits(self.msg_id, 64);
        w.write_bits(self.conduit_width_dm as u64, 10);
        match self.encoding {
            RouteEncoding::Absolute => {
                w.write_bit(false);
                let max = *self.waypoints.iter().max().expect("non-empty");
                let id_bits = bits_for(max);
                w.write_bits(id_bits as u64, 6);
                w.write_bits(self.waypoints.len() as u64, 8);
                for &wp in &self.waypoints {
                    w.write_bits(wp as u64, id_bits);
                }
            }
            RouteEncoding::Delta => {
                w.write_bit(true);
                w.write_bits(self.waypoints.len() as u64, 8);
                write_varbits(w, self.waypoints[0] as u64);
                for pair in self.waypoints.windows(2) {
                    let delta = pair[1] as i64 - pair[0] as i64;
                    write_varbits(w, zigzag32(delta));
                }
            }
        }
        Ok(())
    }

    /// Decodes from `r`, validating the version.
    pub fn decode(r: &mut BitReader<'_>) -> Result<Self, NetError> {
        let version = r.read_bits(4)? as u8;
        if version != VERSION {
            return Err(NetError::UnsupportedVersion(version));
        }
        let kind = MessageKind::from_bits(r.read_bits(4)?)?;
        let msg_id = r.read_bits(64)?;
        let conduit_width_dm = r.read_bits(10)? as u16;
        let delta = r.read_bit()?;
        let (encoding, waypoints) = if !delta {
            let id_bits = r.read_bits(6)? as u32;
            if !(1..=32).contains(&id_bits) {
                return Err(NetError::FieldOverflow("id_bits"));
            }
            let count = r.read_bits(8)? as usize;
            if count == 0 {
                return Err(NetError::FieldOverflow("waypoint count"));
            }
            let mut wps = Vec::with_capacity(count);
            for _ in 0..count {
                wps.push(r.read_bits(id_bits)? as u32);
            }
            (RouteEncoding::Absolute, wps)
        } else {
            let count = r.read_bits(8)? as usize;
            if count == 0 {
                return Err(NetError::FieldOverflow("waypoint count"));
            }
            let first = read_varbits(r)?;
            if first > u32::MAX as u64 {
                return Err(NetError::FieldOverflow("waypoint id"));
            }
            let mut wps = Vec::with_capacity(count);
            wps.push(first as u32);
            let mut prev = first as i64;
            for _ in 1..count {
                let d = unzigzag32(read_varbits(r)?);
                let next = prev
                    .checked_add(d)
                    .filter(|next| (0..=u32::MAX as i64).contains(next))
                    .ok_or(NetError::FieldOverflow("waypoint id"))?;
                wps.push(next as u32);
                prev = next;
            }
            (RouteEncoding::Delta, wps)
        };
        Ok(CityMeshHeader {
            kind,
            msg_id,
            conduit_width_dm,
            waypoints,
            encoding,
        })
    }

    /// Size, in bits, of the *route description* — conduit width,
    /// encoding flag, and waypoint list. This is the quantity the
    /// paper reports as "packet header for the compressed source
    /// route" (median 175, 90%ile 225 bits, §4).
    pub fn route_bits(&self) -> usize {
        let fixed = 10 + 1; // conduit width + encoding flag
        match self.encoding {
            RouteEncoding::Absolute => {
                let max = *self.waypoints.iter().max().expect("non-empty");
                fixed + 6 + 8 + self.waypoints.len() * bits_for(max) as usize
            }
            RouteEncoding::Delta => {
                let mut bits = fixed + 8 + varbits_len(self.waypoints[0] as u64);
                for pair in self.waypoints.windows(2) {
                    let delta = pair[1] as i64 - pair[0] as i64;
                    bits += varbits_len(zigzag32(delta));
                }
                bits
            }
        }
    }

    /// Total encoded header size in bits, including version, kind and
    /// message ID.
    pub fn total_bits(&self) -> usize {
        4 + 4 + 64 + self.route_bits()
    }
}

/// Bits needed to represent `v` (at least 1).
fn bits_for(v: u32) -> u32 {
    (32 - v.leading_zeros()).max(1)
}

/// Zigzag for deltas that fit well inside i64 (|delta| < 2^32).
fn zigzag32(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag32(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes `v` as 5-bit groups: 1 continuation bit + 4 value bits,
/// little-end group first. Small deltas (< 16) cost 5 bits.
fn write_varbits(w: &mut BitWriter, mut v: u64) {
    loop {
        let nibble = v & 0xF;
        v >>= 4;
        w.write_bit(v != 0);
        w.write_bits(nibble, 4);
        if v == 0 {
            break;
        }
    }
}

fn read_varbits(r: &mut BitReader<'_>) -> Result<u64, NetError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let more = r.read_bit()?;
        let nibble = r.read_bits(4)?;
        if shift >= 64 {
            return Err(NetError::VarintOverflow);
        }
        v |= nibble << shift;
        if !more {
            return Ok(v);
        }
        shift += 4;
    }
}

/// Encoded size of [`write_varbits`] output, in bits.
fn varbits_len(v: u64) -> usize {
    let nibbles = (64 - v.leading_zeros() as usize).div_ceil(4);
    5 * nibbles.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(h: &CityMeshHeader) -> CityMeshHeader {
        let mut w = BitWriter::new();
        h.encode(&mut w).unwrap();
        assert_eq!(
            w.bit_len(),
            h.total_bits(),
            "total_bits must match actual encoding"
        );
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        CityMeshHeader::decode(&mut r).unwrap()
    }

    #[test]
    fn absolute_round_trip() {
        let h = CityMeshHeader::new(0xDEAD_BEEF_1234_5678, 50.0, vec![10, 500, 3, 99999]);
        assert_eq!(round_trip(&h), h);
    }

    #[test]
    fn delta_round_trip() {
        let mut h = CityMeshHeader::new(42, 25.5, vec![1000, 1003, 998, 1020, 7]);
        h.encoding = RouteEncoding::Delta;
        h.kind = MessageKind::PushNotify;
        assert_eq!(round_trip(&h), h);
    }

    #[test]
    fn single_waypoint_route() {
        let h = CityMeshHeader::new(1, 50.0, vec![0]);
        let back = round_trip(&h);
        assert_eq!(back.waypoints, vec![0]);
        assert_eq!(back.destination(), 0);
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in [
            MessageKind::Data,
            MessageKind::PostboxCheckin,
            MessageKind::PushNotify,
            MessageKind::Ack,
        ] {
            let mut h = CityMeshHeader::new(5, 50.0, vec![1, 2, 3]);
            h.kind = kind;
            assert_eq!(round_trip(&h).kind, kind);
        }
    }

    #[test]
    fn reuse_for_equals_new() {
        let mut reused = CityMeshHeader::new(1, 20.0, vec![9, 8, 7]);
        reused.kind = MessageKind::Ack;
        reused.encoding = RouteEncoding::Delta;
        reused.reuse_for(77, 50.0, &[4, 5]);
        assert_eq!(reused, CityMeshHeader::new(77, 50.0, vec![4, 5]));
        // Growing the route again also matches.
        reused.reuse_for(78, 12.3, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(
            reused,
            CityMeshHeader::new(78, 12.3, vec![1, 2, 3, 4, 5, 6])
        );
    }

    #[test]
    #[should_panic(expected = "at least one waypoint")]
    fn reuse_for_rejects_empty_route() {
        let mut h = CityMeshHeader::new(1, 50.0, vec![1]);
        h.reuse_for(2, 50.0, &[]);
    }

    #[test]
    fn conduit_width_precision() {
        let h = CityMeshHeader::new(1, 50.0, vec![1]);
        assert_eq!(h.conduit_width_m(), 50.0);
        let h = CityMeshHeader::new(1, 12.3, vec![1]);
        assert!((h.conduit_width_m() - 12.3).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "conduit width")]
    fn oversized_conduit_width_panics() {
        CityMeshHeader::new(1, 200.0, vec![1]);
    }

    #[test]
    fn route_bits_in_papers_ballpark() {
        // ~20k buildings (15-bit IDs), 10 waypoints: the paper's
        // "typical city" regime. Median reported: 175 bits.
        let wps: Vec<u32> = (0..10).map(|i| 1000 + i * 137).collect();
        let h = CityMeshHeader::new(1, 50.0, wps);
        let bits = h.route_bits();
        assert!(
            (100..300).contains(&bits),
            "route bits {bits} should be within the paper's order of magnitude"
        );
    }

    #[test]
    fn delta_beats_absolute_for_spatially_local_ids() {
        let wps: Vec<u32> = vec![50_000, 50_012, 50_007, 50_031, 50_029, 50_040];
        let abs = CityMeshHeader::new(1, 50.0, wps.clone());
        let mut del = abs.clone();
        del.encoding = RouteEncoding::Delta;
        assert!(
            del.route_bits() < abs.route_bits(),
            "delta ({}) should beat absolute ({}) on clustered IDs",
            del.route_bits(),
            abs.route_bits()
        );
        assert_eq!(round_trip(&del), del);
    }

    #[test]
    fn wrong_version_rejected() {
        let h = CityMeshHeader::new(9, 50.0, vec![1, 2]);
        let mut w = BitWriter::new();
        h.encode(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        bytes[0] = (bytes[0] & 0x0F) | 0x30; // version := 3
        let mut r = BitReader::new(&bytes);
        assert_eq!(
            CityMeshHeader::decode(&mut r),
            Err(NetError::UnsupportedVersion(3))
        );
    }

    #[test]
    fn a_version_1_header_is_unsupported() {
        // Version 1's layout, TTL byte included: kind Data, TTL 64.
        let mut w = BitWriter::new();
        w.write_bits(1, 4);
        w.write_bits(0, 4);
        w.write_bits(64, 8);
        w.write_bits(9, 64);
        w.write_bits(500, 10);
        w.write_bit(false);
        w.write_bits(2, 6);
        w.write_bits(2, 8);
        w.write_bits(1, 2);
        w.write_bits(2, 2);
        let bytes = w.into_bytes();
        assert_eq!(
            CityMeshHeader::decode(&mut BitReader::new(&bytes)),
            Err(NetError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn truncated_header_rejected() {
        let h = CityMeshHeader::new(9, 50.0, vec![1, 2, 3, 4, 5]);
        let mut w = BitWriter::new();
        h.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() - 1 {
            let mut r = BitReader::new(&bytes[..cut]);
            assert!(
                CityMeshHeader::decode(&mut r).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn overflowing_delta_rejected() {
        // A hostile delta of i64::MAX from waypoint 5: an error, not an
        // arithmetic overflow.
        let mut w = BitWriter::new();
        w.write_bits(VERSION as u64, 4);
        for width in [4, 64, 10] {
            w.write_bits(0, width); // kind, msg_id, conduit width
        }
        w.write_bit(true);
        w.write_bits(2, 8);
        write_varbits(&mut w, 5);
        write_varbits(&mut w, u64::MAX - 1);
        let bytes = w.into_bytes();
        assert_eq!(
            CityMeshHeader::decode(&mut BitReader::new(&bytes)),
            Err(NetError::FieldOverflow("waypoint id"))
        );
    }

    #[test]
    fn too_many_waypoints_rejected() {
        let h = CityMeshHeader::new(1, 50.0, (0..300u32).collect());
        let mut w = BitWriter::new();
        assert_eq!(
            h.encode(&mut w),
            Err(NetError::FieldOverflow("waypoint count"))
        );
    }

    #[test]
    fn max_u32_waypoint_ids() {
        let h = CityMeshHeader::new(1, 50.0, vec![u32::MAX, 0, u32::MAX - 1]);
        assert_eq!(round_trip(&h), h);
        let mut d = h.clone();
        d.encoding = RouteEncoding::Delta;
        assert_eq!(round_trip(&d), d);
    }

    #[test]
    fn varbits_small_values_five_bits() {
        let mut w = BitWriter::new();
        write_varbits(&mut w, 15);
        assert_eq!(w.bit_len(), 5);
        assert_eq!(varbits_len(15), 5);
        let mut w2 = BitWriter::new();
        write_varbits(&mut w2, 16);
        assert_eq!(w2.bit_len(), 10);
        assert_eq!(varbits_len(16), 10);
        assert_eq!(varbits_len(0), 5);
    }
}
