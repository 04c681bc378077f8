//! Compact binary map serialization — the device-side map cache.
//!
//! CityMesh's whole design rests on every device and AP holding the
//! city's building map (paper §2: "today's devices can easily cache
//! the data necessary for building routing in advance and continue to
//! use this infrequently-updated data through the duration of an
//! outage"). This codec makes the premise measurable: it serializes a
//! [`CityMap`] into the compact form such a cache would ship in, so
//! experiments can report bytes-per-city.
//!
//! Format (little-endian, varint = LEB128):
//!
//! ```text
//! magic "CMAP" ‖ version u8 ‖ quantum_mm varint
//! name: len varint ‖ utf-8 bytes
//! buildings: count varint, then per building:
//!   ring length varint, then per vertex:
//!     zigzag varint Δx, zigzag varint Δy   (quantized units,
//!     delta from the previous vertex; first vertex delta from the
//!     previous building's first vertex)
//! obstacles: count varint, then kind u8 + ring (same encoding)
//! fnv1a-64 checksum of everything above (8 bytes LE)
//! ```
//!
//! Coordinates are quantized (default 10 mm); the decoded map is
//! bit-identical across platforms, and building **order — hence every
//! building ID — is preserved exactly**, which is what lets a cached
//! map resolve IDs from packets.

use citymesh_geo::{Point, Polygon};
use citymesh_simcore::Fnv64;

use crate::city::{Building, CityMap, Obstacle, ObstacleKind};

/// Default quantization: 10 mm per unit, far below construction noise.
pub const DEFAULT_QUANTUM_MM: u32 = 10;

/// Codec errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Missing or wrong magic/version prefix.
    BadHeader,
    /// The trailing checksum did not match.
    BadChecksum,
    /// Input ended early or a varint overflowed.
    Truncated,
    /// A count or value exceeded sanity limits.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "bad map header"),
            CodecError::BadChecksum => write!(f, "map checksum mismatch"),
            CodecError::Truncated => write!(f, "map data truncated"),
            CodecError::Corrupt(what) => write!(f, "map data corrupt: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

const MAGIC: &[u8; 4] = b"CMAP";
const VERSION: u8 = 1;
/// Sanity cap well above any metropolitan extract.
const MAX_BUILDINGS: u64 = 16_000_000;
const MAX_RING: u64 = 100_000;

/// Serializes `map` with the given quantization (millimeters per
/// unit; [`DEFAULT_QUANTUM_MM`] is safe for routing).
///
/// ```
/// use citymesh_map::{decode_map, encode_map, CityArchetype, DEFAULT_QUANTUM_MM};
///
/// let map = CityArchetype::SurveyRiver.generate(7);
/// let cache = encode_map(&map, DEFAULT_QUANTUM_MM);
/// let restored = decode_map(&cache).unwrap();
/// assert_eq!(restored.len(), map.len());
/// // Building IDs survive — cached maps resolve packet waypoints.
/// assert_eq!(restored.building(0).unwrap().id, 0);
/// ```
pub fn encode_map(map: &CityMap, quantum_mm: u32) -> Vec<u8> {
    assert!(quantum_mm > 0, "quantum must be positive");
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    push_varint(quantum_mm as u64, &mut out);
    push_varint(map.name().len() as u64, &mut out);
    out.extend_from_slice(map.name().as_bytes());

    let quantum_m = quantum_mm as f64 / 1000.0;
    let q = |v: f64| -> i64 { (v / quantum_m).round() as i64 };

    push_varint(map.len() as u64, &mut out);
    let mut anchor = (0i64, 0i64);
    for b in map.buildings() {
        anchor = push_ring(b.footprint.ring(), anchor, q, &mut out);
    }
    push_varint(map.obstacles().len() as u64, &mut out);
    for o in map.obstacles() {
        out.push(match o.kind {
            ObstacleKind::Water => 0,
            ObstacleKind::Park => 1,
            ObstacleKind::Highway => 2,
        });
        anchor = push_ring(o.region.ring(), anchor, q, &mut out);
    }

    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Parses bytes produced by [`encode_map`]. Building IDs match the
/// encoded map exactly.
///
/// The trailer is a checksum, not a MAC: anyone can forge it. So any
/// input, hostile or not, decodes to `Ok` or `Err` — never a panic or
/// an arithmetic overflow. What it allocates follows the input's length
/// (plus the spatial index's fixed floor), not the counts or
/// coordinates the input declares.
pub fn decode_map(bytes: &[u8]) -> Result<CityMap, CodecError> {
    if bytes.len() < MAGIC.len() + 1 + 8 {
        return Err(CodecError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if checksum(body) != stored {
        return Err(CodecError::BadChecksum);
    }
    if &body[..4] != MAGIC || body[4] != VERSION {
        return Err(CodecError::BadHeader);
    }
    let mut cursor = &body[5..];

    let quantum_mm = take_varint(&mut cursor)?;
    if quantum_mm == 0 || quantum_mm > 100_000 {
        return Err(CodecError::Corrupt("quantum"));
    }
    let quantum_m = quantum_mm as f64 / 1000.0;
    let name_len = take_varint(&mut cursor)? as usize;
    if name_len > cursor.len() {
        return Err(CodecError::Truncated);
    }
    let name = std::str::from_utf8(&cursor[..name_len])
        .map_err(|_| CodecError::Corrupt("name"))?
        .to_string();
    cursor = &cursor[name_len..];

    let n_buildings = take_varint(&mut cursor)?;
    if n_buildings > MAX_BUILDINGS {
        return Err(CodecError::Corrupt("building count"));
    }
    let mut anchor = (0i64, 0i64);
    // A building takes at least seven bytes: ring length, three vertices.
    let mut buildings = Vec::with_capacity(capped(n_buildings, cursor, 7));
    for id in 0..n_buildings {
        let (ring, next_anchor) = take_ring(&mut cursor, anchor, quantum_m)?;
        anchor = next_anchor;
        let poly = Polygon::new(ring).ok_or(CodecError::Corrupt("degenerate footprint"))?;
        buildings.push(Building::new(id as u32, poly));
    }
    let n_obstacles = take_varint(&mut cursor)?;
    if n_obstacles > MAX_BUILDINGS {
        return Err(CodecError::Corrupt("obstacle count"));
    }
    // An obstacle takes at least eight: its kind, then a ring.
    let mut obstacles = Vec::with_capacity(capped(n_obstacles, cursor, 8));
    for _ in 0..n_obstacles {
        if cursor.is_empty() {
            return Err(CodecError::Truncated);
        }
        let kind = match cursor[0] {
            0 => ObstacleKind::Water,
            1 => ObstacleKind::Park,
            2 => ObstacleKind::Highway,
            _ => return Err(CodecError::Corrupt("obstacle kind")),
        };
        cursor = &cursor[1..];
        let (ring, next_anchor) = take_ring(&mut cursor, anchor, quantum_m)?;
        anchor = next_anchor;
        let region = Polygon::new(ring).ok_or(CodecError::Corrupt("degenerate obstacle"))?;
        obstacles.push(Obstacle { kind, region });
    }
    if !cursor.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes"));
    }
    Ok(CityMap::from_parts_in_order(name, buildings, obstacles))
}

fn push_ring(
    ring: &[Point],
    anchor: (i64, i64),
    q: impl Fn(f64) -> i64,
    out: &mut Vec<u8>,
) -> (i64, i64) {
    push_varint(ring.len() as u64, out);
    let mut prev = anchor;
    let mut first = anchor;
    for (i, p) in ring.iter().enumerate() {
        let cur = (q(p.x), q(p.y));
        push_varint(zigzag(cur.0 - prev.0), out);
        push_varint(zigzag(cur.1 - prev.1), out);
        if i == 0 {
            first = cur;
        }
        prev = cur;
    }
    first
}

fn take_ring(
    cursor: &mut &[u8],
    anchor: (i64, i64),
    quantum_m: f64,
) -> Result<(Vec<Point>, (i64, i64)), CodecError> {
    let len = take_varint(cursor)?;
    if !(3..=MAX_RING).contains(&len) {
        return Err(CodecError::Corrupt("ring length"));
    }
    let mut prev = anchor;
    let mut first = anchor;
    // A vertex takes at least two bytes.
    let mut ring = Vec::with_capacity(capped(len, cursor, 2));
    for i in 0..len {
        let dx = unzigzag(take_varint(cursor)?);
        let dy = unzigzag(take_varint(cursor)?);
        let cur = prev
            .0
            .checked_add(dx)
            .zip(prev.1.checked_add(dy))
            .ok_or(CodecError::Corrupt("coordinate"))?;
        ring.push(Point::new(
            cur.0 as f64 * quantum_m,
            cur.1 as f64 * quantum_m,
        ));
        if i == 0 {
            first = cur;
        }
        prev = cur;
    }
    Ok((ring, first))
}

/// A capacity for `count` items of at least `min_bytes` encoded bytes
/// each, capped by what `cursor` still holds: a forged count cannot
/// reserve memory the input could never fill.
fn capped(count: u64, cursor: &[u8], min_bytes: usize) -> usize {
    (cursor.len() / min_bytes).min(count as usize)
}

fn push_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn take_varint(cursor: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for i in 0..10 {
        let Some(&byte) = cursor.get(i) else {
            return Err(CodecError::Truncated);
        };
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            *cursor = &cursor[i + 1..];
            return Ok(v);
        }
        shift += 7;
    }
    Err(CodecError::Corrupt("varint"))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a 64 over the bytes: the trailer's checksum.
fn checksum(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    for &b in data {
        h.mix(u64::from(b));
    }
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::CityArchetype;

    fn sample() -> CityMap {
        CityArchetype::SurveyRiver.generate(17)
    }

    #[test]
    fn round_trip_preserves_structure_and_ids() {
        let map = sample();
        let bytes = encode_map(&map, DEFAULT_QUANTUM_MM);
        let back = decode_map(&bytes).unwrap();
        assert_eq!(back.name(), map.name());
        assert_eq!(back.len(), map.len());
        assert_eq!(back.obstacles().len(), map.obstacles().len());
        let quantum = DEFAULT_QUANTUM_MM as f64 / 1000.0;
        for (a, b) in map.buildings().iter().zip(back.buildings()) {
            assert_eq!(a.id, b.id, "IDs must survive the cache round trip");
            assert!(
                a.centroid.dist(b.centroid) <= quantum * 2.0,
                "centroid drift beyond quantization"
            );
            assert_eq!(a.footprint.len(), b.footprint.len());
        }
        for (a, b) in map.obstacles().iter().zip(back.obstacles()) {
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn double_round_trip_is_identity() {
        // After one quantization, further round trips are exact.
        let map = sample();
        let once = decode_map(&encode_map(&map, DEFAULT_QUANTUM_MM)).unwrap();
        let twice = decode_map(&encode_map(&once, DEFAULT_QUANTUM_MM)).unwrap();
        for (a, b) in once.buildings().iter().zip(twice.buildings()) {
            assert_eq!(a.centroid, b.centroid);
            assert_eq!(a.footprint.ring(), b.footprint.ring());
        }
    }

    #[test]
    fn cache_size_is_phone_practical() {
        // The §2 premise: a city map cache must be small. Our 800 m
        // survey area should be a few tens of KB; linear scaling puts
        // a 10 km metro in single-digit MB.
        let map = sample();
        let bytes = encode_map(&map, DEFAULT_QUANTUM_MM);
        let per_building = bytes.len() as f64 / map.len() as f64;
        assert!(
            per_building < 64.0,
            "{per_building:.1} bytes/building is too fat for a cache"
        );
        assert!(
            bytes.len() < 100 * 1024,
            "survey-area map {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn corruption_detected_everywhere() {
        let bytes = encode_map(&sample(), DEFAULT_QUANTUM_MM);
        // Flip a byte in a few positions across the span.
        for pos in [0, 5, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(decode_map(&bad).is_err(), "flip at {pos} undetected");
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_map(&sample(), DEFAULT_QUANTUM_MM);
        for cut in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_map(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decoded_map_routes_identically() {
        // The cache must be functionally equivalent for routing.
        let map = sample();
        let back = decode_map(&encode_map(&map, DEFAULT_QUANTUM_MM)).unwrap();
        let p = citymesh_geo::Point::new(400.0, 200.0);
        assert_eq!(
            map.nearest_building(p).unwrap().id,
            back.nearest_building(p).unwrap().id
        );
        assert_eq!(map.in_obstacle(p), back.in_obstacle(p));
    }

    #[test]
    fn checksum_is_fnv1a_64() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// `body` sealed with a valid trailer, as a forger would.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    /// Magic, version, 10 mm quantum, empty name.
    fn preamble() -> Vec<u8> {
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&[VERSION, 10, 0]);
        body
    }

    #[test]
    fn overflowing_coordinate_is_an_error() {
        // One 3-vertex building whose every delta is i64::MAX.
        let mut body = preamble();
        push_varint(1, &mut body);
        push_varint(3, &mut body);
        for _ in 0..6 {
            push_varint(u64::MAX - 1, &mut body);
        }
        assert_eq!(
            decode_map(&sealed(body)).unwrap_err(),
            CodecError::Corrupt("coordinate")
        );
    }

    #[test]
    fn forged_counts_reserve_nothing_they_cannot_fill() {
        // 16M buildings declared, none present: a 19-byte input.
        let mut body = preamble();
        push_varint(MAX_BUILDINGS, &mut body);
        let bytes = sealed(body);
        assert_eq!(bytes.len(), 19);
        assert_eq!(decode_map(&bytes).unwrap_err(), CodecError::Truncated);
        assert_eq!(
            capped(MAX_BUILDINGS, &[0; 70], 7),
            10,
            "capacity follows the bytes, not the count"
        );
    }

    #[test]
    fn far_flung_buildings_round_trip() {
        // Two unit squares 1,000 km apart: at 100 m cells the index grid
        // would need 10^8 cells, so it widens its cell instead, and the
        // map encodes and decodes like any other.
        let squares = [0.0, 1.0e6].map(|origin| {
            Polygon::new(
                [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
                    .map(|(x, y)| Point::new(origin + x, origin + y))
                    .to_vec(),
            )
            .unwrap()
        });
        let map = CityMap::new("far", squares.to_vec(), Vec::new());
        let back = decode_map(&encode_map(&map, DEFAULT_QUANTUM_MM)).unwrap();
        assert_eq!(back.len(), 2);
        for p in [Point::new(0.5, 0.5), Point::new(1.0e6 + 0.5, 1.0e6 + 0.5)] {
            assert_eq!(
                map.nearest_building(p).unwrap().id,
                back.nearest_building(p).unwrap().id
            );
        }
    }

    #[test]
    fn coarser_quantum_is_smaller() {
        let map = sample();
        let fine = encode_map(&map, 1);
        let coarse = encode_map(&map, 1000); // 1 m quantum
        assert!(coarse.len() < fine.len());
        // And still decodes.
        let back = decode_map(&coarse).unwrap();
        assert_eq!(back.len(), map.len());
    }
}
