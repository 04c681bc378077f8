//! Hostile text against the OSM-XML subset parser.
//!
//! Whatever the input — random markup, a real extract cut anywhere, or
//! one with flipped bits — `parse_buildings` must return `Ok` or `Err`,
//! never panic.

use citymesh_map::osm::parse_buildings;
use proptest::prelude::*;

/// Two buildings, a footway, and multi-byte text in tag values and
/// between elements, so cuts and flips land inside characters.
const EXTRACT: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6" generator="tëst">
 <node id="1" lat="42.3600" lon="-71.0900"/>
 <node id="2" lat="42.3600" lon="-71.0895"/>
 <node id="3" lat="42.3604" lon="-71.0895"/>
 <node id="4" lat="42.3604" lon="-71.0900"/>
 <node id="5" lat="42.3610" lon="-71.0890"/>
 <node id="6" lat="42.3610" lon="-71.0885"/>
 <node id="7" lat="42.3614" lon="-71.0885"/>
 <node id="8" lat="42.3614" lon="-71.0890"/>
 <way id="100">
  <nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="4"/><nd ref="1"/>
  <tag k="building" v="yes"/>
  <tag k="name" v="Café Hall ☕"/>
 </way>
 é
 <way id="101">
  <nd ref="5"/><nd ref="6"/><nd ref="7"/><nd ref="8"/><nd ref="5"/>
  <tag k="building" v="university"/>
 </way>
 <way id="102"><nd ref="1"/><nd ref="5"/><tag k="highway" v="footway"/></way>
</osm>"#;

/// The pieces random markup is assembled from: the parser's own
/// keywords and delimiters, numbers good and bad, and multi-byte text.
const FRAGMENTS: &[&str] = &[
    "<", ">", "/", "\"", "=", " ", "\n", "node", "way", "/way", "nd", "tag", "id", "ref", "lat",
    "lon", "k", "v", "building", "yes", "1", "2", "-71.09", "42.36", "1e309", "NaN", "é", "☕",
    "𝄞", "<?xml?>", "<!-- -->",
];

#[test]
fn the_extract_parses() {
    let (polys, _) = parse_buildings(EXTRACT).expect("the untouched extract is valid");
    assert_eq!(polys.len(), 2);
}

#[test]
fn every_truncation_is_an_answer() {
    for (cut, _) in EXTRACT.char_indices() {
        let _ = parse_buildings(&EXTRACT[..cut]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_markup_never_panics(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..64),
    ) {
        let xml: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = parse_buildings(&xml);
    }

    #[test]
    fn bit_flipped_extracts_never_panic(
        flips in proptest::collection::vec(any::<usize>(), 1..6),
        cut in any::<usize>(),
    ) {
        let mut bytes = EXTRACT.as_bytes().to_vec();
        for flip in flips {
            let bit = flip % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        bytes.truncate(cut % (bytes.len() + 1));
        let _ = parse_buildings(&String::from_utf8_lossy(&bytes));
    }
}
