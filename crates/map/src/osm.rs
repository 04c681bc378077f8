//! Minimal OpenStreetMap XML loader.
//!
//! Parses the subset of OSM XML needed for building routing: `<node>`
//! elements (id, lat, lon) and `<way>` elements that carry a
//! `building=*` tag, whose `<nd ref>` lists form closed footprint
//! rings. Relations (multipolygon buildings with holes) are out of
//! scope — the routing algorithm only needs outer rings.
//!
//! The parser is a small hand-rolled scanner rather than a full XML
//! implementation: OSM extracts are machine-generated with a rigid
//! shape, and the approved offline dependency set contains no XML
//! crate (DESIGN.md §5). It tolerates attribute reordering, both
//! self-closing and paired tags, and unknown elements.

use std::collections::HashMap;

use citymesh_geo::{LatLon, Point, Polygon, Projection};

use crate::city::CityMap;

/// Errors from OSM parsing.
#[derive(Clone, Debug, PartialEq)]
pub enum OsmError {
    /// An element was missing a required attribute.
    MissingAttribute {
        /// Element name, e.g. `node`.
        element: &'static str,
        /// Attribute name, e.g. `lat`.
        attribute: &'static str,
    },
    /// An attribute failed to parse as the expected type.
    BadValue {
        /// Attribute name.
        attribute: &'static str,
        /// The offending text.
        text: String,
    },
    /// A way referenced a node id that was never defined.
    UnknownNodeRef(i64),
    /// No buildings were found in the input.
    NoBuildings,
    /// An element opened with `<` is never closed with `>`: the input
    /// is truncated.
    UnclosedElement,
}

impl std::fmt::Display for OsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsmError::MissingAttribute { element, attribute } => {
                write!(f, "<{element}> missing attribute {attribute}")
            }
            OsmError::BadValue { attribute, text } => {
                write!(f, "bad value for {attribute}: {text:?}")
            }
            OsmError::UnknownNodeRef(id) => write!(f, "way references unknown node {id}"),
            OsmError::NoBuildings => write!(f, "no building ways in input"),
            OsmError::UnclosedElement => write!(f, "element never closed (truncated input)"),
        }
    }
}

impl std::error::Error for OsmError {}

/// Parses OSM XML into building footprint polygons, projected into a
/// local meter plane anchored at the data's bounding-box center.
///
/// Returns the footprints and the projection used (so callers can map
/// results back to lat/lon).
pub fn parse_buildings(xml: &str) -> Result<(Vec<Polygon>, Projection), OsmError> {
    let mut nodes: HashMap<i64, LatLon> = HashMap::new();
    let mut ways: Vec<Vec<i64>> = Vec::new();

    let mut cursor = xml;
    // First pass collects nodes and building ways in document order.
    // OSM files list all nodes before ways, but we do not rely on it:
    // node refs are resolved after the scan completes.
    while let Some(open) = cursor.find('<') {
        cursor = &cursor[open + 1..];
        if cursor.starts_with("node") {
            let (attrs, rest, _) = read_element(cursor)?;
            cursor = rest;
            let id = parse_attr::<i64>(&attrs, "node", "id")?;
            let lat = parse_attr::<f64>(&attrs, "node", "lat")?;
            let lon = parse_attr::<f64>(&attrs, "node", "lon")?;
            let ll = LatLon::new(lat, lon).ok_or(OsmError::BadValue {
                attribute: "lat/lon",
                text: format!("{lat},{lon}"),
            })?;
            nodes.insert(id, ll);
        } else if cursor.starts_with("way") {
            let (_, rest, self_closing) = read_element(cursor)?;
            cursor = rest;
            if self_closing {
                continue; // a way with no nds or tags
            }
            // Scan children until </way>.
            let mut refs: Vec<i64> = Vec::new();
            let mut is_building = false;
            while let Some(open) = cursor.find('<') {
                cursor = &cursor[open + 1..];
                if cursor.starts_with("/way") {
                    let (_, rest, _) = read_element(cursor)?;
                    cursor = rest;
                    break;
                } else if cursor.starts_with("nd") {
                    let (attrs, rest, _) = read_element(cursor)?;
                    cursor = rest;
                    refs.push(parse_attr::<i64>(&attrs, "nd", "ref")?);
                } else if cursor.starts_with("tag") {
                    let (attrs, rest, _) = read_element(cursor)?;
                    cursor = rest;
                    if attrs.get("k").map(String::as_str) == Some("building") {
                        is_building = true;
                    }
                } else {
                    let (_, rest, _) = read_element(cursor)?;
                    cursor = rest;
                }
            }
            if is_building && refs.len() >= 3 {
                ways.push(refs);
            }
        } else {
            let (_, rest, _) = read_element(cursor)?;
            cursor = rest;
        }
    }

    if ways.is_empty() {
        return Err(OsmError::NoBuildings);
    }

    // Anchor the projection at the mean node position of used nodes.
    let mut lat_sum = 0.0;
    let mut lon_sum = 0.0;
    let mut count = 0usize;
    for way in &ways {
        for r in way {
            let ll = nodes.get(r).ok_or(OsmError::UnknownNodeRef(*r))?;
            lat_sum += ll.lat;
            lon_sum += ll.lon;
            count += 1;
        }
    }
    // The mean of valid coordinates is valid up to summation rounding,
    // which a forged extract hugging a pole or the antimeridian can
    // push past the range.
    let (lat, lon) = (lat_sum / count as f64, lon_sum / count as f64);
    let origin = LatLon::new(lat, lon).ok_or(OsmError::BadValue {
        attribute: "lat/lon",
        text: format!("{lat},{lon}"),
    })?;
    let proj = Projection::new(origin);

    let mut polygons = Vec::with_capacity(ways.len());
    for way in &ways {
        let ring: Vec<Point> = way
            .iter()
            .map(|r| proj.project(*nodes.get(r).expect("checked above")))
            .collect();
        // Degenerate rings (collinear etc.) are skipped, matching how
        // OSM consumers treat broken geometry.
        if let Some(poly) = Polygon::new(ring) {
            if poly.area() > 1.0 {
                polygons.push(poly);
            }
        }
    }
    if polygons.is_empty() {
        return Err(OsmError::NoBuildings);
    }
    Ok((polygons, proj))
}

/// Convenience: parse and wrap into a [`CityMap`] named `name`.
pub fn load_city(name: &str, xml: &str) -> Result<CityMap, OsmError> {
    let (footprints, _) = parse_buildings(xml)?;
    Ok(CityMap::new(name, footprints, Vec::new()))
}

/// Reads one element starting right after `<`: returns its attributes,
/// the remaining input after `>`, and whether it was self-closing.
///
/// # Errors
/// [`OsmError::UnclosedElement`] when no `>` follows.
fn read_element(input: &str) -> Result<(HashMap<String, String>, &str, bool), OsmError> {
    let end = input.find('>').ok_or(OsmError::UnclosedElement)?;
    let inside = &input[..end];
    let self_closing = inside.ends_with('/');
    let mut attrs = HashMap::new();
    let mut rest = inside;
    // Skip the element name.
    if let Some(sp) = rest.find(|c: char| c.is_whitespace()) {
        rest = &rest[sp..];
        // attr="value" pairs.
        while let Some(eq) = rest.find('=') {
            let key = rest[..eq].trim().trim_end_matches('/').to_string();
            rest = &rest[eq + 1..];
            let Some(q0) = rest.find('"') else { break };
            rest = &rest[q0 + 1..];
            let Some(q1) = rest.find('"') else { break };
            attrs.insert(key, rest[..q1].to_string());
            rest = &rest[q1 + 1..];
        }
    }
    Ok((attrs, &input[end + 1..], self_closing))
}

fn parse_attr<T: std::str::FromStr>(
    attrs: &HashMap<String, String>,
    element: &'static str,
    attribute: &'static str,
) -> Result<T, OsmError> {
    let text = attrs
        .get(attribute)
        .ok_or(OsmError::MissingAttribute { element, attribute })?;
    text.parse::<T>().map_err(|_| OsmError::BadValue {
        attribute,
        text: text.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two square buildings near MIT, one non-building way.
    const SAMPLE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6" generator="test">
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
  <tag k="name" v="Test Hall"/>
 </way>
 <way id="101">
  <nd ref="5"/><nd ref="6"/><nd ref="7"/><nd ref="8"/><nd ref="5"/>
  <tag k="building" v="university"/>
 </way>
 <way id="102">
  <nd ref="1"/><nd ref="5"/>
  <tag k="highway" v="footway"/>
 </way>
</osm>"#;

    #[test]
    fn parses_building_ways_only() {
        let (polys, _) = parse_buildings(SAMPLE).unwrap();
        assert_eq!(polys.len(), 2, "the footway must be excluded");
    }

    #[test]
    fn footprint_dimensions_are_plausible() {
        let (polys, _) = parse_buildings(SAMPLE).unwrap();
        // 0.0004° lat ≈ 44.5 m; 0.0005° lon at 42.36° ≈ 41 m.
        for p in &polys {
            let area = p.area();
            assert!(
                (1000.0..4000.0).contains(&area),
                "area {area} m² out of plausible range"
            );
        }
    }

    #[test]
    fn load_city_assigns_ids() {
        let m = load_city("mit", SAMPLE).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.name(), "mit");
        assert_eq!(m.building(0).unwrap().id, 0);
    }

    #[test]
    fn attribute_order_does_not_matter() {
        let xml = r#"<osm>
 <node lon="-71.0" id="1" lat="42.0"/>
 <node lat="42.0" lon="-70.999" id="2"/>
 <node id="3" lat="42.001" lon="-70.999"/>
 <way id="9"><tag v="yes" k="building"/><nd ref="1"/><nd ref="2"/><nd ref="3"/></way>
</osm>"#;
        let (polys, _) = parse_buildings(xml).unwrap();
        assert_eq!(polys.len(), 1);
    }

    #[test]
    fn unknown_node_ref_errors() {
        let xml = r#"<osm>
 <node id="1" lat="42.0" lon="-71.0"/>
 <way id="9"><nd ref="1"/><nd ref="2"/><nd ref="3"/><tag k="building" v="yes"/></way>
</osm>"#;
        assert_eq!(
            parse_buildings(xml).unwrap_err(),
            OsmError::UnknownNodeRef(2)
        );
    }

    #[test]
    fn missing_lat_errors() {
        let xml = r#"<osm><node id="1" lon="-71.0"/></osm>"#;
        assert_eq!(
            parse_buildings(xml).unwrap_err(),
            OsmError::MissingAttribute {
                element: "node",
                attribute: "lat"
            }
        );
    }

    #[test]
    fn bad_coordinate_errors() {
        let xml = r#"<osm><node id="1" lat="ninety" lon="-71.0"/></osm>"#;
        assert!(matches!(
            parse_buildings(xml),
            Err(OsmError::BadValue {
                attribute: "lat",
                ..
            })
        ));
    }

    #[test]
    fn empty_input_reports_no_buildings() {
        assert_eq!(
            parse_buildings("<osm></osm>").unwrap_err(),
            OsmError::NoBuildings
        );
        assert_eq!(parse_buildings("").unwrap_err(), OsmError::NoBuildings);
    }

    #[test]
    fn truncated_elements_are_errors_not_panics() {
        // A multi-byte character where the closing `>` should be: the
        // cut used to land inside it.
        for xml in [
            "<node é",
            "<nodeé",
            "<osm><way id=\"1\"><nd ref=\"1\"",
            "<way></way",
        ] {
            assert_eq!(
                parse_buildings(xml).unwrap_err(),
                OsmError::UnclosedElement,
                "{xml:?}"
            );
        }
    }

    #[test]
    fn degenerate_ring_skipped() {
        // A "building" whose ring is a line segment.
        let xml = r#"<osm>
 <node id="1" lat="42.0" lon="-71.0"/>
 <node id="2" lat="42.0001" lon="-71.0"/>
 <way id="9"><nd ref="1"/><nd ref="2"/><nd ref="1"/><tag k="building" v="yes"/></way>
</osm>"#;
        assert_eq!(parse_buildings(xml).unwrap_err(), OsmError::NoBuildings);
    }
}
