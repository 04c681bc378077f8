//! The city model: buildings, obstacles, and the map container.

use citymesh_geo::{GridIndex, Point, Polygon, Rect};

/// A building footprint with its stable ID.
///
/// IDs index into [`CityMap::buildings`] and are what routes are made
/// of: the packet header carries waypoint building IDs, and every AP
/// resolves them through its cached copy of the same map (paper §3).
#[derive(Clone, Debug)]
pub struct Building {
    /// Stable ID, the index into the map's building vector.
    pub id: u32,
    /// The footprint polygon.
    pub footprint: Polygon,
    /// Cached footprint centroid (routing anchor point).
    pub centroid: Point,
    /// Cached footprint area, m².
    pub area: f64,
}

impl Building {
    /// Creates a building, caching centroid and area.
    pub fn new(id: u32, footprint: Polygon) -> Self {
        let centroid = footprint.centroid();
        let area = footprint.area();
        Building {
            id,
            footprint,
            centroid,
            area,
        }
    }
}

/// Category of a connectivity-blocking feature.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObstacleKind {
    /// A river or other water body.
    Water,
    /// A park or other large open green space.
    Park,
    /// A wide highway corridor.
    Highway,
}

/// A large feature with no buildings inside it. Obstacles do not block
/// radio directly — they create gaps in AP coverage by excluding
/// buildings, which is exactly the paper's observed failure mode
/// ("connectivity is occasionally interrupted by large features such
/// as highways, parks, and bodies of water", §4).
#[derive(Clone, Debug)]
pub struct Obstacle {
    /// What kind of feature this is.
    pub kind: ObstacleKind,
    /// The blocked region.
    pub region: Polygon,
}

/// Side, in meters, of a cell of every map's centroid index.
const INDEX_CELL_M: f64 = 100.0;

/// A city: named building and obstacle sets over a bounding box.
#[derive(Clone, Debug)]
pub struct CityMap {
    name: String,
    bounds: Rect,
    buildings: Vec<Building>,
    obstacles: Vec<Obstacle>,
    /// Spatial index over building centroids.
    index: GridIndex,
}

impl CityMap {
    /// Assembles a map. Buildings are re-indexed: they are sorted into
    /// row-major spatial order (centroid y, then x) and assigned
    /// sequential IDs, so nearby buildings get nearby IDs.
    pub fn new(
        name: impl Into<String>,
        footprints: Vec<Polygon>,
        obstacles: Vec<Obstacle>,
    ) -> Self {
        let mut order: Vec<(Point, Polygon)> =
            footprints.into_iter().map(|p| (p.centroid(), p)).collect();
        // Row-major in ~100 m bands: stable spatial locality for IDs.
        order.sort_by(|(a, _), (b, _)| {
            let band_a = (a.y / 100.0).floor();
            let band_b = (b.y / 100.0).floor();
            band_a
                .partial_cmp(&band_b)
                .expect("finite coordinates")
                .then(a.x.partial_cmp(&b.x).expect("finite coordinates"))
        });
        let buildings: Vec<Building> = order
            .into_iter()
            .enumerate()
            .map(|(i, (_, p))| Building::new(i as u32, p))
            .collect();
        Self::assemble(name.into(), buildings, obstacles)
    }

    /// Assembles a map from pre-built buildings **without re-sorting**
    /// — IDs must already equal each building's index. Used by the map
    /// cache codec, where preserving the encoded ID order is the whole
    /// point.
    ///
    /// # Panics
    /// Panics when any building's ID disagrees with its position.
    pub fn from_parts_in_order(
        name: impl Into<String>,
        buildings: Vec<Building>,
        obstacles: Vec<Obstacle>,
    ) -> Self {
        assert!(
            buildings
                .iter()
                .enumerate()
                .all(|(i, b)| b.id as usize == i),
            "building IDs must equal their indices"
        );
        Self::assemble(name.into(), buildings, obstacles)
    }

    /// Returns a new map with `extra` footprints appended **after**
    /// the existing buildings, preserving every existing building ID.
    /// New buildings receive IDs `len()..len() + extra.len()` in the
    /// given order.
    ///
    /// This is how infrastructure additions (e.g. bridge relay huts,
    /// see `citymesh_place::apply_bridges`) are modeled: devices caching the
    /// old map still resolve every old ID; only the appended entries
    /// are new.
    pub fn extended_with(&self, extra: Vec<Polygon>, suffix: &str) -> CityMap {
        let mut buildings = self.buildings.clone();
        for fp in extra {
            buildings.push(Building::new(buildings.len() as u32, fp));
        }
        let name = format!("{}{}", self.name, suffix);
        Self::assemble(name, buildings, self.obstacles.clone())
    }

    /// The one place a map is put together from its ID-ordered
    /// buildings: the bounds over every footprint and obstacle (the
    /// origin alone for an empty map) and the centroid index.
    fn assemble(name: String, buildings: Vec<Building>, obstacles: Vec<Obstacle>) -> Self {
        let centroids: Vec<Point> = buildings.iter().map(|b| b.centroid).collect();
        let bounds = buildings
            .iter()
            .map(|b| b.footprint.bbox())
            .chain(obstacles.iter().map(|o| o.region.bbox()))
            .reduce(|a, b| a.union(&b))
            .unwrap_or(Rect {
                min: Point::ORIGIN,
                max: Point::ORIGIN,
            });
        let index = GridIndex::build(&centroids, INDEX_CELL_M);
        CityMap {
            name,
            bounds,
            buildings,
            obstacles,
            index,
        }
    }

    /// The city's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bounding box of everything in the map.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// All buildings, ordered by ID.
    pub fn buildings(&self) -> &[Building] {
        &self.buildings
    }

    /// Number of buildings.
    pub fn len(&self) -> usize {
        self.buildings.len()
    }

    /// Whether the map has no buildings.
    pub fn is_empty(&self) -> bool {
        self.buildings.is_empty()
    }

    /// The building with `id`, or `None` when out of range.
    pub fn building(&self, id: u32) -> Option<&Building> {
        self.buildings.get(id as usize)
    }

    /// All obstacles.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// The spatial index over building centroids; item ids are
    /// building ids.
    pub fn centroid_index(&self) -> &GridIndex {
        &self.index
    }

    /// The building whose centroid is nearest `p`.
    pub fn nearest_building(&self, p: Point) -> Option<&Building> {
        self.index
            .nearest(p)
            .map(|(id, _)| &self.buildings[id as usize])
    }

    /// IDs of buildings whose centroid lies within `radius` of `p`.
    pub fn buildings_within(&self, p: Point, radius: f64) -> Vec<u32> {
        self.index.query_circle(p, radius)
    }

    /// Whether `p` lies inside any obstacle region.
    pub fn in_obstacle(&self, p: Point) -> bool {
        self.obstacles.iter().any(|o| o.region.contains(p))
    }

    /// Summary statistics for reports and tests.
    pub fn stats(&self) -> MapStats {
        let n = self.buildings.len();
        let total_area: f64 = self.buildings.iter().map(|b| b.area).sum();
        let mut areas: Vec<f64> = self.buildings.iter().map(|b| b.area).collect();
        areas.sort_by(|a, b| a.partial_cmp(b).expect("finite areas"));
        let median_area = if n == 0 { 0.0 } else { areas[n / 2] };
        let extent = self.bounds.area();
        MapStats {
            buildings: n,
            obstacles: self.obstacles.len(),
            total_building_area_m2: total_area,
            median_building_area_m2: median_area,
            built_fraction: if extent > 0.0 {
                total_area / extent
            } else {
                0.0
            },
        }
    }
}

/// Aggregate map statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapStats {
    /// Number of buildings.
    pub buildings: usize,
    /// Number of obstacle regions.
    pub obstacles: usize,
    /// Sum of footprint areas, m².
    pub total_building_area_m2: f64,
    /// Median footprint area, m².
    pub median_building_area_m2: f64,
    /// Fraction of the bounding box covered by buildings.
    pub built_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_at(x: f64, y: f64, side: f64) -> Polygon {
        Polygon::rect(Rect::from_corners(
            Point::new(x, y),
            Point::new(x + side, y + side),
        ))
    }

    fn small_map() -> CityMap {
        CityMap::new(
            "testville",
            vec![
                square_at(0.0, 0.0, 10.0),
                square_at(200.0, 0.0, 10.0),
                square_at(0.0, 200.0, 10.0),
                square_at(200.0, 200.0, 10.0),
            ],
            vec![Obstacle {
                kind: ObstacleKind::Water,
                region: square_at(90.0, 90.0, 20.0),
            }],
        )
    }

    #[test]
    fn ids_are_sequential_and_spatially_ordered() {
        let m = small_map();
        assert_eq!(m.len(), 4);
        for (i, b) in m.buildings().iter().enumerate() {
            assert_eq!(b.id, i as u32);
        }
        // Row-major: the two y≈0 buildings come before the y≈200 ones,
        // and within a band x ascends.
        assert!(m.building(0).unwrap().centroid.y < 100.0);
        assert!(m.building(1).unwrap().centroid.y < 100.0);
        assert!(m.building(0).unwrap().centroid.x < m.building(1).unwrap().centroid.x);
        assert!(m.building(2).unwrap().centroid.y > 100.0);
    }

    #[test]
    fn lookup_and_bounds() {
        let m = small_map();
        assert!(m.building(4).is_none());
        assert_eq!(m.name(), "testville");
        let b = m.bounds();
        assert_eq!(b.min, Point::new(0.0, 0.0));
        assert_eq!(b.max, Point::new(210.0, 210.0));
    }

    #[test]
    fn nearest_building_by_centroid() {
        let m = small_map();
        let near = m.nearest_building(Point::new(198.0, 4.0)).unwrap();
        assert_eq!(near.centroid, Point::new(205.0, 5.0));
    }

    #[test]
    fn obstacle_queries() {
        let m = small_map();
        assert!(m.in_obstacle(Point::new(100.0, 100.0)));
        assert!(!m.in_obstacle(Point::new(5.0, 5.0)));
        assert_eq!(m.obstacles().len(), 1);
        assert_eq!(m.obstacles()[0].kind, ObstacleKind::Water);
    }

    #[test]
    fn stats_are_consistent() {
        let m = small_map();
        let s = m.stats();
        assert_eq!(s.buildings, 4);
        assert_eq!(s.obstacles, 1);
        assert_eq!(s.total_building_area_m2, 400.0);
        assert_eq!(s.median_building_area_m2, 100.0);
        assert!(s.built_fraction > 0.0 && s.built_fraction < 1.0);
    }

    #[test]
    fn empty_map() {
        let m = CityMap::new("ghost town", vec![], vec![]);
        assert!(m.is_empty());
        assert!(m.nearest_building(Point::ORIGIN).is_none());
        assert_eq!(m.stats().buildings, 0);
        assert_eq!(m.stats().median_building_area_m2, 0.0);
    }

    #[test]
    fn buildings_within_radius() {
        let m = small_map();
        let hits = m.buildings_within(Point::new(0.0, 0.0), 50.0);
        assert_eq!(hits.len(), 1);
        let all = m.buildings_within(Point::new(105.0, 105.0), 1000.0);
        assert_eq!(all.len(), 4);
    }
}
