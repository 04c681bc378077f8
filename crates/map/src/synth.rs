//! Deterministic synthetic city generation.
//!
//! Substitutes for the paper's OSM extracts of real cities
//! (DESIGN.md §1). A city is a street grid of blocks subdivided into
//! lots, each lot holding a jittered rectangular building with some
//! probability, minus large obstacle regions (rivers, parks, highway
//! corridors) that remove every intersecting building. The obstacles
//! are what give each city its island structure — the feature the
//! paper's evaluation highlights (Washington D.C. fracturing, §4).
//!
//! Every archetype is generated from an explicit parameter set, so
//! ablations can sweep any knob; `generate(params, seed)` is a pure
//! function of its arguments.

use citymesh_geo::{Point, Polygon, Rect, Vec2};
use citymesh_simcore::{split_seed, substream_seed, SimRng};

use crate::city::{CityMap, Obstacle, ObstacleKind};

/// A parametric obstacle.
#[derive(Clone, Debug)]
pub enum ObstacleSpec {
    /// A band crossing the map horizontally (west–east), e.g. a river.
    /// `y_frac` positions its centerline as a fraction of map height;
    /// `meander_m` is the sinusoidal amplitude of the centerline.
    HorizontalBand {
        /// Feature kind.
        kind: ObstacleKind,
        /// Centerline position, fraction of map height in `[0, 1]`.
        y_frac: f64,
        /// Band width, meters.
        width_m: f64,
        /// Meander amplitude, meters.
        meander_m: f64,
        /// Number of bridge crossings: gaps left in the band where a
        /// bridge road crosses (buildings survive near bridgeheads,
        /// carrying connectivity over — as in real cities).
        bridges: usize,
    },
    /// A band crossing the map vertically (south–north).
    VerticalBand {
        /// Feature kind.
        kind: ObstacleKind,
        /// Centerline position, fraction of map width in `[0, 1]`.
        x_frac: f64,
        /// Band width, meters.
        width_m: f64,
        /// Meander amplitude, meters.
        meander_m: f64,
        /// Bridge crossings (see the horizontal variant).
        bridges: usize,
    },
    /// A band along the SW→NE diagonal (e.g. a diagonal avenue).
    DiagonalBand {
        /// Feature kind.
        kind: ObstacleKind,
        /// Band width, meters.
        width_m: f64,
        /// Bridge crossings (see the horizontal variant).
        bridges: usize,
    },
    /// An axis-aligned rectangular region (e.g. a park).
    RectRegion {
        /// Feature kind.
        kind: ObstacleKind,
        /// Left edge, fraction of map width.
        x_frac: f64,
        /// Bottom edge, fraction of map height.
        y_frac: f64,
        /// Width, fraction of map width.
        w_frac: f64,
        /// Height, fraction of map height.
        h_frac: f64,
    },
}

/// Full parameter set for one synthetic city.
#[derive(Clone, Debug)]
pub struct CityParams {
    /// City name (propagates to [`CityMap::name`]).
    pub name: String,
    /// Map extent west–east, meters.
    pub width_m: f64,
    /// Map extent south–north, meters.
    pub height_m: f64,
    /// Block size along x, meters.
    pub block_w: f64,
    /// Block size along y, meters.
    pub block_h: f64,
    /// Street width between blocks, meters.
    pub street_w: f64,
    /// Target building lot side, meters.
    pub lot_size: f64,
    /// Probability a lot receives a building.
    pub fill: f64,
    /// Fractional size noise (0 = all lots identical).
    pub size_jitter: f64,
    /// Positional noise, meters.
    pub pos_jitter: f64,
    /// Rotation noise, radians (σ of a normal).
    pub rotation_jitter: f64,
    /// Obstacles to carve out.
    pub obstacles: Vec<ObstacleSpec>,
}

/// Named city and survey-area archetypes.
///
/// The first eight are full cities for the Figure-6 style evaluation;
/// the last four are the §2 measurement areas (downtown, campus,
/// residential, river).
///
/// ```
/// use citymesh_map::CityArchetype;
///
/// let map = CityArchetype::SurveyDowntown.generate(42);
/// assert!(map.len() > 300, "downtown is dense");
/// // Same seed, same city — everything downstream is reproducible.
/// assert_eq!(map.len(), CityArchetype::SurveyDowntown.generate(42).len());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CityArchetype {
    /// Dense, irregular grid with a meandering river along the north.
    Boston,
    /// Medium-density grid south of a river.
    Cambridge,
    /// Very dense, highly regular grid with a vertical river.
    Chicago,
    /// Medium grid cut by a wide park mall, a diagonal avenue, and a
    /// river — fractures into islands (the paper's highlighted case).
    WashingtonDc,
    /// Sprawling low-density blocks crossed by two wide highways.
    Houston,
    /// Dense grid with a large park strip on the west side.
    SanFrancisco,
    /// Medium density split by a broad north–south waterway.
    Seattle,
    /// Extremely dense small blocks around a large central park.
    NewYork,
    /// §2 survey area: downtown core (highest AP density).
    SurveyDowntown,
    /// §2 survey area: university campus (large buildings, quads).
    SurveyCampus,
    /// §2 survey area: residential neighborhood.
    SurveyResidential,
    /// §2 survey area: river banks (sparsest, tests inter-island links).
    SurveyRiver,
}

impl CityArchetype {
    /// The eight full-city archetypes, in evaluation order.
    pub fn cities() -> [CityArchetype; 8] {
        [
            CityArchetype::Boston,
            CityArchetype::Cambridge,
            CityArchetype::Chicago,
            CityArchetype::WashingtonDc,
            CityArchetype::Houston,
            CityArchetype::SanFrancisco,
            CityArchetype::Seattle,
            CityArchetype::NewYork,
        ]
    }

    /// The four §2 survey areas.
    pub fn survey_areas() -> [CityArchetype; 4] {
        [
            CityArchetype::SurveyDowntown,
            CityArchetype::SurveyCampus,
            CityArchetype::SurveyResidential,
            CityArchetype::SurveyRiver,
        ]
    }

    /// Short lowercase label for tables and filenames.
    pub fn label(self) -> &'static str {
        match self {
            CityArchetype::Boston => "boston",
            CityArchetype::Cambridge => "cambridge",
            CityArchetype::Chicago => "chicago",
            CityArchetype::WashingtonDc => "washington-dc",
            CityArchetype::Houston => "houston",
            CityArchetype::SanFrancisco => "san-francisco",
            CityArchetype::Seattle => "seattle",
            CityArchetype::NewYork => "new-york",
            CityArchetype::SurveyDowntown => "downtown",
            CityArchetype::SurveyCampus => "campus",
            CityArchetype::SurveyResidential => "residential",
            CityArchetype::SurveyRiver => "river",
        }
    }

    /// The generator parameters for this archetype.
    pub fn params(self) -> CityParams {
        use CityArchetype::*;
        use ObstacleKind::*;
        let base = CityParams {
            name: self.label().to_string(),
            width_m: 1500.0,
            height_m: 1500.0,
            block_w: 90.0,
            block_h: 90.0,
            street_w: 15.0,
            lot_size: 28.0,
            fill: 0.8,
            size_jitter: 0.15,
            pos_jitter: 2.0,
            rotation_jitter: 0.0,
            obstacles: vec![],
        };
        match self {
            Boston => CityParams {
                block_w: 80.0,
                block_h: 70.0,
                lot_size: 24.0,
                fill: 0.85,
                pos_jitter: 4.0,
                rotation_jitter: 0.12,
                obstacles: vec![ObstacleSpec::HorizontalBand {
                    kind: Water,
                    y_frac: 0.88,
                    width_m: 170.0,
                    meander_m: 35.0,
                    bridges: 2,
                }],
                ..base
            },
            Cambridge => CityParams {
                block_w: 95.0,
                block_h: 85.0,
                fill: 0.78,
                pos_jitter: 3.0,
                rotation_jitter: 0.06,
                obstacles: vec![ObstacleSpec::HorizontalBand {
                    kind: Water,
                    y_frac: 0.08,
                    width_m: 150.0,
                    meander_m: 25.0,
                    bridges: 2,
                }],
                ..base
            },
            Chicago => CityParams {
                block_w: 75.0,
                block_h: 75.0,
                lot_size: 23.0,
                fill: 0.9,
                pos_jitter: 1.0,
                obstacles: vec![ObstacleSpec::VerticalBand {
                    kind: Water,
                    x_frac: 0.3,
                    width_m: 60.0,
                    meander_m: 20.0,
                    bridges: 3,
                }],
                ..base
            },
            WashingtonDc => CityParams {
                fill: 0.75,
                obstacles: vec![
                    ObstacleSpec::RectRegion {
                        kind: Park,
                        x_frac: 0.1,
                        y_frac: 0.42,
                        w_frac: 0.8,
                        h_frac: 0.14,
                    },
                    ObstacleSpec::DiagonalBand {
                        kind: Highway,
                        width_m: 55.0,
                        bridges: 1,
                    },
                    ObstacleSpec::HorizontalBand {
                        kind: Water,
                        y_frac: 0.06,
                        width_m: 140.0,
                        meander_m: 20.0,
                        bridges: 1,
                    },
                ],
                ..base
            },
            Houston => CityParams {
                block_w: 110.0,
                block_h: 110.0,
                street_w: 18.0,
                lot_size: 32.0,
                fill: 0.72,
                obstacles: vec![
                    ObstacleSpec::HorizontalBand {
                        kind: Highway,
                        y_frac: 0.5,
                        width_m: 70.0,
                        meander_m: 0.0,
                        bridges: 1,
                    },
                    ObstacleSpec::VerticalBand {
                        kind: Highway,
                        x_frac: 0.5,
                        width_m: 70.0,
                        meander_m: 0.0,
                        bridges: 1,
                    },
                ],
                ..base
            },
            SanFrancisco => CityParams {
                block_w: 85.0,
                block_h: 70.0,
                fill: 0.85,
                pos_jitter: 2.5,
                obstacles: vec![ObstacleSpec::RectRegion {
                    kind: Park,
                    x_frac: 0.0,
                    y_frac: 0.35,
                    w_frac: 0.28,
                    h_frac: 0.16,
                }],
                ..base
            },
            Seattle => CityParams {
                fill: 0.75,
                pos_jitter: 3.0,
                obstacles: vec![ObstacleSpec::VerticalBand {
                    kind: Water,
                    x_frac: 0.55,
                    width_m: 230.0,
                    meander_m: 30.0,
                    bridges: 1,
                }],
                ..base
            },
            NewYork => CityParams {
                block_w: 70.0,
                block_h: 60.0,
                street_w: 13.0,
                lot_size: 21.0,
                fill: 0.92,
                pos_jitter: 1.0,
                obstacles: vec![ObstacleSpec::RectRegion {
                    kind: Park,
                    x_frac: 0.38,
                    y_frac: 0.3,
                    w_frac: 0.24,
                    h_frac: 0.4,
                }],
                ..base
            },
            SurveyDowntown => CityParams {
                width_m: 800.0,
                height_m: 800.0,
                block_w: 75.0,
                block_h: 75.0,
                lot_size: 23.0,
                fill: 0.92,
                pos_jitter: 2.0,
                ..base
            },
            SurveyCampus => CityParams {
                width_m: 800.0,
                height_m: 800.0,
                block_w: 160.0,
                block_h: 160.0,
                street_w: 30.0,
                lot_size: 55.0,
                fill: 0.55,
                ..base
            },
            SurveyResidential => CityParams {
                width_m: 800.0,
                height_m: 800.0,
                block_w: 110.0,
                block_h: 95.0,
                lot_size: 30.0,
                fill: 0.72,
                pos_jitter: 3.5,
                rotation_jitter: 0.05,
                ..base
            },
            SurveyRiver => CityParams {
                width_m: 800.0,
                height_m: 800.0,
                block_w: 110.0,
                block_h: 100.0,
                lot_size: 30.0,
                fill: 0.55,
                obstacles: vec![ObstacleSpec::HorizontalBand {
                    kind: Water,
                    y_frac: 0.5,
                    width_m: 220.0,
                    meander_m: 40.0,
                    bridges: 0,
                }],
                ..base
            },
        }
    }

    /// Generates this archetype's map with `seed`.
    pub fn generate(self, seed: u64) -> CityMap {
        generate(&self.params(), seed)
    }
}

/// Generates a city from explicit parameters. Pure in
/// `(params, seed)`.
pub fn generate(params: &CityParams, seed: u64) -> CityMap {
    let mut rng = SimRng::new(split_seed(seed, 0xC171));
    let obstacles = build_obstacles(params, &mut rng);
    let mut footprints = Vec::new();

    let pitch_x = params.block_w + params.street_w;
    let pitch_y = params.block_h + params.street_w;
    let mut oy = params.street_w;
    while oy + params.block_h <= params.height_m {
        let mut ox = params.street_w;
        while ox + params.block_w <= params.width_m {
            fill_block(params, ox, oy, &mut rng, &mut footprints);
            ox += pitch_x;
        }
        oy += pitch_y;
    }

    // Carve obstacles: drop every building that touches one.
    let kept: Vec<Polygon> = footprints
        .into_iter()
        .filter(|fp| {
            let bb = fp.bbox();
            !obstacles
                .iter()
                .any(|o| o.region.bbox().intersects(&bb) && fp.dist_to_polygon(&o.region) == 0.0)
        })
        .collect();

    CityMap::new(params.name.clone(), kept, obstacles)
}

/// Side of one metro tile, meters — the extent of every full-city
/// archetype (see [`CityArchetype::params`]).
pub const METRO_TILE_M: f64 = 1500.0;

/// RNG sub-stream domain for per-tile metro generation.
const DOMAIN_METRO_TILE: u64 = 0x3E70;

/// Width of the arterial corridor between adjacent tiles, meters.
const ARTERIAL_GAP_M: f64 = 24.0;
/// Tile pitch (tile side plus corridor width), meters.
const PITCH_M: f64 = METRO_TILE_M + ARTERIAL_GAP_M;
/// Center-to-center spacing of relay buildings along a corridor,
/// meters: it leaves an edge-to-edge gap below the building-graph
/// `max_gap_m` (40 m at the default range), so chains link.
const RELAY_SPACING_M: f64 = 28.0;
/// Side of the square relay buildings, meters.
const RELAY_SIZE_M: f64 = 10.0;
/// How deep on-ramp relay chains reach into a tile from its east and
/// north corridors, meters. Tile street grids start flush against
/// their west/south edges but can leave up to ~80 m of empty margin on
/// the east/north (wherever the block pitch doesn't divide the tile
/// side), so those sides need ramps to reach the built-up area.
const RAMP_DEPTH_M: f64 = 150.0;

/// Parameters for metro-scale generation: a `tiles_x × tiles_y` grid
/// of full-city archetype tiles separated by arterial corridors. The
/// map is named `metro-{tiles_x}x{tiles_y}`.
///
/// Each corridor carries a chain of small *relay buildings* (street
/// cabinets, kiosks, transit shelters — urban furniture that hosts
/// APs) so predicted connectivity bridges the inter-tile gap; without
/// them the >40 m gap between tiles would sever every district from
/// its neighbors. Corridors double as the inter-district arterial
/// conduits the hierarchical planner routes over.
#[derive(Clone, Copy, Debug)]
pub struct MetroParams {
    /// Tile columns (west–east).
    pub tiles_x: usize,
    /// Tile rows (south–north).
    pub tiles_y: usize,
}

impl MetroParams {
    /// Parameters for a `tiles_x × tiles_y` metro.
    pub fn with_tiles(tiles_x: usize, tiles_y: usize) -> Self {
        MetroParams { tiles_x, tiles_y }
    }

    /// Rejects a zero tile count with a typed error before any tile is
    /// generated.
    pub fn validate(&self) -> Result<(), MetroParamsError> {
        if self.tiles_x == 0 || self.tiles_y == 0 {
            return Err(MetroParamsError::ZeroTiles {
                tiles_x: self.tiles_x,
                tiles_y: self.tiles_y,
            });
        }
        Ok(())
    }
}

/// Rejected [`MetroParams`]: the generator refuses degenerate grids
/// with a typed error instead of panicking mid-generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetroParamsError {
    /// A zero tile count in either dimension: no city to generate.
    ZeroTiles {
        /// Requested columns.
        tiles_x: usize,
        /// Requested rows.
        tiles_y: usize,
    },
}

impl std::fmt::Display for MetroParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetroParamsError::ZeroTiles { tiles_x, tiles_y } => write!(
                f,
                "metro needs at least one tile in each dimension (got {tiles_x}x{tiles_y})"
            ),
        }
    }
}

impl std::error::Error for MetroParamsError {}

impl Default for MetroParams {
    fn default() -> Self {
        MetroParams::with_tiles(4, 4)
    }
}

/// Generates a metro-scale city: the eight full-city archetypes tiled
/// cyclically into a `tiles_x × tiles_y` grid, stitched by arterial
/// relay chains. Pure in `(params, seed)`.
///
/// Each tile is generated with its own RNG sub-stream
/// (`substream_seed(seed, DOMAIN, tile_ordinal)`), so tile contents
/// are independent of grid dimensions: tile (0,0) of a 2×2 metro and
/// of a 10×10 metro are identical. Obstacles stay per-tile during
/// carving but are not retained in the output map (at 100k+ buildings
/// the routing layers never consult them and the polygons would
/// dominate memory).
///
/// # Panics
/// Panics on zero tile counts ([`MetroParams::validate`]). Use
/// [`try_generate_metro`] for a `Result` instead.
pub fn generate_metro(params: &MetroParams, seed: u64) -> CityMap {
    try_generate_metro(params, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`generate_metro`] with degenerate parameters as a typed error
/// instead of a panic.
pub fn try_generate_metro(params: &MetroParams, seed: u64) -> Result<CityMap, MetroParamsError> {
    params.validate()?;
    Ok(generate_metro_validated(params, seed))
}

/// The metro generator proper; `params` has already passed
/// [`MetroParams::validate`].
fn generate_metro_validated(params: &MetroParams, seed: u64) -> CityMap {
    let archetypes = CityArchetype::cities();
    let mut footprints = Vec::new();

    for ty in 0..params.tiles_y {
        for tx in 0..params.tiles_x {
            let ordinal = (ty * params.tiles_x + tx) as u64;
            let arch = archetypes[ordinal as usize % archetypes.len()];
            let tile = generate(
                &arch.params(),
                substream_seed(seed, DOMAIN_METRO_TILE, ordinal),
            );
            let offset = Vec2 {
                x: tx as f64 * PITCH_M,
                y: ty as f64 * PITCH_M,
            };
            for b in tile.buildings() {
                footprints.push(translated(&b.footprint, offset));
            }
        }
    }

    // Full extent of the built-up area (last tile has no trailing
    // corridor).
    let total_w = params.tiles_x as f64 * PITCH_M - ARTERIAL_GAP_M;
    let total_h = params.tiles_y as f64 * PITCH_M - ARTERIAL_GAP_M;

    // Arterial corridors: one relay chain down the center of every
    // inter-tile gap, spanning the whole metro. Vertical and
    // horizontal chains cross within relay spacing of each other at
    // intersections, so the arterial grid is itself connected.
    for gx in 1..params.tiles_x {
        let cx = gx as f64 * PITCH_M - ARTERIAL_GAP_M / 2.0;
        relay_chain(
            Point::new(cx, 0.0),
            Vec2 { x: 0.0, y: 1.0 },
            total_h,
            &mut footprints,
        );
    }
    for gy in 1..params.tiles_y {
        let cy = gy as f64 * PITCH_M - ARTERIAL_GAP_M / 2.0;
        relay_chain(
            Point::new(0.0, cy),
            Vec2 { x: 1.0, y: 0.0 },
            total_w,
            &mut footprints,
        );
    }

    // On-ramps. A tile's street grid starts `street_w` from its west
    // and south edges — within predicted range of those corridors —
    // but its east/north margins depend on how the block PITCH_M divides
    // the tile side and can exceed the connectivity gap. Three
    // perpendicular ramp chains per served side reach from the
    // corridor into the built-up interior.
    let ramp_fracs = [0.25, 0.5, 0.75];
    for ty in 0..params.tiles_y {
        for tx in 0..params.tiles_x {
            let ox = tx as f64 * PITCH_M;
            let oy = ty as f64 * PITCH_M;
            if tx + 1 < params.tiles_x {
                // East corridor, ramps reaching west into this tile.
                let cx = (tx + 1) as f64 * PITCH_M - ARTERIAL_GAP_M / 2.0;
                for f in ramp_fracs {
                    relay_chain(
                        Point::new(cx, oy + f * METRO_TILE_M),
                        Vec2 { x: -1.0, y: 0.0 },
                        RAMP_DEPTH_M,
                        &mut footprints,
                    );
                }
            }
            if ty + 1 < params.tiles_y {
                // North corridor, ramps reaching south into this tile.
                let cy = (ty + 1) as f64 * PITCH_M - ARTERIAL_GAP_M / 2.0;
                for f in ramp_fracs {
                    relay_chain(
                        Point::new(ox + f * METRO_TILE_M, cy),
                        Vec2 { x: 0.0, y: -1.0 },
                        RAMP_DEPTH_M,
                        &mut footprints,
                    );
                }
            }
        }
    }

    let name = format!("metro-{}x{}", params.tiles_x, params.tiles_y);
    CityMap::new(name, footprints, Vec::new())
}

/// `poly` translated by `offset`.
fn translated(poly: &Polygon, offset: Vec2) -> Polygon {
    Polygon::new(poly.ring().iter().map(|&p| p + offset).collect())
        .expect("translation preserves polygon validity")
}

/// Appends a chain of square relay buildings starting at `start` and
/// marching along unit direction `dir` for `span` meters.
fn relay_chain(start: Point, dir: Vec2, span: f64, out: &mut Vec<Polygon>) {
    let half = RELAY_SIZE_M / 2.0;
    let mut s = half;
    while s + half <= span + 1e-9 {
        let c = start + dir * s;
        out.push(Polygon::rect(Rect::from_corners(
            Point::new(c.x - half, c.y - half),
            Point::new(c.x + half, c.y + half),
        )));
        s += RELAY_SPACING_M;
    }
}

/// Fills one block with jittered lot buildings.
fn fill_block(params: &CityParams, ox: f64, oy: f64, rng: &mut SimRng, out: &mut Vec<Polygon>) {
    let nx = (params.block_w / params.lot_size).floor().max(1.0) as usize;
    let ny = (params.block_h / params.lot_size).floor().max(1.0) as usize;
    let lot_w = params.block_w / nx as f64;
    let lot_h = params.block_h / ny as f64;

    for iy in 0..ny {
        for ix in 0..nx {
            if !rng.chance(params.fill) {
                continue;
            }
            // Inset the building within its lot, then jitter.
            let margin = 0.12;
            let jw = 1.0 + params.size_jitter * (rng.uniform() * 2.0 - 1.0);
            let jh = 1.0 + params.size_jitter * (rng.uniform() * 2.0 - 1.0);
            let w = (lot_w * (1.0 - 2.0 * margin) * jw).max(4.0);
            let h = (lot_h * (1.0 - 2.0 * margin) * jh).max(4.0);
            let cx =
                ox + (ix as f64 + 0.5) * lot_w + params.pos_jitter * (rng.uniform() * 2.0 - 1.0);
            let cy =
                oy + (iy as f64 + 0.5) * lot_h + params.pos_jitter * (rng.uniform() * 2.0 - 1.0);
            let rect = Polygon::rect(Rect::from_corners(
                Point::new(cx - w / 2.0, cy - h / 2.0),
                Point::new(cx + w / 2.0, cy + h / 2.0),
            ));
            let poly = if params.rotation_jitter > 0.0 {
                let angle = params.rotation_jitter * rng.std_normal();
                rect.rotated(Point::new(cx, cy), angle)
            } else {
                rect
            };
            out.push(poly);
        }
    }
}

/// Width of the building-bearing corridor left in a band at each
/// bridge crossing, meters. A full block pitch, so at least one column
/// of buildings always survives inside the corridor (real bridgeheads
/// cluster development the same way).
const BRIDGE_GAP_M: f64 = 120.0;

/// Materializes obstacle specs into polygons. Bands with `bridges > 0`
/// become several disjoint polygons with [`BRIDGE_GAP_M`] corridors
/// between them.
fn build_obstacles(params: &CityParams, rng: &mut SimRng) -> Vec<Obstacle> {
    let mut out = Vec::new();
    for spec in &params.obstacles {
        match *spec {
            ObstacleSpec::HorizontalBand {
                kind,
                y_frac,
                width_m,
                meander_m,
                bridges,
            } => {
                let phase = rng.uniform_range(0.0, std::f64::consts::TAU);
                for region in band_polygons(
                    params.width_m,
                    y_frac * params.height_m,
                    width_m,
                    meander_m,
                    phase,
                    false,
                    bridges,
                ) {
                    out.push(Obstacle { kind, region });
                }
            }
            ObstacleSpec::VerticalBand {
                kind,
                x_frac,
                width_m,
                meander_m,
                bridges,
            } => {
                let phase = rng.uniform_range(0.0, std::f64::consts::TAU);
                for region in band_polygons(
                    params.height_m,
                    x_frac * params.width_m,
                    width_m,
                    meander_m,
                    phase,
                    true,
                    bridges,
                ) {
                    out.push(Obstacle { kind, region });
                }
            }
            ObstacleSpec::DiagonalBand {
                kind,
                width_m,
                bridges,
            } => {
                let half = width_m / 2.0;
                // Strip along the SW→NE diagonal, offset perpendicular,
                // extended past the corners so it fully crosses.
                let d = Point::new(params.width_m, params.height_m) - Point::ORIGIN;
                let n = d.normalized().expect("nonzero map extent").perp() * half;
                let start = Point::ORIGIN - d * 0.1;
                let dir = d * 1.2;
                let gap_t = BRIDGE_GAP_M / dir.norm();
                for (t0, t1) in segment_spans(bridges, gap_t) {
                    let a = start + dir * t0;
                    let b = start + dir * t1;
                    out.push(Obstacle {
                        kind,
                        region: Polygon::new(vec![a - n, b - n, b + n, a + n])
                            .expect("strip is a valid quad"),
                    });
                }
            }
            ObstacleSpec::RectRegion {
                kind,
                x_frac,
                y_frac,
                w_frac,
                h_frac,
            } => {
                out.push(Obstacle {
                    kind,
                    region: Polygon::rect(Rect::from_corners(
                        Point::new(x_frac * params.width_m, y_frac * params.height_m),
                        Point::new(
                            (x_frac + w_frac) * params.width_m,
                            (y_frac + h_frac) * params.height_m,
                        ),
                    )),
                });
            }
        }
    }
    out
}

/// Splits the unit parameter range into `bridges + 1` spans separated
/// by gaps of normalized width `gap_t`, returned as `(t0, t1)` pairs.
fn segment_spans(bridges: usize, gap_t: f64) -> Vec<(f64, f64)> {
    let n = bridges + 1;
    let gap_t = gap_t.min(0.5 / n as f64);
    let seg = (1.0 - gap_t * bridges as f64) / n as f64;
    (0..n)
        .map(|i| {
            let t0 = i as f64 * (seg + gap_t);
            (t0, t0 + seg)
        })
        .collect()
}

/// Meandering band polygons crossing the full extent: the centerline
/// is `center + meander · sin(2πs/λ + phase)` sampled every 50 m,
/// split into `bridges + 1` pieces with [`BRIDGE_GAP_M`] corridors.
/// `transpose` swaps axes to make a vertical band.
fn band_polygons(
    span: f64,
    center: f64,
    width: f64,
    meander: f64,
    phase: f64,
    transpose: bool,
    bridges: usize,
) -> Vec<Polygon> {
    let wavelength = 600.0;
    let half = width / 2.0;
    segment_spans(bridges, BRIDGE_GAP_M / span)
        .into_iter()
        .map(|(t0, t1)| {
            let (s0, s1) = (span * t0, span * t1);
            let steps = (((s1 - s0) / 50.0).ceil() as usize).max(2);
            let mut upper = Vec::with_capacity(steps + 1);
            let mut lower = Vec::with_capacity(steps + 1);
            for i in 0..=steps {
                let s = s0 + (s1 - s0) * i as f64 / steps as f64;
                let c = center + meander * (std::f64::consts::TAU * s / wavelength + phase).sin();
                let (u, l) = (c + half, c - half);
                if transpose {
                    upper.push(Point::new(u, s));
                    lower.push(Point::new(l, s));
                } else {
                    upper.push(Point::new(s, u));
                    lower.push(Point::new(s, l));
                }
            }
            lower.reverse();
            upper.extend(lower);
            Polygon::new(upper).expect("band has ≥ 4 vertices")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = CityArchetype::Boston.generate(7);
        let b = CityArchetype::Boston.generate(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.buildings().iter().zip(b.buildings()) {
            assert_eq!(x.centroid, y.centroid);
            assert_eq!(x.area, y.area);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = CityArchetype::Boston.generate(1);
        let b = CityArchetype::Boston.generate(2);
        // Same parameters give similar counts but not identical layout.
        let same = a
            .buildings()
            .iter()
            .zip(b.buildings())
            .filter(|(x, y)| x.centroid == y.centroid)
            .count();
        assert!(same < a.len() / 2, "layouts should differ between seeds");
    }

    #[test]
    fn all_archetypes_generate_nonempty() {
        for arch in CityArchetype::cities()
            .into_iter()
            .chain(CityArchetype::survey_areas())
        {
            let m = arch.generate(42);
            // Full cities are ~1500 m square; survey areas are smaller
            // and the campus archetype is deliberately sparse.
            let min = if CityArchetype::cities().contains(&arch) {
                300
            } else {
                30
            };
            assert!(
                m.len() > min,
                "{} produced only {} buildings",
                arch.label(),
                m.len()
            );
            assert_eq!(m.name(), arch.label());
            // All footprints must lie within the declared extent
            // (small jitter slack allowed).
            let p = arch.params();
            let bounds = m.bounds();
            assert!(bounds.max.x <= p.width_m * 1.15 + 1.0);
            assert!(bounds.max.y <= p.height_m * 1.15 + 1.0);
        }
    }

    #[test]
    fn obstacles_carve_building_free_regions() {
        let m = CityArchetype::SurveyRiver.generate(3);
        assert_eq!(m.obstacles().len(), 1);
        let river = &m.obstacles()[0];
        assert_eq!(river.kind, ObstacleKind::Water);
        for b in m.buildings() {
            assert!(
                b.footprint.dist_to_polygon(&river.region) > 0.0,
                "building {} intersects the river",
                b.id
            );
        }
    }

    #[test]
    fn density_ordering_matches_paper_areas() {
        // Paper §2: downtown is the densest survey area, river the
        // sparsest (Table 1 / Figure 1a orderings).
        let downtown = CityArchetype::SurveyDowntown.generate(9).stats();
        let residential = CityArchetype::SurveyResidential.generate(9).stats();
        let river = CityArchetype::SurveyRiver.generate(9).stats();
        assert!(downtown.built_fraction > residential.built_fraction);
        assert!(residential.built_fraction > river.built_fraction);
        assert!(downtown.buildings > river.buildings);
    }

    #[test]
    fn campus_buildings_are_larger() {
        let campus = CityArchetype::SurveyCampus.generate(5).stats();
        let downtown = CityArchetype::SurveyDowntown.generate(5).stats();
        assert!(campus.median_building_area_m2 > 2.0 * downtown.median_building_area_m2);
    }

    #[test]
    fn dc_has_three_obstacles() {
        let m = CityArchetype::WashingtonDc.generate(11);
        // Park + river (1 bridge -> 2 polygons) + diagonal highway
        // (1 crossing -> 2 polygons).
        assert_eq!(m.obstacles().len(), 5);
        let kinds: Vec<_> = m.obstacles().iter().map(|o| o.kind).collect();
        assert!(kinds.contains(&ObstacleKind::Park));
        assert!(kinds.contains(&ObstacleKind::Highway));
        assert!(kinds.contains(&ObstacleKind::Water));
    }

    #[test]
    fn band_polygon_geometry() {
        let bands = band_polygons(1000.0, 500.0, 100.0, 0.0, 0.0, false, 0);
        assert_eq!(bands.len(), 1);
        let band = &bands[0];
        // Straight band: a 1000 × 100 rectangle-ish strip.
        assert!((band.area() - 100_000.0).abs() < 1.0);
        assert!(band.contains(Point::new(500.0, 500.0)));
        assert!(!band.contains(Point::new(500.0, 600.0)));
        // Transposed version is vertical.
        let v = &band_polygons(1000.0, 500.0, 100.0, 0.0, 0.0, true, 0)[0];
        assert!(v.contains(Point::new(500.0, 500.0)));
        assert!(!v.contains(Point::new(600.0, 500.0)));
    }

    #[test]
    fn meandering_band_stays_within_amplitude() {
        let band = &band_polygons(1000.0, 500.0, 80.0, 30.0, 1.0, false, 0)[0];
        let bb = band.bbox();
        assert!(bb.min.y >= 500.0 - 40.0 - 30.0 - 1e-9);
        assert!(bb.max.y <= 500.0 + 40.0 + 30.0 + 1e-9);
    }

    #[test]
    fn bridges_split_bands_and_leave_corridors() {
        let bands = band_polygons(1000.0, 500.0, 100.0, 0.0, 0.0, false, 2);
        assert_eq!(bands.len(), 3);
        // Total band area shrinks by the two bridge corridors.
        let area: f64 = bands.iter().map(|b| b.area()).sum();
        assert!((area - (1000.0 - 2.0 * BRIDGE_GAP_M) * 100.0).abs() < 1.0);
        // The corridor midpoints are obstacle-free.
        for (t0, t1) in segment_spans(2, BRIDGE_GAP_M / 1000.0)
            .windows(2)
            .map(|w| (w[0].1, w[1].0))
        {
            let mid = Point::new(1000.0 * (t0 + t1) / 2.0, 500.0);
            assert!(
                bands.iter().all(|b| !b.contains(mid)),
                "corridor blocked at {mid:?}"
            );
        }
    }

    #[test]
    fn metro_params_validation_types_every_rejection() {
        // Zero tiles in either dimension.
        for (tx, ty) in [(0usize, 3usize), (3, 0), (0, 0)] {
            let p = MetroParams::with_tiles(tx, ty);
            assert_eq!(
                p.validate(),
                Err(MetroParamsError::ZeroTiles {
                    tiles_x: tx,
                    tiles_y: ty
                })
            );
            assert!(try_generate_metro(&p, 1).is_err());
        }
        // The defaults validate, and the typed path generates the same
        // city as the panicking one.
        assert_eq!(MetroParams::default().validate(), Ok(()));
        let p = MetroParams::with_tiles(1, 1);
        let a = try_generate_metro(&p, 9).expect("valid params");
        let b = generate_metro(&p, 9);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn metro_zero_tiles_still_panics_on_the_legacy_path() {
        generate_metro(&MetroParams::with_tiles(0, 1), 1);
    }

    #[test]
    fn metro_generation_is_deterministic() {
        let p = MetroParams::with_tiles(2, 2);
        let a = generate_metro(&p, 77);
        let b = generate_metro(&p, 77);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.buildings().iter().zip(b.buildings()) {
            assert_eq!(x.centroid, y.centroid);
            assert_eq!(x.area, y.area);
        }
        assert_eq!(a.name(), "metro-2x2");
    }

    #[test]
    fn metro_tiles_are_independent_of_grid_size() {
        // Tile (0,0) is seeded by its ordinal, so the buildings inside
        // the first tile footprint-match between a 1×1 and a 3×2 metro
        // (relay chains only exist in the larger one).
        let small = generate_metro(&MetroParams::with_tiles(1, 1), 5);
        let large = generate_metro(&MetroParams::with_tiles(3, 2), 5);
        let in_tile0 = |m: &CityMap| {
            let mut pts: Vec<(u64, u64)> = m
                .buildings()
                .iter()
                .filter(|b| b.centroid.x < METRO_TILE_M && b.centroid.y < METRO_TILE_M)
                .map(|b| (b.centroid.x.to_bits(), b.centroid.y.to_bits()))
                .collect();
            pts.sort_unstable();
            pts
        };
        let a = in_tile0(&small);
        let mut b = in_tile0(&large);
        // The larger metro adds ramp relays inside tile 0; every
        // building of the 1×1 metro must appear verbatim.
        b.retain(|p| a.binary_search(p).is_ok());
        assert_eq!(a, b, "tile (0,0) must be grid-size independent");
        assert_eq!(small.len(), a.len(), "1×1 metro is exactly one tile");
    }

    #[test]
    fn metro_scales_with_tile_count() {
        let one = generate_metro(&MetroParams::with_tiles(1, 1), 9);
        let four = generate_metro(&MetroParams::with_tiles(2, 2), 9);
        // Four tiles of differing archetypes plus relay chains: well
        // over 3× one tile.
        assert!(
            four.len() > 3 * one.len(),
            "{} vs {}",
            four.len(),
            one.len()
        );
        // Buildings span all four tile regions.
        for (qx, qy) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let n = four
                .buildings()
                .iter()
                .filter(|b| {
                    (b.centroid.x / PITCH_M) as usize == qx
                        && (b.centroid.y / PITCH_M) as usize == qy
                })
                .count();
            assert!(n > 200, "quadrant ({qx},{qy}) has only {n} buildings");
        }
    }

    #[test]
    fn metro_relay_chains_bridge_corridors() {
        let p = MetroParams::with_tiles(2, 1);
        let m = generate_metro(&p, 3);
        // The vertical corridor centerline carries relays spaced below
        // the 40 m building-graph gap along the full height.
        let cx = PITCH_M - ARTERIAL_GAP_M / 2.0;
        let mut ys: Vec<f64> = m
            .buildings()
            .iter()
            .filter(|b| (b.centroid.x - cx).abs() < 1e-6)
            .map(|b| b.centroid.y)
            .collect();
        ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(ys.len() > 40, "corridor has only {} relays", ys.len());
        for w in ys.windows(2) {
            let edge_gap = (w[1] - w[0]) - RELAY_SIZE_M;
            assert!(
                edge_gap < 40.0,
                "relay chain gap {edge_gap} severs the corridor"
            );
        }
        assert!(ys[0] < RELAY_SPACING_M, "chain starts at the south edge");
        assert!(
            METRO_TILE_M - ys[ys.len() - 1] < 2.0 * RELAY_SPACING_M,
            "chain reaches the north edge"
        );
    }

    #[test]
    fn segment_spans_cover_unit_range() {
        let spans = segment_spans(3, 0.05);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].0, 0.0);
        assert!((spans[3].1 - 1.0).abs() < 1e-9);
        for w in spans.windows(2) {
            assert!((w[1].0 - w[0].1 - 0.05).abs() < 1e-9, "gap width");
        }
    }
}
