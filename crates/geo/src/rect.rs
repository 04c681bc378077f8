//! Axis-aligned and oriented rectangles.
//!
//! [`Rect`] is the workhorse bounding box. [`OrientedRect`] models the
//! paper's *conduit*: a rectangle of length `L` (the distance between
//! two consecutive waypoint buildings) and width `W` (a protocol
//! parameter comparable to the Wi-Fi range), laid along the route
//! direction. An AP rebroadcasts a packet iff its location falls inside
//! one of the route's conduits (paper §3 step 3).

use crate::{Point, Segment, Vec2, EPS};

/// An axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rect from two opposite corners (in any order).
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The smallest rect containing every point in `pts`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding(pts: impl IntoIterator<Item = Point>) -> Option<Self> {
        let mut it = pts.into_iter();
        let first = it.next()?;
        let mut r = Rect {
            min: first,
            max: first,
        };
        for p in it {
            r.expand_to(p);
        }
        Some(r)
    }

    /// Grows the rect (in place) to contain `p`.
    pub fn expand_to(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Returns a copy grown outward by `margin` meters on every side.
    pub fn inflated(&self, margin: f64) -> Rect {
        Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Width along x, meters.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y, meters.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area, square meters.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Whether `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether the two rects overlap (touching edges count).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// The smallest rect containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Distance from `p` to the rect (zero if inside).
    pub fn dist_to_point(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// The four corners in counterclockwise order starting at `min`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

/// A rectangle oriented along an arbitrary axis — the paper's *conduit*.
///
/// Defined by a spine segment (waypoint centroid → next waypoint
/// centroid) and a width `w`. A point is inside iff its distance to the
/// spine, measured perpendicular, is ≤ `w/2` and its projection falls
/// within the spine extent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrientedRect {
    /// The spine the rectangle is laid along.
    pub spine: Segment,
    /// Full width, meters (the paper's `W`).
    pub width: f64,
}

impl OrientedRect {
    /// Creates a conduit over `spine` with total width `width`.
    pub fn new(spine: Segment, width: f64) -> Self {
        debug_assert!(width >= 0.0, "conduit width must be non-negative");
        OrientedRect { spine, width }
    }

    /// Length of the spine (the paper's `L`), meters.
    #[inline]
    pub fn len(&self) -> f64 {
        self.spine.len()
    }

    /// Whether `p` lies inside or on the boundary.
    ///
    /// A degenerate spine (both waypoints identical) behaves as a disc
    /// of radius `width / 2` — consistent with "cover everything within
    /// `W` of the route".
    pub fn contains(&self, p: Point) -> bool {
        self.spine.dist_to_point(p) <= self.reach()
    }

    /// How far from the spine [`contains`](Self::contains) still
    /// accepts a point: `W/2` plus the [`EPS`] tolerance.
    #[inline]
    fn reach(&self) -> f64 {
        self.width / 2.0 + EPS
    }

    /// Axis-aligned bounding box (for coarse spatial-index culling):
    /// holds every point [`contains`](Self::contains) accepts, so it
    /// extends `W/2` plus the [`EPS`] tolerance past the spine like the
    /// predicate does.
    pub fn bbox(&self) -> Rect {
        Rect::from_corners(self.spine.a, self.spine.b).inflated(self.reach())
    }

    /// The four corners, counterclockwise, for rendering. Degenerate
    /// spines return a square of side `width` centered on the point.
    pub fn corners(&self) -> [Point; 4] {
        let half = self.width / 2.0;
        match self.spine.dir().normalized() {
            Some(d) => {
                let n = d.perp() * half;
                [
                    self.spine.a - n,
                    self.spine.b - n,
                    self.spine.b + n,
                    self.spine.a + n,
                ]
            }
            None => {
                let c = self.spine.a;
                [
                    c + Vec2::new(-half, -half),
                    c + Vec2::new(half, -half),
                    c + Vec2::new(half, half),
                    c + Vec2::new(-half, half),
                ]
            }
        }
    }

    /// Area, square meters (rectangle part; the `contains` predicate
    /// additionally covers rounded end caps).
    pub fn area(&self) -> f64 {
        self.len() * self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_from_corners_normalizes_order() {
        let r = Rect::from_corners(Point::new(5.0, -1.0), Point::new(1.0, 7.0));
        assert_eq!(r.min, Point::new(1.0, -1.0));
        assert_eq!(r.max, Point::new(5.0, 7.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 8.0);
        assert_eq!(r.area(), 32.0);
    }

    #[test]
    fn rect_bounding_of_points() {
        let pts = [
            Point::new(1.0, 1.0),
            Point::new(-2.0, 5.0),
            Point::new(3.0, 0.0),
        ];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r.min, Point::new(-2.0, 0.0));
        assert_eq!(r.max, Point::new(3.0, 5.0));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn rect_contains_boundary_and_interior() {
        let r = Rect::from_corners(Point::ORIGIN, Point::new(10.0, 10.0));
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
    }

    #[test]
    fn rect_intersection_cases() {
        let a = Rect::from_corners(Point::ORIGIN, Point::new(10.0, 10.0));
        let b = Rect::from_corners(Point::new(5.0, 5.0), Point::new(15.0, 15.0));
        let c = Rect::from_corners(Point::new(11.0, 0.0), Point::new(20.0, 10.0));
        let d = Rect::from_corners(Point::new(10.0, 0.0), Point::new(20.0, 10.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.intersects(&d)); // touching edge
    }

    #[test]
    fn rect_distance_zero_inside_and_euclidean_outside() {
        let r = Rect::from_corners(Point::ORIGIN, Point::new(10.0, 10.0));
        assert_eq!(r.dist_to_point(Point::new(3.0, 3.0)), 0.0);
        assert_eq!(r.dist_to_point(Point::new(13.0, 14.0)), 5.0); // corner
        assert_eq!(r.dist_to_point(Point::new(5.0, -2.0)), 2.0); // edge
    }

    #[test]
    fn conduit_contains_points_near_spine() {
        let spine = Segment::new(Point::ORIGIN, Point::new(100.0, 0.0));
        let c = OrientedRect::new(spine, 50.0);
        assert!(c.contains(Point::new(50.0, 24.9)));
        assert!(c.contains(Point::new(50.0, -24.9)));
        assert!(!c.contains(Point::new(50.0, 25.5)));
        // End caps are rounded: within W/2 of the endpoint counts.
        assert!(c.contains(Point::new(-10.0, 0.0)));
        assert!(!c.contains(Point::new(-26.0, 0.0)));
    }

    #[test]
    fn conduit_rotated_45_degrees() {
        let spine = Segment::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let c = OrientedRect::new(spine, 20.0);
        // Point exactly on the spine midline.
        assert!(c.contains(Point::new(50.0, 50.0)));
        // 9 m perpendicular off the midline (inside; half-width 10).
        let off = Vec2::new(-1.0, 1.0).normalized().unwrap() * 9.0;
        assert!(c.contains(Point::new(50.0, 50.0) + off));
        // 11 m perpendicular (outside).
        let far = Vec2::new(-1.0, 1.0).normalized().unwrap() * 11.0;
        assert!(!c.contains(Point::new(50.0, 50.0) + far));
    }

    #[test]
    fn conduit_degenerate_spine_is_disc() {
        let p = Point::new(5.0, 5.0);
        let c = OrientedRect::new(Segment::new(p, p), 10.0);
        assert!(c.contains(Point::new(5.0, 9.9)));
        assert!(!c.contains(Point::new(5.0, 10.5)));
        assert_eq!(c.corners().len(), 4);
    }

    #[test]
    fn conduit_bbox_covers_all_corners() {
        let spine = Segment::new(Point::new(0.0, 0.0), Point::new(60.0, 80.0));
        let c = OrientedRect::new(spine, 30.0);
        let bb = c.bbox();
        for corner in c.corners() {
            assert!(bb.contains(corner), "bbox {bb:?} missing corner {corner:?}");
        }
    }

    #[test]
    fn conduit_bbox_holds_the_contains_tolerance() {
        // Half a micrometer past W/2: inside by `contains`' EPS, so the
        // box that culls for it must hold the point too.
        let spine = Segment::new(Point::ORIGIN, Point::new(100.0, 0.0));
        let c = OrientedRect::new(spine, 50.0);
        for p in [Point::new(50.0, 25.0000005), Point::new(-25.0000005, 0.0)] {
            assert!(c.contains(p));
            assert!(c.bbox().contains(p), "bbox {:?} misses {p:?}", c.bbox());
        }
    }
}
