//! Map renders: Figure 5 (footprints + AP fabric) and Figure 7 (one
//! delivery with its conduit membership), as SVG and terminal ASCII —
//! and the one line-chart scaffold every sweep's curves go through.

use citymesh_core::{reconstruct_conduits, Ap, ApGraph, ApRole, DeliveryReport};
use citymesh_geo::{Point, Rect};
use citymesh_map::CityMap;
use citymesh_net::CityMeshHeader;

/// Builds the Figure-5 SVG: building footprints in red, APs as white
/// dots, gray links between APs within range (the paper renders a
/// downtown section exactly this way).
pub fn fig5_svg(map: &CityMap, aps: &[Ap], apg: &ApGraph) -> String {
    let mut svg = SvgCanvas::new(map.bounds());
    svg.comment("Figure 5: downtown section, footprints + AP mesh");
    for b in map.buildings() {
        svg.polygon(b.footprint.ring(), "#b03030", "#802020", 0.5);
    }
    // Links first so dots draw on top.
    for ap in aps {
        for &other in apg.audience(ap.id) {
            if other > ap.id {
                svg.line(ap.pos, apg.position(other), "#9a9a9a", 0.4);
            }
        }
    }
    for ap in aps {
        svg.circle(ap.pos, 1.6, "#ffffff", "#555555");
    }
    svg.finish()
}

/// Builds the Figure-7 SVG: the chosen building route in green, APs
/// colored by role — light blue for relays (inside the conduit), red
/// for heard-but-silent, light gray for untouched — and the conduit
/// outlines.
pub fn fig7_svg(
    map: &CityMap,
    apg: &ApGraph,
    header: &CityMeshHeader,
    report: &DeliveryReport,
) -> String {
    let mut svg = SvgCanvas::new(map.bounds());
    svg.comment("Figure 7: one simulated delivery");
    for b in map.buildings() {
        svg.polygon(b.footprint.ring(), "#d8d8d8", "#bbbbbb", 0.3);
    }
    let conduits = reconstruct_conduits(map, &header.waypoints, header.conduit_width_m());
    for c in &conduits {
        svg.polygon(&c.corners(), "none", "#30a030", 1.0);
    }
    // Route spine.
    let spine: Vec<Point> = header
        .waypoints
        .iter()
        .map(|w| map.building(*w).expect("valid waypoint").centroid)
        .collect();
    svg.polyline(&spine, "#108010", 2.0);

    for id in 0..apg.len() as u32 {
        let (fill, r) = match report.roles[id as usize] {
            ApRole::Relayed => ("#58b8e8", 2.2),
            ApRole::HeardOnly => ("#d04040", 1.8),
            ApRole::Silent => ("#eeeeee", 1.0),
        };
        svg.circle(apg.position(id), r, fill, "none");
    }
    svg.finish()
}

/// A compact terminal render: buildings as `#`, the route as `*`.
/// Width is in character cells; aspect ratio follows the map.
pub fn ascii_map(map: &CityMap, route: &[u32], width: usize) -> String {
    let bounds = map.bounds();
    let width = width.max(10);
    let height =
        ((bounds.height() / bounds.width().max(1.0)) * width as f64 * 0.5).round() as usize;
    let height = height.clamp(5, 200);
    let mut grid = vec![vec![' '; width]; height];
    let cell = |p: Point| -> (usize, usize) {
        let cx =
            ((p.x - bounds.min.x) / bounds.width().max(1e-9) * (width - 1) as f64).round() as usize;
        let cy = ((p.y - bounds.min.y) / bounds.height().max(1e-9) * (height - 1) as f64).round()
            as usize;
        (cx.min(width - 1), (height - 1) - cy.min(height - 1))
    };
    for b in map.buildings() {
        let (cx, cy) = cell(b.centroid);
        grid[cy][cx] = '#';
    }
    for id in route {
        if let Some(b) = map.building(*id) {
            let (cx, cy) = cell(b.centroid);
            grid[cy][cx] = '*';
        }
    }
    grid.into_iter()
        .map(|row| row.into_iter().collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Height of every sweep chart, px.
pub const CHART_H: f64 = 280.0;

/// The y pixel of `v` on a chart whose y axis runs from zero to the
/// largest of `y_ticks`.
pub fn chart_y(margin: f64, y_ticks: &[(f64, String)], v: f64) -> f64 {
    let y_max = y_ticks
        .iter()
        .map(|t| t.0)
        .fold(f64::MIN_POSITIVE, f64::max);
    CHART_H - margin - (v / y_max).clamp(0.0, 1.0) * (CHART_H - 2.0 * margin)
}

/// `(value, label)` y ticks at `values`, labelled to `decimals` places.
pub fn ticks(values: &[f64], decimals: usize) -> Vec<(f64, String)> {
    values
        .iter()
        .map(|&v| (v, format!("{v:.decimals$}")))
        .collect()
}

/// What every sweep chart opens with: the `<svg>` header, the title,
/// the two axis lines, and right-aligned y tick labels. The y axis
/// runs from zero to the largest tick.
pub fn chart_frame(width: f64, margin: f64, title: &str, y_ticks: &[(f64, String)]) -> String {
    let (w, h, m) = (width, CHART_H, margin);
    let mut s = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\" font-size=\"11\">\n\
         <text x=\"{}\" y=\"16\" text-anchor=\"middle\" font-size=\"13\">{title}</text>\n\
         <line x1=\"{m}\" y1=\"{1}\" x2=\"{2}\" y2=\"{1}\" stroke=\"#444\"/>\n\
         <line x1=\"{m}\" y1=\"{m}\" x2=\"{m}\" y2=\"{1}\" stroke=\"#444\"/>\n",
        w / 2.0,
        h - m,
        w - m
    );
    for (v, label) in y_ticks {
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\">{label}</text>\n",
            m - 4.0,
            chart_y(m, y_ticks, *v) + 4.0
        ));
    }
    s
}

/// One polyline of a [`LineChart`].
pub struct Series<'a> {
    /// Legend text.
    pub label: &'a str,
    /// Stroke and legend colour.
    pub color: &'a str,
    /// `stroke-dasharray`, solid when `None`.
    pub dash: Option<&'a str>,
    /// One y value per chart x position.
    pub ys: Vec<f64>,
}

/// A small standalone SVG line chart: x positions spread over the plot
/// width from their minimum to their maximum, y from zero to the
/// largest y tick, a legend row under the title.
pub struct LineChart<'a> {
    /// Chart title.
    pub title: &'a str,
    /// Caption under the x axis.
    pub x_label: &'a str,
    /// Rotated caption beside the y axis; a chart that has one leaves
    /// it a 48 px margin instead of 40.
    pub y_label: Option<&'a str>,
    /// X position of every point, in the axis's own space (callers
    /// plotting on a log axis pass logarithms).
    pub xs: &'a [f64],
    /// A label under each x position.
    pub x_ticks: &'a [String],
    /// `(value, label)` y ticks.
    pub y_ticks: &'a [(f64, String)],
    /// The curves.
    pub series: &'a [Series<'a>],
    /// A dashed vertical marker at an x position, with its caption.
    pub marker: Option<(f64, &'a str)>,
}

impl LineChart<'_> {
    const W: f64 = 420.0;

    fn margin(&self) -> f64 {
        if self.y_label.is_some() {
            48.0
        } else {
            40.0
        }
    }

    fn x(&self, v: f64) -> f64 {
        let lo = self.xs.iter().copied().fold(f64::MAX, f64::min);
        let hi = self.xs.iter().copied().fold(f64::MIN, f64::max);
        let m = self.margin();
        m + (v - lo) / (hi - lo).max(1e-9) * (Self::W - 2.0 * m)
    }

    /// The `points="…"` attribute of one series.
    fn points(&self, ys: &[f64]) -> String {
        let y = |v: f64| chart_y(self.margin(), self.y_ticks, v);
        let pts: Vec<String> = self
            .xs
            .iter()
            .zip(ys)
            .map(|(&x, &v)| format!("{:.1},{:.1}", self.x(x), y(v)))
            .collect();
        pts.join(" ")
    }

    /// Renders the chart.
    pub fn render(&self) -> String {
        let (w, h, m) = (Self::W, CHART_H, self.margin());
        let mut s = chart_frame(w, m, self.title, self.y_ticks);
        for (&x, label) in self.xs.iter().zip(self.x_ticks) {
            s.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{}\" text-anchor=\"middle\">{label}</text>\n",
                self.x(x),
                h - m + 14.0
            ));
        }
        if let Some((at, caption)) = self.marker {
            s.push_str(&format!(
                "<line x1=\"{0:.1}\" y1=\"{m}\" x2=\"{0:.1}\" y2=\"{1}\" stroke=\"#999\" \
                 stroke-dasharray=\"4 3\"/>\n\
                 <text x=\"{0:.1}\" y=\"{2}\" text-anchor=\"middle\" fill=\"#666\">{caption}</text>\n",
                self.x(at),
                h - m,
                m - 6.0
            ));
        }
        let slot = (w - 2.0 * m) / self.series.len().max(1) as f64;
        for (i, series) in self.series.iter().enumerate() {
            let dash = series
                .dash
                .map(|d| format!(" stroke-dasharray=\"{d}\""))
                .unwrap_or_default();
            s.push_str(&format!(
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{1}\" stroke-width=\"2\"{dash}/>\n\
                 <text x=\"{2:.1}\" y=\"30\" fill=\"{1}\">{3}</text>\n",
                self.points(&series.ys),
                series.color,
                m + i as f64 * slot,
                series.label
            ));
        }
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
            w / 2.0,
            h - 8.0,
            self.x_label
        ));
        if let Some(y_label) = self.y_label {
            s.push_str(&format!(
                "<text x=\"14\" y=\"{0}\" transform=\"rotate(-90 14 {0})\" \
                 text-anchor=\"middle\">{y_label}</text>\n",
                h / 2.0
            ));
        }
        s.push_str("</svg>\n");
        s
    }
}

/// Minimal SVG document builder with a y-flip (map y grows north, SVG
/// y grows down).
struct SvgCanvas {
    bounds: Rect,
    body: String,
}

impl SvgCanvas {
    fn new(bounds: Rect) -> Self {
        SvgCanvas {
            bounds,
            body: String::new(),
        }
    }

    fn tx(&self, p: Point) -> (f64, f64) {
        (p.x - self.bounds.min.x, self.bounds.max.y - p.y)
    }

    fn comment(&mut self, text: &str) {
        self.body.push_str(&format!("<!-- {text} -->\n"));
    }

    /// A `points="…"` attribute value.
    fn points(&self, pts: &[Point]) -> String {
        let pts: Vec<String> = pts
            .iter()
            .map(|p| {
                let (x, y) = self.tx(*p);
                format!("{x:.1},{y:.1}")
            })
            .collect();
        pts.join(" ")
    }

    fn polygon(&mut self, ring: &[Point], fill: &str, stroke: &str, stroke_w: f64) {
        self.body.push_str(&format!(
            "<polygon points=\"{}\" fill=\"{fill}\" stroke=\"{stroke}\" stroke-width=\"{stroke_w}\"/>\n",
            self.points(ring)
        ));
    }

    fn polyline(&mut self, pts: &[Point], stroke: &str, stroke_w: f64) {
        self.body.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{stroke}\" stroke-width=\"{stroke_w}\"/>\n",
            self.points(pts)
        ));
    }

    fn line(&mut self, a: Point, b: Point, stroke: &str, stroke_w: f64) {
        let (x1, y1) = self.tx(a);
        let (x2, y2) = self.tx(b);
        self.body.push_str(&format!(
            "<line x1=\"{x1:.1}\" y1=\"{y1:.1}\" x2=\"{x2:.1}\" y2=\"{y2:.1}\" stroke=\"{stroke}\" stroke-width=\"{stroke_w}\"/>\n"
        ));
    }

    fn circle(&mut self, center: Point, r: f64, fill: &str, stroke: &str) {
        let (cx, cy) = self.tx(center);
        self.body.push_str(&format!(
            "<circle cx=\"{cx:.1}\" cy=\"{cy:.1}\" r=\"{r:.1}\" fill=\"{fill}\" stroke=\"{stroke}\" stroke-width=\"0.3\"/>\n"
        ));
    }

    fn finish(self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {:.0} {:.0}\" \
             width=\"1000\">\n<rect width=\"100%\" height=\"100%\" fill=\"#fafafa\"/>\n{}</svg>\n",
            self.bounds.width(),
            self.bounds.height(),
            self.body
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_core::{
        compress_route, place_aps, plan_route, postbox_ap, reconstruct_conduits,
        simulate_delivery_faulted, BuildingGraph, BuildingGraphParams, CoveredSet, DeliveryScratch,
        Relays,
    };
    use citymesh_map::CityArchetype;
    use citymesh_simcore::SimRng;

    fn setup() -> (CityMap, Vec<Ap>, ApGraph) {
        let map = CityArchetype::SurveyDowntown.generate(2);
        let mut rng = SimRng::new(2);
        let aps = place_aps(&map, 200.0, &mut rng);
        let apg = ApGraph::build(&aps, 50.0);
        (map, aps, apg)
    }

    #[test]
    fn fig5_svg_is_well_formed() {
        let (map, aps, apg) = setup();
        let svg = fig5_svg(&map, &aps, &apg);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<circle").count(), aps.len());
        assert!(svg.matches("<polygon").count() >= map.len());
        assert!(svg.contains("<line"), "AP links must render");
    }

    #[test]
    fn fig7_svg_colors_roles() {
        let (map, aps, apg) = setup();
        let bg = BuildingGraph::build(&map, BuildingGraphParams::default());
        let route = plan_route(&bg, 0, (map.len() - 1) as u32).unwrap();
        let compressed = compress_route(&bg, &route, 50.0).expect("valid width and route");
        let header = CityMeshHeader::new(1, 50.0, compressed.waypoints);
        let src = postbox_ap(&aps, &map, 0).unwrap();
        let conduits = reconstruct_conduits(&map, &header.waypoints, header.conduit_width_m());
        let mut scratch = DeliveryScratch::new();
        let report = simulate_delivery_faulted(
            &apg,
            &header,
            Relays::Covered(&CoveredSet::of(&map, &conduits)),
            src,
            0.0,
            None,
            SimRng::new(3).next_u64(),
            &mut scratch,
        );
        let svg = fig7_svg(&map, &apg, &header, report);
        assert!(svg.contains("#58b8e8"), "relays rendered");
        assert!(svg.contains("<polyline"), "route spine rendered");
        assert_eq!(svg.matches("<circle").count(), apg.len());
    }

    /// The coordinate arithmetic of both margins, on a series whose
    /// pixels can be worked out by hand: x spreads 0..4 over the plot
    /// width (340 px from 40, 324 px from 48), y spreads 0..1 over its
    /// height (200 px up from 240, 184 px up from 232).
    #[test]
    fn line_chart_points_are_pinned_per_margin() {
        let chart = |y_label| {
            LineChart {
                title: "t",
                x_label: "x",
                y_label,
                xs: &[0.0, 1.0, 4.0],
                x_ticks: &["a".into(), "b".into(), "c".into()],
                y_ticks: &ticks(&[0.0, 1.0], 1),
                series: &[Series {
                    label: "s",
                    color: "#000",
                    dash: Some("5,4"),
                    ys: vec![0.0, 0.5, 1.5],
                }],
                marker: Some((1.0, "knee")),
            }
            .render()
        };
        let narrow = chart(None);
        assert!(narrow.contains("points=\"40.0,240.0 125.0,140.0 380.0,40.0\""));
        assert!(narrow.contains("<line x1=\"125.0\" y1=\"40\" x2=\"125.0\" y2=\"240\""));
        assert!(!narrow.contains("rotate"));
        let wide = chart(Some("y"));
        assert!(wide.contains("points=\"48.0,232.0 129.0,140.0 372.0,48.0\""));
        assert!(wide.contains("rotate(-90 14 140)"));
        for svg in [narrow, wide] {
            assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
            assert!(svg.contains(">a</text>") && svg.contains(">c</text>"));
            assert!(svg.contains("stroke-dasharray=\"5,4\"") && svg.contains(">knee<"));
        }
    }

    #[test]
    fn ascii_map_marks_route() {
        let (map, _, _) = setup();
        let out = ascii_map(&map, &[0, 5, 10], 60);
        assert!(out.contains('#'));
        assert!(out.contains('*'));
        let widths: std::collections::HashSet<usize> = out.lines().map(|l| l.len()).collect();
        assert_eq!(widths.len(), 1, "all rows equal width");
    }
}
