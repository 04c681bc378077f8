//! `citymesh-perf agree A B`: do two result sets agree?
//!
//! For every workload × end-to-end metric the set medians are compared
//! against the metric's bound: B may be worse than A by at most that
//! share of A's median. Where the quartile spread of either set is
//! wider than the bound the pair is `unresolved`, not `ok` — a
//! difference smaller than the noise cannot be called unchanged.
//! Simulated metrics and digests are pure functions of
//! (workload, seed), so for seeds present in both sets they must be
//! bit-identical.

use crate::json::{as_arr, as_f64, as_str, get, parse, Value};
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};

/// Schema tag of a result-set file.
pub const SET_SCHEMA: &str = "citymesh-perf/1";

/// Wraps result rows into a result-set document.
pub fn set_json(rows: Vec<Value>) -> Value {
    Value::Obj(vec![
        ("schema".into(), Value::Str(SET_SCHEMA.into())),
        ("rows".into(), Value::Arr(rows)),
    ])
}

/// What `agree` needs of one result row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Traffic seed.
    pub seed: i64,
    /// Run digest, hex.
    pub digest: String,
    /// Whether the run's own checks held.
    pub correct: bool,
    /// End-to-end metric values, by name.
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Reads the untraced rows of a result-set document.
pub fn parse_set(text: &str) -> Result<Vec<Row>, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    if get(&doc, "schema").and_then(as_str) != Some(SET_SCHEMA) {
        return Err(format!("not a {SET_SCHEMA} result set"));
    }
    let rows = get(&doc, "rows")
        .and_then(as_arr)
        .ok_or("result set has no rows")?;
    rows.iter()
        .filter(|r| get(r, "trace") == Some(&Value::Bool(false)))
        .map(|r| {
            let field = |key: &str| get(r, key).ok_or(format!("row lacks `{key}`"));
            let metrics = match field("metrics")? {
                Value::Obj(fields) => fields
                    .iter()
                    .filter_map(|(name, m)| Some((name.clone(), as_f64(get(m, "value")?)?)))
                    .collect(),
                _ => return Err("row `metrics` is not an object".to_owned()),
            };
            Ok(Row {
                workload: as_str(field("workload")?)
                    .ok_or("row `workload` is not a string")?
                    .to_owned(),
                seed: match field("seed")? {
                    Value::Int(i) => *i,
                    _ => return Err("row `seed` is not an integer".to_owned()),
                },
                digest: as_str(field("digest")?)
                    .ok_or("row `digest` is not a string")?
                    .to_owned(),
                correct: field("correct")? == &Value::Bool(true),
                metrics,
            })
        })
        .collect()
}

/// How one workload × metric pair came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// B is within the bound of A and the spread is within it too.
    Ok,
    /// The medians are within the bound but the spread is not.
    Unresolved,
    /// B is worse than A by more than the bound.
    Worse,
    /// A set has no value for the pair.
    Missing,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Unresolved => "unresolved",
            Status::Worse => "WORSE",
            Status::Missing => "MISSING",
        }
    }
}

/// One workload × metric comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Pair {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Median over set A.
    pub median_a: f64,
    /// Median over set B.
    pub median_b: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile spreads, as a share of the
    /// median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub status: Status,
}

/// The whole comparison.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Agreement {
    /// One entry per workload × end-to-end metric.
    pub pairs: Vec<Pair>,
    /// Violations of determinism or correctness, one line each.
    pub mismatches: Vec<String>,
}

impl Agreement {
    /// Whether the sets agree: every pair `ok`, no mismatch.
    pub fn agrees(&self) -> bool {
        self.mismatches.is_empty() && self.pairs.iter().all(|p| p.status == Status::Ok)
    }

    /// One row per pair with both medians, the relative difference
    /// and the spread, then the mismatches.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<13} {:<21} {:>14} {:>14} {:>9} {:>8} {:>6}  status\n",
            "workload", "metric", "median A", "median B", "B worse", "spread", "bound"
        );
        for p in &self.pairs {
            out.push_str(&format!(
                "{:<13} {:<21} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>5.0}%  {}\n",
                p.workload,
                p.metric,
                p.median_a,
                p.median_b,
                100.0 * p.worse_by,
                100.0 * p.spread,
                100.0 * p.bound,
                p.status.label()
            ));
        }
        for m in &self.mismatches {
            out.push_str(&format!("MISMATCH: {m}\n"));
        }
        out
    }
}

/// Compares result set `b` against `a`.
pub fn compare(a: &[Row], b: &[Row]) -> Agreement {
    let mut out = Agreement::default();
    for row in a.iter().chain(b).filter(|r| !r.correct) {
        out.mismatches.push(format!(
            "{} seed {}: the run reported correct:false",
            row.workload, row.seed
        ));
    }
    for ra in a {
        let same_seed = b
            .iter()
            .filter(|rb| rb.workload == ra.workload && rb.seed == ra.seed);
        for rb in same_seed {
            if ra.digest != rb.digest {
                out.mismatches.push(format!(
                    "{} seed {}: digest {} vs {}",
                    ra.workload, ra.seed, ra.digest, rb.digest
                ));
            }
            for spec in END_TO_END.iter().filter(|s| s.simulated) {
                let (va, vb) = (ra.metric(spec.name), rb.metric(spec.name));
                if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                    out.mismatches.push(format!(
                        "{} seed {}: {} {va:?} vs {vb:?} (must be bit-identical)",
                        ra.workload, ra.seed, spec.name
                    ));
                }
            }
        }
    }
    for workload in WORKLOADS.iter().map(|w| w.name) {
        for spec in &END_TO_END {
            let values = |rows: &[Row]| -> Vec<f64> {
                rows.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| r.metric(spec.name))
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            let (median_a, median_b) = (median(&va), median(&vb));
            let mut pair = Pair {
                workload,
                metric: spec.name,
                median_a: median_a.unwrap_or(f64::NAN),
                median_b: median_b.unwrap_or(f64::NAN),
                worse_by: f64::NAN,
                spread: quartile_spread(&va)
                    .unwrap_or(0.0)
                    .max(quartile_spread(&vb).unwrap_or(0.0)),
                bound: spec.bound,
                status: Status::Missing,
            };
            if let (Some(ma), Some(mb)) = (median_a, median_b) {
                let rise = (mb - ma) / ma.abs();
                pair.worse_by = match spec.better {
                    Better::Lower => rise,
                    Better::Higher => -rise,
                };
                pair.status = if pair.worse_by.is_nan() || pair.worse_by > spec.bound {
                    Status::Worse
                } else if pair.spread > spec.bound {
                    Status::Unresolved
                } else {
                    Status::Ok
                };
            }
            out.pairs.push(pair);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full set: every workload × seeds, `flows_per_s` scaled by
    /// `speed` with a per-seed wobble of `wobble`.
    fn set(seeds: std::ops::Range<i64>, speed: f64, wobble: f64) -> Vec<Row> {
        WORKLOADS
            .iter()
            .flat_map(|w| {
                seeds.clone().map(move |seed| Row {
                    workload: w.name.to_owned(),
                    seed,
                    digest: format!("{:016x}", seed * 31),
                    correct: true,
                    metrics: END_TO_END
                        .iter()
                        .map(|m| {
                            let v = if m.name == "flows_per_s" {
                                1000.0 * speed * (1.0 + wobble * (seed % 5) as f64)
                            } else if m.simulated {
                                10.0 + seed as f64 * 1e-3
                            } else {
                                5.0
                            };
                            (m.name.to_owned(), v)
                        })
                        .collect(),
                })
            })
            .collect()
    }

    #[test]
    fn identical_code_agrees() {
        let verdict = compare(&set(1..11, 1.0, 0.002), &set(11..21, 1.01, 0.002));
        assert!(verdict.agrees(), "{}", verdict.render());
        assert_eq!(verdict.pairs.len(), WORKLOADS.len() * END_TO_END.len());
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_worse_and_a_speedup_is_not() {
        let slow = compare(&set(1..11, 1.0, 0.002), &set(11..21, 0.85, 0.002));
        let p = &slow.pairs[0];
        assert_eq!((p.metric, p.status), ("flows_per_s", Status::Worse));
        assert!((p.worse_by - 0.15).abs() < 0.01, "{}", p.worse_by);
        assert!(!slow.agrees());
        let fast = compare(&set(1..11, 1.0, 0.002), &set(11..21, 1.5, 0.002));
        assert!(fast.agrees(), "{}", fast.render());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        let noisy = compare(&set(1..11, 1.0, 0.08), &set(11..21, 1.0, 0.08));
        assert_eq!(noisy.pairs[0].status, Status::Unresolved);
        assert!(!noisy.agrees());
        assert!(noisy.render().contains("unresolved"));
    }

    #[test]
    fn equal_seeds_must_repeat_bit_for_bit() {
        let a = set(1..4, 1.0, 0.0);
        let mut b = a.clone();
        assert!(compare(&a, &b).agrees());
        b[0].digest = "deadbeef".into();
        b[1].metrics[4].1 += 1e-12;
        b[2].correct = false;
        let verdict = compare(&a, &b);
        assert_eq!(verdict.mismatches.len(), 3, "{}", verdict.render());
        assert!(!verdict.agrees());
    }

    #[test]
    fn a_missing_workload_is_a_disagreement() {
        let a = set(1..4, 1.0, 0.0);
        let b: Vec<Row> = a
            .iter()
            .filter(|r| r.workload != "metro-hier")
            .cloned()
            .collect();
        let verdict = compare(&a, &b);
        assert!(verdict.pairs.iter().any(|p| p.status == Status::Missing));
        assert!(!verdict.agrees());
    }

    #[test]
    fn set_documents_round_trip() {
        let row = Value::Obj(vec![
            ("workload".into(), Value::Str("fleet-hot".into())),
            ("seed".into(), Value::Int(3)),
            ("trace".into(), Value::Bool(false)),
            ("digest".into(), Value::Str("00ff".into())),
            ("correct".into(), Value::Bool(true)),
            (
                "metrics".into(),
                Value::Obj(vec![(
                    "flows_per_s".into(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(26_000.5)),
                        ("unit".into(), Value::Str("flows/s".into())),
                    ]),
                )]),
            ),
        ]);
        let traced = Value::Obj(vec![("trace".into(), Value::Bool(true))]);
        let rows = parse_set(&set_json(vec![row, traced]).render()).expect("parses");
        assert_eq!(
            rows,
            vec![Row {
                workload: "fleet-hot".into(),
                seed: 3,
                digest: "00ff".into(),
                correct: true,
                metrics: vec![("flows_per_s".into(), 26_000.5)],
            }]
        );
        assert!(parse_set("{\"schema\":\"other\",\"rows\":[]}").is_err());
    }
}
