//! Plain-text table and CDF rendering for terminal output.

/// Renders a table: `header` row plus `rows`, columns right-aligned to
/// their widest cell (first column left-aligned).
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<width$}", width = widths[i])
                } else {
                    format!("{c:>width$}", width = widths[i])
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let mut out = fmt_row(&head);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// One column of [`columns`]: its header and how a row fills its cell.
pub type Column<'a, T> = (&'a str, &'a dyn Fn(&T) -> String);

/// Renders a table of one `item` per row from its column definitions,
/// so a header and its cells cannot drift apart.
pub fn columns<T>(items: &[T], cols: &[Column<T>]) -> String {
    let header: Vec<&str> = cols.iter().map(|c| c.0).collect();
    let rows: Vec<Vec<String>> = items
        .iter()
        .map(|item| cols.iter().map(|c| (c.1)(item)).collect())
        .collect();
    table(&header, &rows)
}

/// Renders an ASCII CDF: one row per plotted point, bar length
/// proportional to the cumulative fraction.
pub fn ascii_cdf(label: &str, points: &[(f64, f64)], width: usize) -> String {
    let mut out = format!("CDF: {label}\n");
    for (x, f) in points {
        let bar = "#".repeat((f * width as f64).round() as usize);
        out.push_str(&format!("{x:>10.1} | {bar:<width$} {:>5.1}%\n", f * 100.0));
    }
    out
}

/// Renders whisker bins (Figure 2 style): per bin, a `p10 p25 p50 p75
/// max` line.
pub fn whisker_table(bins: &[citymesh_measure::DistanceBin]) -> String {
    columns(
        bins,
        &[
            ("distance bin", &|b| {
                format!("{:.0}–{:.0} m", b.lo_m, b.hi_m)
            }),
            ("pairs", &|b| b.count.to_string()),
            ("p10", &|b| format!("{:.0}", b.p10)),
            ("p25", &|b| format!("{:.0}", b.p25)),
            ("p50", &|b| format!("{:.0}", b.p50)),
            ("p75", &|b| format!("{:.0}", b.p75)),
            ("max", &|b| format!("{:.0}", b.max)),
        ],
    )
}

/// A minimal JSON writer for exporting result tables.
///
/// Hand-rolled because `serde_json` is outside the approved offline
/// dependency set; results here are flat records of strings and
/// numbers, which this covers completely.
pub mod json {
    /// A JSON value limited to what result exports need.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// A string (escaped on write).
        Str(String),
        /// A finite number (emitted via `{:?}`; NaN/∞ become null).
        Num(f64),
        /// An integer (kept separate to avoid float formatting).
        Int(i64),
        /// A boolean.
        Bool(bool),
        /// Null.
        Null,
        /// An array of values.
        Arr(Vec<Value>),
        /// An object of ordered key/value pairs.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Serializes to compact JSON.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out);
            out
        }

        fn write(&self, out: &mut String) {
            match self {
                Value::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\r' => out.push_str("\\r"),
                            '\t' => out.push_str("\\t"),
                            c if (c as u32) < 0x20 => {
                                out.push_str(&format!("\\u{:04x}", c as u32));
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Value::Num(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
                Value::Num(_) => out.push_str("null"),
                Value::Int(i) => out.push_str(&i.to_string()),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Null => out.push_str("null"),
                Value::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.write(out);
                    }
                    out.push(']');
                }
                Value::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        Value::Str(k.clone()).write(out);
                        out.push(':');
                        v.write(out);
                    }
                    out.push('}');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    #[test]
    fn json_scalars_and_escaping() {
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(Value::Num(0.5).render(), "0.5");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Bool(true).render(), "true");
        assert_eq!(Value::Null.render(), "null");
        assert_eq!(
            Value::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(Value::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn json_composites() {
        let v = Value::Obj(vec![
            ("city".into(), Value::Str("boston".into())),
            ("reachability".into(), Value::Num(0.97)),
            ("islands".into(), Value::Int(3)),
            (
                "overheads".into(),
                Value::Arr(vec![Value::Num(4.5), Value::Null]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"city":"boston","reachability":0.97,"islands":3,"overheads":[4.5,null]}"#
        );
    }

    #[test]
    fn table_alignment() {
        let out = table(
            &["city", "aps"],
            &[
                vec!["boston".into(), "26532".into()],
                vec!["dc".into(), "7".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("city"));
        assert!(lines[2].contains("26532"));
        // Right-aligned numeric column.
        assert!(lines[3].trim_end().ends_with('7'));
        // All rows the same width.
        assert_eq!(lines[2].trim_end().len(), lines[0].trim_end().len());
    }

    #[test]
    fn columns_is_table_by_column() {
        let by_column = columns(
            &[(1, "x"), (22, "yy")],
            &[("n", &|r| r.0.to_string()), ("name", &|r| r.1.to_string())],
        );
        let by_row = table(
            &["n", "name"],
            &[vec!["1".into(), "x".into()], vec!["22".into(), "yy".into()]],
        );
        assert_eq!(by_column, by_row);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        table(&["a", "b"], &[vec!["only one".into()]]);
    }

    #[test]
    fn ascii_cdf_has_bars() {
        let out = ascii_cdf("test", &[(1.0, 0.5), (2.0, 1.0)], 10);
        assert!(out.contains("#####"));
        assert!(out.contains("100.0%"));
    }

    #[test]
    fn whisker_rows_match_bins() {
        let bins = vec![citymesh_measure::DistanceBin {
            lo_m: 0.0,
            hi_m: 50.0,
            count: 3,
            p10: 1.0,
            p25: 2.0,
            p50: 3.0,
            p75: 4.0,
            max: 5.0,
        }];
        let out = whisker_table(&bins);
        assert!(out.contains("0–50 m"));
        assert!(out.contains('5'));
    }
}
