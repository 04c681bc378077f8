//! Snapshot exporters: JSON and Prometheus text exposition.
//!
//! Both are hand-rolled (the workspace is offline; no serde) and
//! deterministic: metrics render in registry order, so two equal
//! [`MetricSet`]s always produce byte-identical output.

use crate::metrics::{MetricSet, COUNTERS, GAUGES, HISTOGRAMS};

impl MetricSet {
    /// Renders the full set as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"counters\":{");
        for (i, (def, v)) in COUNTERS.iter().zip(self.counters()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", def.name, v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (def, v)) in GAUGES.iter().zip(self.gauges()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", def.name, v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (def, h)) in HISTOGRAMS.iter().zip(self.histograms()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"unit\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                def.name, def.unit, h.count, h.sum, h.max
            ));
            for (j, (&bound, &n)) in def
                .bounds
                .iter()
                .chain(std::iter::once(&u64::MAX))
                .zip(&h.buckets)
                .enumerate()
            {
                if j > 0 {
                    out.push(',');
                }
                if bound == u64::MAX {
                    out.push_str(&format!("{{\"le\":\"+Inf\",\"n\":{n}}}"));
                } else {
                    out.push_str(&format!("{{\"le\":\"{bound}\",\"n\":{n}}}"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Renders the full set in the Prometheus text exposition format.
    /// Histogram buckets are cumulative with `le` labels, per the
    /// format; every metric is prefixed `citymesh_`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (def, v) in COUNTERS.iter().zip(self.counters()) {
            let name = format!("citymesh_{}", def.name);
            out.push_str(&format!("# HELP {name} {}\n", def.help));
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {v}\n"));
        }
        for (def, v) in GAUGES.iter().zip(self.gauges()) {
            let name = format!("citymesh_{}", def.name);
            out.push_str(&format!("# HELP {name} {}\n", def.help));
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {v}\n"));
        }
        for (def, h) in HISTOGRAMS.iter().zip(self.histograms()) {
            let name = format!("citymesh_{}", def.name);
            out.push_str(&format!("# HELP {name} {} ({})\n", def.help, def.unit));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (&bound, &n) in def.bounds.iter().zip(&h.buckets) {
                cumulative += n;
                out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ATTEMPTS, ATTEMPTS_PER_FLOW, LATENCY_FIRST, MAX_ATTEMPTS, RUNG_FIRST};

    fn sample_set() -> MetricSet {
        let mut m = MetricSet::new();
        m.add(ATTEMPTS, 10);
        m.add(RUNG_FIRST, 9);
        m.gauge_max(MAX_ATTEMPTS, 3);
        for v in [1u64, 1, 2, 4, 9] {
            m.observe(ATTEMPTS_PER_FLOW, v);
        }
        m.observe(LATENCY_FIRST, 250);
        m
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let m = sample_set();
        let a = m.to_json();
        let b = m.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"attempts_total\":10"));
        assert!(a.contains("\"max_attempts_per_flow\":3"));
        assert!(a.contains(
            "\"attempts_per_flow\":{\"unit\":\"attempts\",\"count\":5,\"sum\":17,\"max\":9"
        ));
        assert!(a.contains("{\"le\":\"+Inf\",\"n\":1}"));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let m = sample_set();
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE citymesh_attempts_total counter"));
        assert!(text.contains("citymesh_attempts_total 10"));
        assert!(text.contains("# TYPE citymesh_attempts_per_flow histogram"));
        // Samples 1,1,2,4,9 → le=1:2, le=2:3, le=3:3, le=4:4, +Inf:5.
        assert!(text.contains("citymesh_attempts_per_flow_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("citymesh_attempts_per_flow_bucket{le=\"2\"} 3\n"));
        assert!(text.contains("citymesh_attempts_per_flow_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("citymesh_attempts_per_flow_bucket{le=\"4\"} 4\n"));
        assert!(text.contains("citymesh_attempts_per_flow_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("citymesh_attempts_per_flow_sum 17\n"));
        assert!(text.contains("citymesh_attempts_per_flow_count 5\n"));
    }

    #[test]
    fn empty_set_renders_cleanly() {
        let m = MetricSet::new();
        assert!(m.to_json().contains("\"attempts_total\":0"));
        assert!(m
            .to_prometheus()
            .contains("citymesh_latency_first_us_count 0\n"));
    }
}
