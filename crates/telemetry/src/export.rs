//! The snapshot exporter: JSON.
//!
//! Hand-rolled (the workspace is offline; no serde) and deterministic:
//! metrics render in registry order, so two equal [`MetricSet`]s always
//! produce byte-identical output.

use crate::metrics::{MetricSet, COUNTERS, GAUGES};

impl MetricSet {
    /// Renders the full set as one JSON object:
    /// `{"counters":{...},"gauges":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
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
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::{MetricSet, ATTEMPTS, MAX_ATTEMPTS, POSTMORTEMS};

    #[test]
    fn json_is_deterministic_and_structured() {
        let mut m = MetricSet::new();
        m.add(ATTEMPTS, 10);
        m.add(POSTMORTEMS, 9);
        m.gauge_max(MAX_ATTEMPTS, 3);
        let a = m.to_json();
        assert_eq!(a, m.clone().to_json());
        assert!(a.starts_with("{\"counters\":{\"attempts_total\":10,"));
        assert!(a.contains("\"postmortems_total\":9"));
        assert!(a.ends_with(",\"max_attempts_per_flow\":3}}"));
    }

    #[test]
    fn empty_set_renders_cleanly() {
        let json = MetricSet::new().to_json();
        assert!(json.contains("\"attempts_total\":0"));
        assert!(json.contains("\"gauges\":{\"trace_ring_high_water\":0,"));
    }
}
