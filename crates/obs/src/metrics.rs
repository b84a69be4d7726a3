//! The metric export walker: one table of rows says which leaves of a
//! stats JSON snapshot are exported, and one walk turns table plus
//! snapshot into both the time-series samples and the Prometheus text.
//!
//! A row is `(path, kind, help)`. `path` is a dotted path into the
//! snapshot; a `name{label}` segment fans out over every key of an object
//! (the key is the label value) or every element of an array (the
//! element's `label` field is the label value). A path whose section is
//! absent exports nothing.
//!
//! Names follow from the path alone:
//!
//! * the series is the path with each `{label}` replaced by its value
//!   (`detector.shards{shard}.signals` → `detector.shards.3.signals`); a
//!   histogram feeds the ring a `<series>.p99_ns` gauge;
//! * the Prometheus family is `sentinel_` plus the path without its
//!   `{…}` segments, dots turned to underscores, and `_total` on counters
//!   (`sentinel_detector_shards_signals_total{shard="3"}`); a histogram
//!   renders from the snapshot rebuilt by [`HistogramSnapshot::from_json`].

use crate::json::Value;
use crate::timeseries::Sample;
use crate::{HistogramSnapshot, PromText};

/// How a row's leaves are exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone count.
    Counter,
    /// An instantaneous level.
    Gauge,
    /// A [`HistogramSnapshot`] rendered as JSON.
    Histogram,
}

/// One exported family: `(path, kind, help)`.
pub type MetricRow = (&'static str, MetricKind, &'static str);

/// The Prometheus family name of a row.
fn family(path: &str, kind: MetricKind) -> String {
    let mut name = String::from("sentinel");
    for seg in path.split('.') {
        name.push('_');
        name.push_str(seg.split('{').next().unwrap_or(seg));
    }
    if kind == MetricKind::Counter {
        name.push_str("_total");
    }
    name
}

/// Descends `segs` from `v`, calling `f(series, labels, leaf)` at every
/// leaf reached.
fn visit<'a>(
    v: &'a Value,
    segs: &[&'static str],
    series: &str,
    labels: &mut Vec<(&'static str, String)>,
    f: &mut impl FnMut(&str, &[(&'static str, String)], &'a Value),
) {
    let Some((seg, rest)) = segs.split_first() else {
        f(series, labels, v);
        return;
    };
    let (key, label) = match seg.split_once('{') {
        Some((key, label)) => (key, Some(label.trim_end_matches('}'))),
        None => (*seg, None),
    };
    let Some(child) = v.get(key) else { return };
    let series = if series.is_empty() { key.to_string() } else { format!("{series}.{key}") };
    let Some(label) = label else {
        return visit(child, rest, &series, labels, f);
    };
    let items: Vec<(String, &Value)> = match child {
        Value::Obj(pairs) => pairs.iter().map(|(k, item)| (k.clone(), item)).collect(),
        Value::Arr(items) => items
            .iter()
            .filter_map(|item| match item.get("label")? {
                Value::Str(s) => Some((s.clone(), item)),
                other => Some((other.as_u64()?.to_string(), item)),
            })
            .collect(),
        _ => Vec::new(),
    };
    for (value, item) in items {
        let series = format!("{series}.{value}");
        labels.push((label, value));
        visit(item, rest, &series, labels, f);
        labels.pop();
    }
}

/// Calls `f(row, series, labels, leaf)` for every leaf of `stats` the
/// rows reach, in table order.
fn walk<'a>(
    rows: &[MetricRow],
    stats: &'a Value,
    mut f: impl FnMut(&MetricRow, &str, &[(&'static str, String)], &'a Value),
) {
    for row in rows {
        let segs: Vec<&'static str> = row.0.split('.').collect();
        visit(stats, &segs, "", &mut Vec::new(), &mut |series, labels, leaf| {
            f(row, series, labels, leaf)
        });
    }
}

/// The time-series samples of one snapshot. Leaves that are not
/// integers (a `null` the snapshot has no value for) are skipped.
pub fn samples(rows: &[MetricRow], stats: &Value) -> Vec<Sample> {
    let mut out = Vec::new();
    walk(rows, stats, |&(_, kind, _), series, _, leaf| {
        out.extend(match kind {
            MetricKind::Counter => leaf.as_u64().map(|v| Sample::counter(series, v)),
            MetricKind::Gauge => leaf.as_u64().map(|v| Sample::gauge(series, v)),
            MetricKind::Histogram => leaf
                .get("p99_ns")
                .and_then(Value::as_u64)
                .map(|v| Sample::gauge(format!("{series}.p99_ns"), v)),
        });
    });
    out
}

/// The Prometheus exposition text (format 0.0.4) of one snapshot.
pub fn prom_text(rows: &[MetricRow], stats: &Value) -> String {
    let mut w = PromText::new();
    walk(rows, stats, |&(path, kind, help), _, labels, leaf| {
        let name = family(path, kind);
        let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        match kind {
            MetricKind::Counter => {
                if let Some(v) = leaf.as_u64() {
                    w.counter(&name, help, &labels, v);
                }
            }
            MetricKind::Gauge => {
                if let Some(v) = leaf.as_u64() {
                    w.gauge(&name, help, &labels, v);
                }
            }
            MetricKind::Histogram => {
                if let Some(snap) = HistogramSnapshot::from_json(leaf) {
                    w.histogram(&name, help, &labels, &snap);
                }
            }
        }
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;
    use MetricKind::*;

    fn lat() -> HistogramSnapshot {
        let h = Histogram::new();
        h.record(3);
        h.record(900);
        h.snapshot()
    }

    fn stats() -> Value {
        Value::parse(&format!(
            r#"{{"rules":{{"a":2,"b":5}},
                 "shards":[{{"label":3,"depth":7}},{{"label":"x","depth":1}}],
                 "lat":{}}}"#,
            lat().to_json()
        ))
        .unwrap()
    }

    fn names(rows: &[MetricRow], stats: &Value) -> Vec<String> {
        samples(rows, stats).into_iter().map(|s| s.series).collect()
    }

    #[test]
    fn a_label_fans_out_over_object_keys() {
        let rows = [("rules{rule}", Counter, "Per rule")];
        assert_eq!(names(&rows, &stats()), ["rules.a", "rules.b"]);
        let text = prom_text(&rows, &stats());
        assert!(text.contains("# TYPE sentinel_rules_total counter\n"));
        assert!(text.contains("sentinel_rules_total{rule=\"b\"} 5\n"));
    }

    #[test]
    fn a_label_fans_out_over_array_elements() {
        let rows = [("shards{shard}.depth", Gauge, "Depth")];
        assert_eq!(names(&rows, &stats()), ["shards.3.depth", "shards.x.depth"]);
        let text = prom_text(&rows, &stats());
        assert!(text.contains("sentinel_shards_depth{shard=\"3\"} 7\n"));
        assert!(text.contains("sentinel_shards_depth{shard=\"x\"} 1\n"));
    }

    #[test]
    fn a_missing_section_exports_nothing() {
        let rows = [("durability.appends", Counter, "Appends"), ("gone{x}.y", Gauge, "Y")];
        assert!(samples(&rows, &stats()).is_empty());
        assert_eq!(prom_text(&rows, &stats()), "");
    }

    #[test]
    fn a_histogram_renders_from_its_json_as_from_the_snapshot() {
        let rows = [("lat", Histogram, "Latency")];
        let s = samples(&rows, &stats());
        assert_eq!((s[0].series.as_str(), s[0].value), ("lat.p99_ns", 900));
        let mut w = PromText::new();
        w.histogram("sentinel_lat", "Latency", &[], &lat());
        assert_eq!(prom_text(&rows, &stats()), w.finish());
    }
}
