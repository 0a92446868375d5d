//! The stable, line-oriented snapshot format.
//!
//! One metric per line, three shapes — the body of the daemon's
//! `METRICS` reply and of the JSONL flusher's records:
//!
//! ```text
//! serve.events counter 1204
//! serve.sessions gauge 3
//! proto.event.us hist count=1204 sum=48160 buckets=0,12,40,...
//! ```
//!
//! Rules that make the format stable: names are `[A-Za-z0-9_.-]`
//! tokens, fields are single-space separated, snapshots are sorted by
//! name, and a histogram always carries exactly [`HIST_BUCKETS`]
//! comma-separated bucket counts with `count` equal to their sum (the
//! parser enforces both, so damaged lines are caught rather than
//! silently misread).

use crate::{bucket_upper_bound, HIST_BUCKETS};

/// A parse failure, with the offending line quoted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsError {
    message: String,
}

impl ObsError {
    fn new(message: impl Into<String>) -> ObsError {
        ObsError { message: message.into() }
    }
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ObsError {}

/// A point-in-time value of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total number of recorded values (sum of `buckets`).
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow).
    pub sum: u64,
    /// Per-bucket counts; always [`HIST_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Mean of recorded values, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper-edge estimate of the `q`-quantile (`0.0..=1.0`): the
    /// inclusive upper bound of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }
}

/// A point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Monotonic counter.
    Counter(u64),
    /// Settable level.
    Gauge(i64),
    /// Log-bucketed histogram.
    Hist(HistSnapshot),
}

/// One named metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue {
    /// Metric name (a `[A-Za-z0-9_.-]` token).
    pub name: String,
    /// Its value at snapshot time.
    pub value: Value,
}

impl MetricValue {
    /// Renders the metric as one wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        match &self.value {
            Value::Counter(v) => format!("{} counter {v}", self.name),
            Value::Gauge(v) => format!("{} gauge {v}", self.name),
            Value::Hist(h) => {
                let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
                format!(
                    "{} hist count={} sum={} buckets={}",
                    self.name,
                    h.count,
                    h.sum,
                    buckets.join(",")
                )
            }
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns [`ObsError`] on an unknown kind, malformed fields, a
    /// wrong bucket count, or a `count` that disagrees with the bucket
    /// sum.
    pub fn parse_line(line: &str) -> Result<MetricValue, ObsError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let mut parts = line.split(' ');
        let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
            return Err(ObsError::new(format!("metric line too short: {line:?}")));
        };
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
        {
            return Err(ObsError::new(format!("bad metric name in line: {line:?}")));
        }
        let name = name.to_owned();
        let value = match kind {
            "counter" => {
                let v = parse_scalar(parts.next(), line)?;
                Value::Counter(v)
            }
            "gauge" => {
                let raw = parts
                    .next()
                    .ok_or_else(|| ObsError::new(format!("gauge line missing value: {line:?}")))?;
                Value::Gauge(
                    raw.parse::<i64>()
                        .map_err(|_| ObsError::new(format!("bad gauge value in line: {line:?}")))?,
                )
            }
            "hist" => Value::Hist(parse_hist_fields(&mut parts, line)?),
            other => {
                return Err(ObsError::new(format!("unknown metric kind {other:?} in: {line:?}")))
            }
        };
        if parts.next().is_some() {
            return Err(ObsError::new(format!("trailing fields in metric line: {line:?}")));
        }
        Ok(MetricValue { name, value })
    }
}

fn parse_scalar(field: Option<&str>, line: &str) -> Result<u64, ObsError> {
    field
        .ok_or_else(|| ObsError::new(format!("counter line missing value: {line:?}")))?
        .parse::<u64>()
        .map_err(|_| ObsError::new(format!("bad counter value in line: {line:?}")))
}

fn parse_hist_fields<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: &str,
) -> Result<HistSnapshot, ObsError> {
    let mut count = None;
    let mut sum = None;
    let mut buckets = None;
    for field in parts {
        let (key, raw) = field
            .split_once('=')
            .ok_or_else(|| ObsError::new(format!("bad hist field {field:?} in: {line:?}")))?;
        match key {
            "count" => {
                count =
                    Some(raw.parse::<u64>().map_err(|_| {
                        ObsError::new(format!("bad hist count {raw:?} in: {line:?}"))
                    })?);
            }
            "sum" => {
                sum =
                    Some(raw.parse::<u64>().map_err(|_| {
                        ObsError::new(format!("bad hist sum {raw:?} in: {line:?}"))
                    })?);
            }
            "buckets" => {
                let parsed: Result<Vec<u64>, _> = raw.split(',').map(str::parse::<u64>).collect();
                buckets = Some(parsed.map_err(|_| {
                    ObsError::new(format!("bad hist buckets {raw:?} in: {line:?}"))
                })?);
            }
            other => {
                return Err(ObsError::new(format!("unknown hist field {other:?} in: {line:?}")))
            }
        }
    }
    let (Some(count), Some(sum), Some(buckets)) = (count, sum, buckets) else {
        return Err(ObsError::new(format!("hist line missing count/sum/buckets: {line:?}")));
    };
    if buckets.len() != HIST_BUCKETS {
        return Err(ObsError::new(format!(
            "hist line has {} buckets, expected {HIST_BUCKETS}: {line:?}",
            buckets.len()
        )));
    }
    let bucket_total: u64 = buckets.iter().sum();
    if bucket_total != count {
        return Err(ObsError::new(format!(
            "hist count={count} disagrees with bucket sum {bucket_total}: {line:?}"
        )));
    }
    Ok(HistSnapshot { count, sum, buckets })
}

/// A sorted point-in-time view of a whole registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Metrics sorted by name.
    pub entries: Vec<MetricValue>,
}

impl Snapshot {
    /// Number of metrics in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries.iter().find(|e| e.name == name).map(|e| &e.value)
    }

    /// The counter named `name`, if present with that kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(Value::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge named `name`, if present with that kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(Value::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram named `name`, if present with that kind.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        match self.get(name) {
            Some(Value::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// Renders every metric, one line each, each newline-terminated.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&entry.to_line());
            out.push('\n');
        }
        out
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{...},"gauges":{...},"hists":{"n":{"count":c,"sum":s,"buckets":[...]}}}`.
    /// Names are already-validated tokens, so no string escaping is
    /// needed; key order follows the sorted entries.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for entry in &self.entries {
            match &entry.value {
                Value::Counter(v) => counters.push(format!("\"{}\":{v}", entry.name)),
                Value::Gauge(v) => gauges.push(format!("\"{}\":{v}", entry.name)),
                Value::Hist(h) => {
                    let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
                    hists.push(format!(
                        "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                        entry.name,
                        h.count,
                        h.sum,
                        buckets.join(",")
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"hists\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample() -> Snapshot {
        let reg = MetricsRegistry::new();
        reg.counter("serve.events").add(1204);
        reg.gauge("serve.sessions").set(-3);
        let h = reg.histogram("proto.event.us");
        h.record(0);
        h.record(40);
        h.record(u64::MAX);
        reg.snapshot()
    }

    #[test]
    fn lines_round_trip() {
        let snap = sample();
        let mut lines = String::new();
        for entry in &snap.entries {
            let line = entry.to_line();
            assert_eq!(&MetricValue::parse_line(&line).unwrap(), entry, "{line}");
            lines.push_str(&line);
            lines.push('\n');
        }
        assert_eq!(snap.encode(), lines);
    }

    #[test]
    fn damaged_lines_are_rejected() {
        let hist_line =
            sample().entries.iter().find(|e| e.name == "proto.event.us").unwrap().to_line();
        let damaged = [
            "".to_owned(),
            "lonely".to_owned(),
            "x unknown 3".to_owned(),
            "x counter".to_owned(),
            "x counter -1".to_owned(),
            "x counter 1 extra".to_owned(),
            "x gauge nope".to_owned(),
            "bad name counter 1".to_owned(),
            "x hist count=1 sum=2".to_owned(), // missing buckets
            "x hist count=1 sum=2 buckets=1,2".to_owned(), // wrong bucket count
            hist_line.replace("count=3", "count=4"), // count/bucket mismatch
            hist_line.replace("sum=", "total="), // unknown field
        ];
        for line in &damaged {
            assert!(MetricValue::parse_line(line).is_err(), "{line:?} must be rejected");
        }
    }

    #[test]
    fn quantiles_use_bucket_upper_edges() {
        let mut h = HistSnapshot { count: 0, sum: 0, buckets: vec![0; HIST_BUCKETS] };
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 10 zeros + 10 values of ~1000 (bucket 10, upper edge 1023).
        h.buckets[0] = 10;
        h.buckets[10] = 10;
        h.count = 20;
        h.sum = 10_000;
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.51), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.mean(), 500);
    }

    #[test]
    fn json_shape_is_stable() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"serve.events\":1204"), "{json}");
        assert!(json.contains("\"serve.sessions\":-3"), "{json}");
        assert!(json.contains("\"proto.event.us\":{\"count\":3,"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
    }
}
