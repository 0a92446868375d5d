//! Reading the daemon's `METRICS` dump into the per-layer counters the
//! benchmark reports.

use leaps::obs::{MetricValue, Snapshot};

/// Parses a `METRICS` reply: the `OK metrics n=<k>` acknowledgement and
/// the `METRIC <line>` lines that follow it. The count must match.
pub fn parse_metrics_block(ack: &str, lines: &[String]) -> Result<Snapshot, String> {
    let count: usize = ack
        .strip_prefix("OK metrics")
        .and_then(|rest| rest.split_whitespace().find_map(|t| t.strip_prefix("n=")))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("bad METRICS acknowledgement {ack:?}"))?;
    if lines.len() != count {
        return Err(format!("METRICS announced {count} lines, got {}", lines.len()));
    }
    let entries = lines
        .iter()
        .map(|line| {
            let body = line
                .strip_prefix("METRIC ")
                .ok_or_else(|| format!("expected a METRIC line, got {line:?}"))?;
            MetricValue::parse_line(body).map_err(|e| format!("bad metric line {line:?}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Snapshot { entries })
}

/// The daemon-side counters of the serve, registry and pool layers. A
/// counter the daemon never registered reads as zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DaemonCounters {
    pub events: u64,
    pub shed: u64,
    pub verdicts: u64,
    pub registry_loads: u64,
    pub registry_hits: u64,
    pub pool_jobs: u64,
    /// Log-bucket upper edge of the median `EVENT` handling time (µs).
    pub proto_event_p50_us: u64,
}

impl DaemonCounters {
    pub fn from_snapshot(snap: &Snapshot) -> DaemonCounters {
        let counter = |name| snap.counter(name).unwrap_or(0);
        DaemonCounters {
            events: counter("serve.events"),
            shed: counter("serve.shed"),
            verdicts: counter("serve.verdicts"),
            registry_loads: counter("registry.loads"),
            registry_hits: counter("registry.hits"),
            pool_jobs: counter("pool.jobs"),
            proto_event_p50_us: snap.hist("proto.event.us").map_or(0, |h| h.quantile(0.5)),
        }
    }

    /// Registry lookups served from the cache, as a share of all lookups.
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.registry_hits, self.registry_hits + self.registry_loads)
    }

    /// Pool jobs per submitted event: below 1 when drains batch events.
    pub fn jobs_per_event(&self) -> f64 {
        ratio(self.pool_jobs, self.events)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|l| (*l).to_owned()).collect()
    }

    #[test]
    fn parses_counters_and_the_event_histogram() {
        let mut buckets = vec!["0"; 32];
        buckets[4] = "6"; // values in [8, 16) µs
        buckets[5] = "2";
        let hist =
            format!("METRIC proto.event.us hist count=8 sum=100 buckets={}", buckets.join(","));
        let lines = block(&[
            "METRIC pool.jobs counter 300",
            &hist,
            "METRIC registry.hits counter 9",
            "METRIC registry.loads counter 3",
            "METRIC serve.events counter 1200",
            "METRIC serve.sessions gauge 0",
            "METRIC serve.verdicts counter 600",
        ]);
        let snap = parse_metrics_block("OK metrics n=7", &lines).expect("valid block");
        let c = DaemonCounters::from_snapshot(&snap);
        assert_eq!(c.events, 1200);
        assert_eq!(c.verdicts, 600);
        assert_eq!(c.shed, 0, "unregistered counter reads as zero");
        assert_eq!(c.proto_event_p50_us, 15);
        assert!((c.hit_ratio() - 0.75).abs() < 1e-12);
        assert!((c.jobs_per_event() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_count_mismatch_and_foreign_lines() {
        let lines = block(&["METRIC serve.events counter 1"]);
        assert!(parse_metrics_block("OK metrics n=2", &lines).is_err());
        assert!(parse_metrics_block("ERR proto nope", &lines).is_err());
        let lines = block(&["VERDICT pid=1 num=1 benign=1 score=- degraded=0"]);
        assert!(parse_metrics_block("OK metrics n=1", &lines).is_err());
        let lines = block(&["METRIC serve.events counter many"]);
        assert!(parse_metrics_block("OK metrics n=1", &lines).is_err());
    }

    #[test]
    fn ratios_of_an_idle_daemon_are_zero() {
        let c = DaemonCounters::default();
        assert_eq!(c.hit_ratio(), 0.0);
        assert_eq!(c.jobs_per_event(), 0.0);
    }
}
