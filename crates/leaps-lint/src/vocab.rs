//! The dotted metric/span vocabulary — the machine-readable mirror of
//! DESIGN.md §14. Every literal passed to `counter!` / `gauge!` /
//! `histogram!` / `span!` (or to the underlying `registry()` methods)
//! must match an entry here; patterns with a trailing `*` cover the
//! few names with one dynamic segment (`pool.queue.{index}`).
//!
//! Adding a metric is a two-line change — one row here, one row in
//! DESIGN.md §14 — and the lint keeps the two from drifting apart.

/// Exact metric and span names in the workspace vocabulary.
pub const EXACT: &[&str] = &[
    // leaps-par pool supervision
    "pool.jobs",
    "pool.panics",
    "pool.workers",
    // leaps-serve model registry
    "registry.hits",
    "registry.loads",
    "registry.evictions",
    "registry.models",
    "registry.cached_bytes",
    // leaps-serve session/daemon lifecycle
    "serve.opened",
    "serve.sessions",
    "serve.events",
    "serve.shed",
    "serve.closed",
    "serve.reaped",
    "serve.verdicts",
    "serve.degraded",
    // protocol verb spans
    "proto.hello",
    "proto.open",
    "proto.event",
    "proto.close",
    "proto.stats",
    "proto.reload",
    "proto.health",
    "proto.metrics",
    "proto.shutdown",
    "proto.bye",
    "proto.panic",
    // training counters
    "train.cv.cells",
    "train.cv.gram_builds",
    "train.smo.passes",
    "train.bw.iters",
    // checkpointing
    "ckpt.write",
    "ckpt.writes",
    "ckpt.bytes",
    // experiment sweeps
    "sweep.cell",
];

/// Name families with exactly one dynamic final segment.
pub const PATTERNS: &[&str] = &["pool.queue.*", "sweep.cells.*"];

/// Checks a metric-name literal against the vocabulary. `name` may be
/// a `format!` template — `{…}` placeholders are treated as one
/// dynamic segment. Returns an error message on any mismatch.
pub fn check(name: &str) -> Result<(), String> {
    let normalized = normalize_placeholders(name);
    check_shape(&normalized)?;
    if EXACT.contains(&normalized.as_str()) {
        return Ok(());
    }
    if PATTERNS.iter().any(|p| pattern_matches(p, &normalized)) {
        return Ok(());
    }
    // Spans publish their duration as the histogram `<span>.us`, so
    // the derived name is in-vocabulary whenever the span is.
    if let Some(base) = normalized.strip_suffix(".us") {
        if EXACT.contains(&base) || PATTERNS.iter().any(|p| pattern_matches(p, base)) {
            return Ok(());
        }
    }
    Err(format!(
        "`{name}` is not in the metric vocabulary (DESIGN.md §14); \
         add it there and to leaps-lint's vocab table, or fix the name"
    ))
}

/// Rewrites each `{…}` format placeholder to the wildcard segment `*`.
fn normalize_placeholders(name: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in name.chars() {
        match c {
            '{' => {
                depth += 1;
                if depth == 1 {
                    out.push('*');
                }
            }
            '}' if depth > 0 => depth -= 1,
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Names must be lowercase dotted paths: at least two segments of
/// `[a-z0-9_]+` (or a lone `*` wildcard segment).
fn check_shape(name: &str) -> Result<(), String> {
    let segments: Vec<&str> = name.split('.').collect();
    if segments.len() < 2 {
        return Err(format!("`{name}` is not a dotted metric path (need at least 2 segments)"));
    }
    for seg in &segments {
        let ok = *seg == "*"
            || (!seg.is_empty()
                && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        if !ok {
            return Err(format!(
                "`{name}` has a malformed segment `{seg}` (want lowercase [a-z0-9_]+)"
            ));
        }
    }
    Ok(())
}

fn pattern_matches(pattern: &str, name: &str) -> bool {
    let p: Vec<&str> = pattern.split('.').collect();
    let n: Vec<&str> = name.split('.').collect();
    p.len() == n.len() && p.iter().zip(&n).all(|(ps, ns)| *ps == "*" || *ns == "*" || ps == ns)
}
