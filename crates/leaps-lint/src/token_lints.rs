//! Tier 1: token-level invariant lints. Each `check_*` function slides
//! over one file's token stream looking for a forbidden pattern; the
//! shared [`Ctx`] applies crate allowlists and test-code exemptions
//! from the policy table before a finding is recorded.

use crate::lexer::{Tok, Token};
use crate::lints::{
    self, Finding, HASH_ITER_ORDER, LOCK_UNWRAP, METRIC_VOCAB, RAW_CLOCK, STRAY_SPAWN, UNSAFE_BLOCK,
};
use crate::source::SourceFile;
use crate::vocab;
use std::collections::BTreeSet;

/// Runs every token lint over `file`. `_all` is reserved for future
/// cross-file lints; metric-vocab is cross-file by construction since
/// the vocabulary itself is the shared table.
pub fn check_file(file: &SourceFile, _all: &[SourceFile], out: &mut Vec<Finding>) {
    let mut ctx = Ctx { file, out, emitted: BTreeSet::new() };
    check_lock_unwrap(&mut ctx);
    check_raw_clock(&mut ctx);
    check_stray_spawn(&mut ctx);
    check_unsafe(&mut ctx);
    check_metric_vocab(&mut ctx);
    check_hash_iter_order(&mut ctx);
}

struct Ctx<'a> {
    file: &'a SourceFile,
    out: &'a mut Vec<Finding>,
    /// (lint, line) pairs already reported — collapses repeated
    /// matches of the same pattern on one line into one finding.
    emitted: BTreeSet<(&'static str, u32)>,
}

impl Ctx<'_> {
    fn emit(&mut self, lint: &'static str, line: u32, message: String) {
        let policy = lints::policy(lint);
        if policy.allowed_crates.contains(&self.file.crate_name.as_str()) {
            return;
        }
        if policy.skip_tests && self.file.is_test_line(line) {
            return;
        }
        if !self.emitted.insert((lint, line)) {
            return;
        }
        self.out.push(Finding {
            lint,
            file: self.file.rel_path.clone(),
            line,
            severity: policy.severity,
            message,
        });
    }

    fn tokens(&self) -> &[Token] {
        &self.file.tokens
    }
}

fn ident(t: Option<&Token>) -> Option<&str> {
    match t.map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(t: Option<&Token>, c: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// `path::to::name` — true when tokens at `i` are `name :: tail`.
fn path_seg(toks: &[Token], i: usize, name: &str, tail: &str) -> bool {
    ident(toks.get(i)) == Some(name)
        && punct(toks.get(i + 1), ':')
        && punct(toks.get(i + 2), ':')
        && ident(toks.get(i + 3)) == Some(tail)
}

/// lock-unwrap: `.lock().unwrap()` / `.lock().expect(…)` panics on a
/// poisoned mutex, wedging supervisors; use `leaps_par::lock_unpoisoned`.
fn check_lock_unwrap(ctx: &mut Ctx) {
    let toks = ctx.tokens();
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        if punct(toks.get(i), '.')
            && ident(toks.get(i + 1)) == Some("lock")
            && punct(toks.get(i + 2), '(')
            && punct(toks.get(i + 3), ')')
            && punct(toks.get(i + 4), '.')
            && matches!(ident(toks.get(i + 5)), Some("unwrap") | Some("expect"))
            && punct(toks.get(i + 6), '(')
        {
            hits.push(toks[i].line);
        }
    }
    for line in hits {
        ctx.emit(
            LOCK_UNWRAP,
            line,
            "`.lock().unwrap()` panics on a poisoned mutex; \
             use `leaps_par::lock_unpoisoned` so a panicking holder cannot wedge the lock"
                .to_string(),
        );
    }
}

/// raw-clock: `Instant::now` / `SystemTime::now` outside `leaps-obs`
/// bypasses the swappable clock, breaking bit-stable metrics in test.
fn check_raw_clock(ctx: &mut Ctx) {
    let toks = ctx.tokens();
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        for ty in ["Instant", "SystemTime"] {
            if path_seg(toks, i, ty, "now") {
                hits.push((toks[i].line, ty));
            }
        }
    }
    for (line, ty) in hits {
        ctx.emit(
            RAW_CLOCK,
            line,
            format!(
                "`{ty}::now` bypasses the swappable obs clock; \
                 use `leaps_obs::now_micros()` so tests can freeze time"
            ),
        );
    }
}

/// stray-spawn: threads created outside `leaps-par` / `leaps-serve`
/// escape supervision (no panic containment, no naming).
fn check_stray_spawn(ctx: &mut Ctx) {
    let toks = ctx.tokens();
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        let direct = path_seg(toks, i, "thread", "spawn");
        // `Builder::new()…spawn(…)`: a `.spawn(` whose statement
        // (back to the nearest `;`/`{`/`}`) mentions `Builder`.
        let via_builder = punct(toks.get(i), '.')
            && ident(toks.get(i + 1)) == Some("spawn")
            && punct(toks.get(i + 2), '(')
            && statement_start(toks, i)
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "Builder" || s == "thread"));
        if direct || via_builder {
            hits.push(toks[i].line);
        }
    }
    for line in hits {
        ctx.emit(
            STRAY_SPAWN,
            line,
            "unsupervised thread spawn; route work through `leaps-par` \
             (scoped helpers or the supervised pool) so panics are contained"
                .to_string(),
        );
    }
}

/// Tokens of the statement containing index `i` (from the nearest
/// preceding `;`, `{` or `}` up to `i`).
fn statement_start(toks: &[Token], i: usize) -> &[Token] {
    let mut j = i;
    while j > 0 {
        if matches!(toks[j - 1].tok, Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}')) {
            break;
        }
        j -= 1;
    }
    &toks[j..i]
}

/// unsafe-block: the workspace is 100% safe Rust today; any `unsafe`
/// needs an explicit, written waiver.
fn check_unsafe(ctx: &mut Ctx) {
    let toks = ctx.tokens();
    let mut hits = Vec::new();
    for t in toks {
        if matches!(&t.tok, Tok::Ident(s) if s == "unsafe") {
            hits.push(t.line);
        }
    }
    for line in hits {
        ctx.emit(
            UNSAFE_BLOCK,
            line,
            "`unsafe` is not used anywhere in this workspace; \
             justify any exception with a lint:allow reason"
                .to_string(),
        );
    }
}

/// metric-vocab: every literal passed to the obs macros (or the
/// underlying registry methods) must match the dotted vocabulary.
fn check_metric_vocab(ctx: &mut Ctx) {
    const MACROS: &[&str] = &["counter", "gauge", "histogram", "span"];
    let toks = ctx.tokens();
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        let Some(name) = ident(toks.get(i)) else { continue };
        if !MACROS.contains(&name) {
            continue;
        }
        // Macro form: `counter!(` — or method form: `.counter(`.
        let arg_at = if punct(toks.get(i + 1), '!') && punct(toks.get(i + 2), '(') {
            i + 3
        } else if name != "span"
            && punct(toks.get(i + 1), '(')
            && i > 0
            && punct(toks.get(i - 1), '.')
        {
            i + 2
        } else {
            continue;
        };
        if let Some((line, literal)) = metric_literal(toks, arg_at) {
            if let Err(msg) = vocab::check(&literal) {
                hits.push((line, msg));
            }
        }
    }
    for (line, msg) in hits {
        ctx.emit(METRIC_VOCAB, line, msg);
    }
}

/// Extracts the metric-name literal at an argument position: either a
/// plain string or `&format!("…", …)` (the template is checked with
/// placeholders as wildcards). Non-literal names cannot be checked.
fn metric_literal(toks: &[Token], at: usize) -> Option<(u32, String)> {
    let mut j = at;
    if punct(toks.get(j), '&') {
        j += 1;
    }
    if ident(toks.get(j)) == Some("format")
        && punct(toks.get(j + 1), '!')
        && punct(toks.get(j + 2), '(')
    {
        j += 3;
    }
    match toks.get(j).map(|t| &t.tok) {
        Some(Tok::Str(s)) => Some((toks[j].line, s.clone())),
        _ => None,
    }
}

/// hash-iter-order: iterating a `HashMap`/`HashSet` in non-test code
/// yields nondeterministic order; on a result path that breaks the
/// bit-identical-outputs invariant. Two passes: find names with hash
/// types (ascriptions and fn returns), then flag iteration over them.
fn check_hash_iter_order(ctx: &mut Ctx) {
    let toks = ctx.tokens();
    let hash_names = collect_hash_names(toks);
    if hash_names.is_empty() {
        return;
    }
    const ADAPTERS: &[&str] = &[
        "iter",
        "iter_mut",
        "into_iter",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
        "into_keys",
        "into_values",
    ];
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        // `<recv>.iter()` — receiver mentions a hash-typed name.
        if punct(toks.get(i), '.')
            && ident(toks.get(i + 1)).is_some_and(|m| ADAPTERS.contains(&m))
            && punct(toks.get(i + 2), '(')
        {
            if let Some(name) =
                receiver_idents(toks, i).into_iter().find(|n| hash_names.contains(n))
            {
                hits.push((toks[i].line, name, ident(toks.get(i + 1)).unwrap().to_string()));
            }
        }
        // `for pat in <expr> {` — expr mentions a hash-typed name.
        if ident(toks.get(i)) == Some("for") {
            if let Some((line, name)) = for_loop_over_hash(toks, i, &hash_names) {
                hits.push((line, name, "for-in".to_string()));
            }
        }
    }
    for (line, name, how) in hits {
        ctx.emit(
            HASH_ITER_ORDER,
            line,
            format!(
                "iteration ({how}) over hash-ordered `{name}` is nondeterministic; \
                 use BTreeMap/BTreeSet or sort before consuming"
            ),
        );
    }
}

/// Pass 1: names whose ascribed type mentions `HashMap`/`HashSet`
/// (let bindings, struct fields, fn params — all share the `name :
/// Type` shape) plus same-file functions returning a hash type.
fn collect_hash_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        // `name : <type…>` — not a path `::` on either side.
        if let Some(name) = ident(toks.get(i)) {
            let ascription = punct(toks.get(i + 1), ':')
                && !punct(toks.get(i + 2), ':')
                && !(i > 0 && punct(toks.get(i - 1), ':'));
            if ascription && type_scan_hits_hash(toks, i + 2) {
                names.insert(name.to_string());
            }
        }
        // `fn name (…) -> …HashMap…` — calls to it produce hash data.
        if ident(toks.get(i)) == Some("fn") {
            if let Some(name) = ident(toks.get(i + 1)) {
                if fn_returns_hash(toks, i + 2) {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// Scans a type position until the ascription plausibly ends (`=`,
/// `;`, `{`, or a `,`/`)` at nesting depth 0), reporting whether a
/// hash container appears. Bounded so a miss can't run away.
fn type_scan_hits_hash(toks: &[Token], start: usize) -> bool {
    let mut angle = 0i32;
    let mut paren = 0i32;
    let end = (start + 40).min(toks.len());
    for t in toks.get(start..end).unwrap_or_default() {
        match &t.tok {
            Tok::Ident(s) if s == "HashMap" || s == "HashSet" => return true,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') if paren > 0 => paren -= 1,
            Tok::Punct(')') => return false,
            Tok::Punct(',') if angle <= 0 && paren <= 0 => return false,
            Tok::Punct('=') | Tok::Punct(';') | Tok::Punct('{') => return false,
            _ => {}
        }
    }
    false
}

/// From just past a fn name, skips the parameter list then checks a
/// `-> …` return type for hash containers.
fn fn_returns_hash(toks: &[Token], mut j: usize) -> bool {
    // Skip generics to the parameter `(`.
    while j < toks.len() && !punct(toks.get(j), '(') {
        if matches!(toks[j].tok, Tok::Punct('{') | Tok::Punct(';')) {
            return false;
        }
        j += 1;
    }
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Expect `-> Type… {`.
    if !(punct(toks.get(j + 1), '-') && punct(toks.get(j + 2), '>')) {
        return false;
    }
    let end = (j + 40).min(toks.len());
    for t in toks.get(j + 3..end).unwrap_or_default() {
        match &t.tok {
            Tok::Ident(s) if s == "HashMap" || s == "HashSet" => return true,
            Tok::Punct('{') | Tok::Punct(';') => return false,
            _ => {}
        }
    }
    false
}

/// Walks backwards from the `.` of a method call, collecting the
/// identifiers in the receiver expression: idents, `.` chains, and
/// balanced `(…)` / `[…]` groups (so `f(&self.x).y.iter()` sees
/// `f`, `self`, `x`, `y`).
fn receiver_idents(toks: &[Token], dot: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut j = dot;
    let mut depth = 0i32;
    while j > 0 {
        j -= 1;
        match &toks[j].tok {
            Tok::Punct(')') | Tok::Punct(']') => depth += 1,
            Tok::Punct('(') | Tok::Punct('[') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            Tok::Ident(s) => {
                out.insert(s.clone());
            }
            Tok::Punct('.') | Tok::Punct('&') | Tok::Punct(':') => {}
            _ if depth > 0 => {}
            _ => break,
        }
    }
    out
}

/// For `for pat in <expr> {`, returns the first hash-typed name the
/// loop expression mentions.
fn for_loop_over_hash(
    toks: &[Token],
    for_idx: usize,
    hash_names: &BTreeSet<String>,
) -> Option<(u32, String)> {
    // Find `in` at nesting depth 0 (patterns may contain `(`/`[`).
    let mut j = for_idx + 1;
    let mut depth = 0i32;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Ident(s) if s == "in" && depth == 0 => break,
            Tok::Punct('{') | Tok::Punct(';') => return None,
            _ => {}
        }
        j += 1;
    }
    // Scan the loop expression to the body `{` at depth 0.
    let mut k = j + 1;
    depth = 0;
    while k < toks.len() {
        match &toks[k].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => return None,
            Tok::Punct(';') => return None,
            Tok::Ident(s) if hash_names.contains(s) => {
                return Some((toks[k].line, s.clone()));
            }
            _ => {}
        }
        k += 1;
    }
    None
}
