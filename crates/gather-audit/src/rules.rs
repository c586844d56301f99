//! The audit rules and the per-file engine that runs them, applies
//! waivers, and enforces waiver hygiene.
//!
//! Every rule guards a project invariant that is otherwise only checked
//! *dynamically* (by replay/diff tests that must first burn CPU to hit
//! the hazard):
//!
//! | rule | invariant protected |
//! |---|---|
//! | `wall-clock` | profile-off runs read no clocks → results are a pure function of (scenario, seed, config) |
//! | `unordered-iter` | no hash-map iteration order leaks into results in the determinism-critical crates |
//! | `seeded-rng` | every RNG is constructed from an explicit seed → replays are exact |
//! | `safety-comment` | every `unsafe` is justified in a `// SAFETY:` comment |
//! | `panic-surface` | engine library code panics only on *named* invariants |
//! | `waiver-hygiene` | the waiver inventory matches the hazards actually present |
//!
//! Scoping: files under `tests/`, `benches/`, `examples/` and
//! `src/bin/`, and items inside `#[cfg(test)]`, are exempt from the
//! determinism rules (`wall-clock`, `unordered-iter`, `panic-surface`)
//! — test and CLI timing is not replayed. `seeded-rng`,
//! `safety-comment` and `waiver-hygiene` apply everywhere: an
//! entropy-seeded test is flaky, and unsafe is unsafe wherever it is.

use crate::lexer::{lex, Token, TokenKind};
use crate::waiver::{self, Waiver, WaiverSyntax};

/// Every rule the engine knows, in diagnostic-priority order.
pub const RULE_NAMES: [&str; 6] = [
    "wall-clock",
    "unordered-iter",
    "seeded-rng",
    "safety-comment",
    "panic-surface",
    "waiver-hygiene",
];

/// Crates whose results feed traces, digests and the campaign cache —
/// hash-iteration order must not be observable in them.
const DETERMINISM_CRITICAL_CRATES: [&str; 3] = ["grid-engine", "gather-bench", "gather-trace"];

/// Crates whose *library* code must not panic on unnamed invariants.
const PANIC_FREE_CRATES: [&str; 1] = ["grid-engine"];

/// Files allowed to read wall clocks: the profiler itself, the campaign
/// executor/progress layer (job timing and ETA display), the campaign
/// service's clock module (lease expiry and heartbeat pacing need real
/// elapsed time; the rest of gather-serve takes `now_ms` as an argument
/// so expiry logic stays pure and nothing time-derived can reach a
/// content-addressed cache key). Everything else library-side must be
/// replayable with profiling off.
const WALL_CLOCK_ALLOWLIST: [&str; 4] = [
    "crates/grid-engine/src/profile.rs",
    "crates/gather-campaign/src/executor.rs",
    "crates/gather-campaign/src/progress.rs",
    "crates/gather-serve/src/clock.rs",
];

const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];
const ENTROPY_SOURCES: [&str; 3] = ["thread_rng", "from_entropy", "OsRng"];

/// One finding, waived or not.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    /// Suppressed by a valid inline waiver.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub waive_reason: Option<String>,
}

/// Result of auditing one file.
#[derive(Clone, Debug, Default)]
pub struct FileAudit {
    /// All findings, including waived ones (reports show both).
    pub diagnostics: Vec<Diagnostic>,
    /// Byte spans of waiver comments `--fix-waivers` may delete
    /// (stale, unknown-rule, malformed).
    pub removable_waivers: Vec<(usize, usize)>,
}

impl FileAudit {
    /// Findings that actually fail the audit.
    pub fn active(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.waived)
    }
}

/// A lexed file plus the scoping facts the rules need.
struct SourceFile<'a> {
    path: &'a str,
    tokens: Vec<Token<'a>>,
    /// Indices into `tokens` of non-comment tokens.
    code: Vec<usize>,
    /// Per *code index*: inside a `#[cfg(test)]` item.
    in_test: Vec<bool>,
    crate_name: &'a str,
    /// tests/, benches/, examples/ or src/bin/ — not replayed library code.
    non_library: bool,
}

fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/").and_then(|rest| rest.split('/').next()).unwrap_or("grid-gathering")
}

fn is_non_library(path: &str) -> bool {
    let p = format!("/{path}");
    ["/tests/", "/benches/", "/examples/", "/src/bin/"].iter().any(|d| p.contains(d))
}

impl<'a> SourceFile<'a> {
    fn new(path: &'a str, src: &'a str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> = (0..tokens.len()).filter(|&i| !tokens[i].is_comment()).collect();
        let in_test = mark_cfg_test(&tokens, &code);
        SourceFile {
            path,
            crate_name: crate_of(path),
            non_library: is_non_library(path),
            tokens,
            code,
            in_test,
        }
    }

    /// The `k`-th code token.
    fn ct(&self, k: usize) -> &Token<'a> {
        &self.tokens[self.code[k]]
    }

    fn ident_at(&self, k: usize) -> Option<&'a str> {
        let t = self.ct(k);
        (t.kind == TokenKind::Ident).then_some(t.text)
    }

    fn punct_at(&self, k: usize, c: char) -> bool {
        let t = self.ct(k);
        t.kind == TokenKind::Punct && t.text.starts_with(c)
    }
}

/// Per code-token index: is it inside a `#[cfg(test)]` item? Recognises
/// the attribute followed by (more attributes and) an item, and marks
/// up to the item's closing brace (or `;` for brace-less items).
fn mark_cfg_test(tokens: &[Token<'_>], code: &[usize]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let ident = |k: usize| -> Option<&str> {
        let t = &tokens[code[k]];
        (t.kind == TokenKind::Ident).then_some(t.text)
    };
    let punct = |k: usize, c: char| -> bool {
        let t = &tokens[code[k]];
        t.kind == TokenKind::Punct && t.text.starts_with(c)
    };
    let mut k = 0;
    while k + 1 < code.len() {
        if !(punct(k, '#') && punct(k + 1, '[')) {
            k += 1;
            continue;
        }
        // Scan the attribute's bracket-balanced body for cfg(…test…).
        let mut j = k + 2;
        let mut depth = 1u32;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while j < code.len() && depth > 0 {
            if punct(j, '[') {
                depth += 1;
            } else if punct(j, ']') {
                depth -= 1;
            } else if let Some(name) = ident(j) {
                if name == "cfg" && j == k + 2 {
                    saw_cfg = true;
                } else if name == "test" {
                    saw_test = true;
                }
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) {
            k = j;
            continue;
        }
        // Skip further attributes, then mark the following item.
        let mut m = j;
        while m + 1 < code.len() && punct(m, '#') && punct(m + 1, '[') {
            let mut depth = 1u32;
            m += 2;
            while m < code.len() && depth > 0 {
                if punct(m, '[') {
                    depth += 1;
                } else if punct(m, ']') {
                    depth -= 1;
                }
                m += 1;
            }
        }
        // Find the item's extent: to the matching `}` of its first
        // brace, or to a `;` that arrives before any brace.
        let start = m;
        let mut brace_depth = 0u32;
        let mut entered = false;
        while m < code.len() {
            if punct(m, '{') {
                brace_depth += 1;
                entered = true;
            } else if punct(m, '}') {
                brace_depth = brace_depth.saturating_sub(1);
                if entered && brace_depth == 0 {
                    break;
                }
            } else if punct(m, ';') && !entered {
                break;
            }
            m += 1;
        }
        for slot in in_test.iter_mut().take((m + 1).min(code.len())).skip(start) {
            *slot = true;
        }
        k = m + 1;
    }
    in_test
}

fn diag(file: &SourceFile<'_>, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        path: file.path.to_string(),
        line,
        rule,
        message,
        waived: false,
        waive_reason: None,
    }
}

/// `wall-clock`: `Instant::now` / `SystemTime` outside the timing
/// allowlist. A clock read anywhere else can leak into results and
/// break profile-off bit-identity between runs.
fn rule_wall_clock(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if file.non_library
        || WALL_CLOCK_ALLOWLIST.iter().any(|p| file.path.ends_with(p) || file.path == *p)
    {
        return;
    }
    for k in 0..file.code.len() {
        if file.in_test[k] {
            continue;
        }
        let Some(name) = file.ident_at(k) else { continue };
        let hit = match name {
            "Instant" => {
                k + 3 < file.code.len()
                    && file.punct_at(k + 1, ':')
                    && file.punct_at(k + 2, ':')
                    && file.ident_at(k + 3) == Some("now")
            }
            "SystemTime" => true,
            _ => false,
        };
        if hit {
            out.push(diag(
                file,
                file.ct(k).line,
                "wall-clock",
                format!(
                    "wall-clock read (`{name}`) outside the timing allowlist — \
                     breaks profile-off bit-identity of results"
                ),
            ));
        }
    }
}

/// `unordered-iter`: iterating a `HashMap`/`HashSet` (std or Fx) in a
/// determinism-critical crate. Iteration order depends on hash seeds
/// and insertion history, so any order-sensitive fold over it leaks
/// nondeterminism into results; order-free folds must say so in a
/// waiver.
fn rule_unordered_iter(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if file.non_library || !DETERMINISM_CRITICAL_CRATES.contains(&file.crate_name) {
        return;
    }
    // Pass 1: names bound to hash-typed values anywhere in the file
    // (`name: [&|mut] path::HashType…` ascriptions/fields, and
    // `name = HashType::…` initialisations).
    let mut hash_names: Vec<&str> = Vec::new();
    for k in 0..file.code.len() {
        let Some(name) = file.ident_at(k) else { continue };
        if !HASH_TYPES.contains(&name) {
            continue;
        }
        // Walk back over the `::`-separated path the type ends.
        let mut j = k;
        while j >= 3
            && file.punct_at(j - 1, ':')
            && file.punct_at(j - 2, ':')
            && file.ident_at(j - 3).is_some()
        {
            j -= 3;
        }
        // Skip `&` / `mut` between the ascription colon and the type.
        while j >= 1 && (file.punct_at(j - 1, '&') || file.ident_at(j - 1) == Some("mut")) {
            j -= 1;
        }
        // `name: HashType` ascription or `name = HashType::new()` binding
        // (a doubled `:`/`=` is a path separator / comparison instead).
        let ascribed = j >= 2 && file.punct_at(j - 1, ':') && !file.punct_at(j - 2, ':');
        let assigned = j >= 2 && file.punct_at(j - 1, '=') && !file.punct_at(j - 2, '=');
        let bound = (ascribed || assigned).then(|| file.ident_at(j - 2)).flatten();
        if let Some(bound) = bound {
            if !hash_names.contains(&bound) {
                hash_names.push(bound);
            }
        }
    }
    if hash_names.is_empty() {
        return;
    }
    let mut flagged: Vec<(u32,)> = Vec::new();
    let mut push = |file: &SourceFile<'_>, line: u32, recv: &str, how: &str| {
        if flagged.contains(&(line,)) {
            return;
        }
        flagged.push((line,));
        out.push(diag(
            file,
            line,
            "unordered-iter",
            format!(
                "{how} of hash-ordered `{recv}` in determinism-critical crate \
                 `{crate_name}` — iteration order can leak into results",
                crate_name = file.crate_name
            ),
        ));
    };
    // Pass 2a: `recv.iter()`-style calls on a hash-bound name.
    for k in 2..file.code.len() {
        if file.in_test[k] {
            continue;
        }
        let Some(method) = file.ident_at(k) else { continue };
        if !ITER_METHODS.contains(&method)
            || !file.punct_at(k - 1, '.')
            || k + 1 >= file.code.len()
            || !file.punct_at(k + 1, '(')
        {
            continue;
        }
        if let Some(recv) = file.ident_at(k - 2) {
            if hash_names.contains(&recv) {
                push(file, file.ct(k).line, recv, &format!("`.{method}()`"));
            }
        }
    }
    // Pass 2b: `for … in <expr involving a hash-bound name> {`.
    for k in 0..file.code.len() {
        if file.in_test[k] || file.ident_at(k) != Some("for") {
            continue;
        }
        // Find the `in` of this loop (depth-0 within () and []).
        let mut depth = 0i32;
        let mut m = k + 1;
        let mut in_at = None;
        while m < file.code.len() && m - k < 64 {
            if file.punct_at(m, '(') || file.punct_at(m, '[') {
                depth += 1;
            } else if file.punct_at(m, ')') || file.punct_at(m, ']') {
                depth -= 1;
            } else if depth == 0 && file.ident_at(m) == Some("in") {
                in_at = Some(m);
                break;
            } else if depth == 0 && (file.punct_at(m, '{') || file.punct_at(m, ';')) {
                break; // `impl Trait for Type {` and friends have no `in`
            }
            m += 1;
        }
        let Some(in_at) = in_at else { continue };
        let mut m = in_at + 1;
        while m < file.code.len() && m - in_at < 32 && !file.punct_at(m, '{') {
            if let Some(name) = file.ident_at(m) {
                if hash_names.contains(&name) {
                    push(file, file.ct(m).line, name, "`for … in` iteration");
                    break;
                }
            }
            m += 1;
        }
    }
}

/// `seeded-rng`: ambient-entropy RNG construction. Every random draw in
/// this workspace must derive from an explicit seed, or recorded runs
/// can never be replayed.
fn rule_seeded_rng(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    for k in 0..file.code.len() {
        let Some(name) = file.ident_at(k) else { continue };
        if ENTROPY_SOURCES.contains(&name) {
            out.push(diag(
                file,
                file.ct(k).line,
                "seeded-rng",
                format!(
                    "ambient entropy source `{name}` — construct RNGs from an \
                     explicit seed so runs replay exactly"
                ),
            ));
        }
    }
}

/// `safety-comment`: every `unsafe` keyword (block, fn, impl, trait)
/// must be justified by a `// SAFETY:` comment on the same line or in
/// the contiguous comment/attribute block directly above.
fn rule_safety_comment(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    // Line facts, derived once.
    let mut safety_lines: Vec<u32> = Vec::new();
    let mut comment_lines: Vec<u32> = Vec::new();
    for t in &file.tokens {
        if t.is_comment() {
            // A multi-line block comment marks every line it spans.
            let span = t.text.lines().count().max(1) as u32;
            for l in t.line..t.line + span {
                comment_lines.push(l);
                if t.text.contains("SAFETY:") {
                    safety_lines.push(l);
                }
            }
        }
    }
    let mut code_lines: Vec<u32> = Vec::new();
    let mut attr_start_lines: Vec<u32> = Vec::new();
    for (pos, &i) in file.code.iter().enumerate() {
        let t = &file.tokens[i];
        if !code_lines.contains(&t.line) {
            code_lines.push(t.line);
            // The line's first code token being `#` marks an attribute line.
            if t.kind == TokenKind::Punct && t.text == "#" {
                attr_start_lines.push(t.line);
            }
        }
        let _ = pos;
    }
    for k in 0..file.code.len() {
        if file.ident_at(k) != Some("unsafe") {
            continue;
        }
        let line = file.ct(k).line;
        let mut justified = safety_lines.contains(&line);
        let mut m = line.saturating_sub(1);
        while !justified && m > 0 {
            if safety_lines.contains(&m) {
                justified = true;
            } else if comment_lines.contains(&m) || attr_start_lines.contains(&m) {
                m -= 1; // keep climbing the contiguous comment/attr block
            } else {
                break; // code or a blank line ends the search
            }
        }
        if !justified {
            let what = file.ident_at(k + 1).unwrap_or("block");
            out.push(diag(
                file,
                line,
                "safety-comment",
                format!(
                    "`unsafe {what}` without a `// SAFETY:` comment directly above — \
                     state why the contract holds"
                ),
            ));
        }
    }
}

/// `panic-surface`: in engine library code, a potential panic must name
/// its invariant in a string literal (`expect("…")`, `panic!("…")`),
/// be converted to checked handling, or carry a waiver. Bare
/// `.unwrap()` and `todo!`/`unimplemented!` never qualify.
fn rule_panic_surface(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if file.non_library || !PANIC_FREE_CRATES.contains(&file.crate_name) {
        return;
    }
    let nonempty_str = |k: usize| -> bool {
        let t = file.ct(k);
        t.kind == TokenKind::Str && t.text.trim_matches(['b', 'r', '#', '"']).trim() != ""
    };
    for k in 0..file.code.len() {
        if file.in_test[k] {
            continue;
        }
        let Some(name) = file.ident_at(k) else { continue };
        let line = file.ct(k).line;
        match name {
            "unwrap" if k >= 1 && file.punct_at(k - 1, '.') => {
                out.push(diag(
                    file,
                    line,
                    "panic-surface",
                    "`.unwrap()` in engine library code — use `expect(\"<invariant>\")`, \
                     checked handling, or a waiver"
                        .to_string(),
                ));
            }
            "expect"
                if k >= 1
                    && file.punct_at(k - 1, '.')
                    && k + 2 < file.code.len()
                    && file.punct_at(k + 1, '(')
                    && !nonempty_str(k + 2) =>
            {
                out.push(diag(
                    file,
                    line,
                    "panic-surface",
                    "`.expect(…)` without a literal invariant message in engine \
                     library code"
                        .to_string(),
                ));
            }
            "panic" | "unreachable" if k + 1 < file.code.len() && file.punct_at(k + 1, '!') => {
                let named =
                    k + 3 < file.code.len() && file.punct_at(k + 2, '(') && nonempty_str(k + 3);
                if !named {
                    out.push(diag(
                        file,
                        line,
                        "panic-surface",
                        format!(
                            "`{name}!` without a literal invariant message in engine \
                             library code"
                        ),
                    ));
                }
            }
            "todo" | "unimplemented" if k + 1 < file.code.len() && file.punct_at(k + 1, '!') => {
                out.push(diag(
                    file,
                    line,
                    "panic-surface",
                    format!("`{name}!` must not ship in engine library code"),
                ));
            }
            _ => {}
        }
    }
}

/// Audit one file's source. `path` must be workspace-relative with `/`
/// separators — it drives the crate/layout scoping above.
pub fn audit_source(path: &str, src: &str) -> FileAudit {
    let file = SourceFile::new(path, src);
    let mut diags: Vec<Diagnostic> = Vec::new();
    rule_wall_clock(&file, &mut diags);
    rule_unordered_iter(&file, &mut diags);
    rule_seeded_rng(&file, &mut diags);
    rule_safety_comment(&file, &mut diags);
    rule_panic_surface(&file, &mut diags);

    let waivers = waiver::collect(&file.tokens);
    let mut used = vec![false; waivers.len()];
    apply_waivers(&mut diags, &waivers, &mut used, false);

    // Waiver hygiene: malformed / anonymous / unknown-rule / stale
    // waivers are diagnostics themselves.
    let mut hygiene: Vec<Diagnostic> = Vec::new();
    let mut removable: Vec<(usize, usize)> = Vec::new();
    for (w, &w_used) in waivers.iter().zip(&*used) {
        let (message, removable_here) = match &w.syntax {
            WaiverSyntax::Malformed => (
                "malformed audit directive; expected `// audit: allow(<rule>) <reason>`"
                    .to_string(),
                true,
            ),
            WaiverSyntax::MissingReason { rule } => (
                format!(
                    "waiver for `{rule}` has no reason — an unexplained waiver never suppresses"
                ),
                false,
            ),
            WaiverSyntax::Valid { rule, .. } if !RULE_NAMES.contains(&rule.as_str()) => {
                (format!("waiver names unknown rule `{rule}`"), true)
            }
            WaiverSyntax::Valid { rule, .. } if !w_used && rule != "waiver-hygiene" => (
                format!(
                    "stale waiver: no `{rule}` diagnostic on line {} — remove it \
                     (`check --fix-waivers` does)",
                    w.target_line
                ),
                true,
            ),
            WaiverSyntax::Valid { .. } => continue,
        };
        if removable_here {
            removable.push((w.start, w.end));
        }
        hygiene.push(Diagnostic {
            path: path.to_string(),
            line: w.line,
            rule: "waiver-hygiene",
            message,
            waived: false,
            waive_reason: None,
        });
    }
    // Hygiene findings are waivable too (e.g. a README-style fixture
    // kept on purpose): a `waiver-hygiene` waiver binds by target line
    // or by sitting directly above the offending waiver comment.
    apply_waivers(&mut hygiene, &waivers, &mut used, true);
    // Keep spans of hygiene waivers that went unused: they are stale.
    for (w, w_used) in waivers.iter().zip(used) {
        if let WaiverSyntax::Valid { rule, .. } = &w.syntax {
            if rule == "waiver-hygiene" && !w_used {
                removable.push((w.start, w.end));
                hygiene.push(Diagnostic {
                    path: path.to_string(),
                    line: w.line,
                    rule: "waiver-hygiene",
                    message: format!(
                        "stale waiver: no `waiver-hygiene` diagnostic on line {}",
                        w.target_line
                    ),
                    waived: false,
                    waive_reason: None,
                });
            }
        }
    }
    // Drop removable spans for waivers that ended up waived-in-place
    // (their hygiene diagnostic was suppressed): they are sanctioned.
    let waived_hygiene_lines: Vec<u32> =
        hygiene.iter().filter(|d| d.waived).map(|d| d.line).collect();
    removable.retain(|&(start, _)| {
        let line = waivers.iter().find(|w| w.start == start).map(|w| w.line);
        line.is_none_or(|l| !waived_hygiene_lines.contains(&l))
    });
    diags.extend(hygiene);
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileAudit { diagnostics: diags, removable_waivers: removable }
}

/// Mark diagnostics waived where a valid waiver of the same rule
/// targets their line; `hygiene_mode` additionally lets a
/// `waiver-hygiene` waiver bind to the line directly below itself.
fn apply_waivers(
    diags: &mut [Diagnostic],
    waivers: &[Waiver],
    used: &mut [bool],
    hygiene_mode: bool,
) {
    for d in diags.iter_mut() {
        if d.waived {
            continue;
        }
        for (i, w) in waivers.iter().enumerate() {
            let WaiverSyntax::Valid { rule, reason } = &w.syntax else { continue };
            if rule != d.rule {
                continue;
            }
            let binds = w.target_line == d.line || (hygiene_mode && w.line + 1 == d.line);
            if binds {
                d.waived = true;
                d.waive_reason = Some(reason.clone());
                used[i] = true;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_and_layout_classification() {
        assert_eq!(crate_of("crates/grid-engine/src/swarm.rs"), "grid-engine");
        assert_eq!(crate_of("src/lib.rs"), "grid-gathering");
        assert_eq!(crate_of("tests/integration.rs"), "grid-gathering");
        assert!(is_non_library("crates/grid-engine/tests/engine_props.rs"));
        assert!(is_non_library("examples/quickstart.rs"));
        assert!(is_non_library("crates/gather-campaign/src/bin/campaign.rs"));
        assert!(!is_non_library("crates/grid-engine/src/engine.rs"));
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "\
fn library() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn helper() { y.unwrap(); }
}
";
        let audit = audit_source("crates/grid-engine/src/x.rs", src);
        let lines: Vec<u32> =
            audit.active().filter(|d| d.rule == "panic-surface").map(|d| d.line).collect();
        assert_eq!(lines, [1], "only the library unwrap fires");
    }
}
