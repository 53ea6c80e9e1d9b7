//! The six lint rules, run over [`super::scan`]ned files:
//!
//! - **unsafe-safety** — every line carrying an `unsafe` token needs a
//!   `SAFETY:` justification (same line or the comment block above).
//! - **ordering-policy** — every non-test `Ordering::` site in
//!   `crates/node` must carry an `// ordering: <key>` marker naming an
//!   entry in `ordering_policy.toml` that permits the variants used.
//! - **unwrap-ban** — no `unwrap()`/`expect(` in non-test code of the
//!   runtime, engine, persistence, peer-store, contract, network,
//!   consensus, telemetry, ledger, lens or storage layers, except
//!   lock-poisoning chains and sites explicitly marked
//!   `// lint: allow(unwrap)`.
//! - **wire-exhaustive** — every `wire::Message` variant appears in
//!   both codec directions, and every `RejectKind`/`CommitError`
//!   variant in the tag maps and the gateway's rejection mapping.
//! - **dead-pub** — every `pub` item under `crates/*/src` is named
//!   somewhere other than its own declaration and its own file's
//!   `#[cfg(test)]` module, or sits on the explicit allowlist. A method
//!   of an inherent `impl Type` is named only by `Type::name`,
//!   `Self::name` or a call `.name(` / `.name::<`. A `pub use` there
//!   must export a name something names outside its own module.
//! - **long-fn** — no non-test `fn` under `crates/*/src` spans more than
//!   [`LONG_FN_MAX`] lines, unless it sits on the explicit allowlist.

use super::policy::Policy;
use super::scan::Line;
use std::collections::{BTreeMap, BTreeSet};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Rule identifier.
    pub rule: &'static str,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Whether `code` contains `word` with identifier boundaries on both
/// sides.
fn has_token(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Collects the comment text attached to line `i`: its own trailing
/// comment plus the contiguous comment-only block directly above.
fn attached_comments(lines: &[Line], i: usize) -> String {
    let mut text = lines[i].comment.clone();
    let mut j = i;
    while j > 0 && lines[j - 1].is_comment_only() {
        j -= 1;
        text.push('\n');
        text.push_str(&lines[j].comment);
    }
    text
}

// ---------------------------------------------------------------------
// unsafe-safety
// ---------------------------------------------------------------------

/// Flags `unsafe` tokens without a `SAFETY:` justification.
pub fn unsafe_safety(file: &str, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        // `#![forbid(unsafe_code)]` and friends mention the lint name,
        // not the keyword; `has_token` already rejects `unsafe_code`,
        // but `unsafe fn` declarations and `unsafe impl` still land
        // here on purpose — they need justification too.
        if !attached_comments(lines, i).contains("SAFETY:") {
            findings.push(Finding {
                file: file.to_string(),
                line: line.number,
                rule: "unsafe-safety",
                message: "`unsafe` without a `// SAFETY:` justification on the line or in \
                          the comment block above"
                    .to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// ordering-policy
// ---------------------------------------------------------------------

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn orderings_on_line(code: &str) -> Vec<&'static str> {
    ORDERING_VARIANTS
        .iter()
        .filter(|v| code.contains(&format!("Ordering::{v}")))
        .copied()
        .collect()
}

/// Flags `Ordering::` sites without a valid `// ordering: <key>`
/// marker, or whose variants the named policy entry does not permit.
pub fn ordering_policy(file: &str, lines: &[Line], policy: &Policy) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let used = orderings_on_line(&line.code);
        if used.is_empty() {
            continue;
        }
        let comments = attached_comments(lines, i);
        let Some(key) = comments
            .lines()
            .find_map(|c| c.trim().strip_prefix("ordering:"))
            .map(|k| k.trim().to_string())
        else {
            findings.push(Finding {
                file: file.to_string(),
                line: line.number,
                rule: "ordering-policy",
                message: format!(
                    "`Ordering::{}` without an `// ordering: <key>` marker; register the \
                     site in crates/check/ordering_policy.toml",
                    used[0]
                ),
            });
            continue;
        };
        let Some(entry) = policy.get(&key) else {
            findings.push(Finding {
                file: file.to_string(),
                line: line.number,
                rule: "ordering-policy",
                message: format!("marker names unknown policy key `{key}`"),
            });
            continue;
        };
        for v in used {
            if !entry.orderings.iter().any(|o| o == v) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: line.number,
                    rule: "ordering-policy",
                    message: format!(
                        "`Ordering::{v}` is not permitted by policy key `{key}` \
                         (allows: {})",
                        entry.orderings.join(", ")
                    ),
                });
            }
        }
    }
    findings
}

/// Returns the policy keys never referenced by any scanned file — a
/// stale table is as misleading as a missing one.
pub fn unused_policy_keys(policy: &Policy, used_keys: &[String]) -> Vec<Finding> {
    policy
        .keys()
        .filter(|k| !used_keys.iter().any(|u| u == *k))
        .map(|k| Finding {
            file: "crates/check/ordering_policy.toml".to_string(),
            line: 0,
            rule: "ordering-policy",
            message: format!("policy key `{k}` is not referenced by any source site"),
        })
        .collect()
}

/// Collects the marker keys a file references (feeds
/// [`unused_policy_keys`]).
pub fn referenced_keys(lines: &[Line]) -> Vec<String> {
    lines
        .iter()
        .filter_map(|l| l.comment.trim().strip_prefix("ordering:"))
        .map(|k| k.trim().to_string())
        .collect()
}

// ---------------------------------------------------------------------
// unwrap-ban
// ---------------------------------------------------------------------

/// Methods whose failure is lock poisoning — a crashed thread already
/// holds the invariant broken, so propagating the panic is the policy.
const POISON_SOURCES: &[&str] = &["lock", "wait", "wait_timeout", "read", "write"];

/// The method call immediately preceding position `at` in `code`
/// (possibly continued from the previous code line when the call chain
/// is line-broken).
fn receiver_method(code: &str, at: usize, prev_code: &str) -> Option<String> {
    let mut before = code[..at].trim_end();
    if before.is_empty() {
        before = prev_code.trim_end();
    }
    let bytes: Vec<char> = before.chars().collect();
    if *bytes.last()? != ')' {
        return None;
    }
    let mut depth = 0i64;
    let mut open = None;
    for (i, c) in bytes.iter().enumerate().rev() {
        match c {
            ')' => depth += 1,
            '(' => {
                depth -= 1;
                if depth == 0 {
                    open = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let open = open?;
    let ident: String = bytes[..open]
        .iter()
        .rev()
        .take_while(|c| c.is_alphanumeric() || **c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// Flags `.unwrap()` / `.expect(` in non-test code, excepting
/// lock-poisoning chains and explicitly marked sites.
pub fn unwrap_ban(file: &str, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut sites = Vec::new();
        let mut from = 0;
        while let Some(p) = line.code[from..].find(".unwrap()") {
            sites.push((from + p, ".unwrap()"));
            from += p + 1;
        }
        from = 0;
        while let Some(p) = line.code[from..].find(".expect(") {
            sites.push((from + p, ".expect("));
            from += p + 1;
        }
        if sites.is_empty() {
            continue;
        }
        let allowed_marker = attached_comments(lines, i).contains("lint: allow(unwrap)");
        let prev_code = if i > 0 {
            let mut j = i - 1;
            while j > 0 && lines[j].is_comment_only() {
                j -= 1;
            }
            lines[j].code.clone()
        } else {
            String::new()
        };
        for (at, what) in sites {
            if allowed_marker {
                continue;
            }
            let recv = receiver_method(&line.code, at, &prev_code);
            if recv.as_deref().is_some_and(|m| POISON_SOURCES.contains(&m)) {
                continue;
            }
            findings.push(Finding {
                file: file.to_string(),
                line: line.number,
                rule: "unwrap-ban",
                message: format!(
                    "`{what}..` in non-test code: return an error instead, or mark the \
                     site `// lint: allow(unwrap) — <reason>`"
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// wire-exhaustive
// ---------------------------------------------------------------------

/// Extracts variant names of `enum <name>` from scanned lines.
pub fn enum_variants(lines: &[Line], name: &str) -> Option<Vec<String>> {
    let decl = format!("enum {name}");
    let start = lines
        .iter()
        .position(|l| has_token(&l.code, "enum") && l.code.contains(&decl) && !l.in_test)?;
    let mut variants = Vec::new();
    let mut depth = 0i64;
    let mut opened = false;
    for line in &lines[start..] {
        let before = depth;
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if !opened {
            continue;
        }
        if before == 1 {
            // Directly inside the enum body: a variant (field lines of
            // struct variants sit at depth 2 and are skipped).
            collect_variant(&line.code, &mut variants);
        } else if before == 0 {
            // The declaration line; a variant may be inlined after the
            // opening brace.
            if let Some((_, after)) = line.code.split_once('{') {
                collect_variant(after, &mut variants);
            }
        }
        if depth <= 0 {
            break;
        }
    }
    Some(variants)
}

fn collect_variant(code: &str, variants: &mut Vec<String>) {
    if code.trim_start().starts_with('#') {
        return;
    }
    // Split on commas outside any nesting, so both one-variant-per-line
    // and single-line `enum K { A, B }` bodies work, while a struct
    // variant's fields stay inside their own braces.
    let mut depth = 0i64;
    let mut segment = String::new();
    let mut segments = Vec::new();
    for c in code.chars() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => depth -= 1,
            ',' if depth <= 0 => {
                segments.push(std::mem::take(&mut segment));
                continue;
            }
            _ => {}
        }
        segment.push(c);
    }
    segments.push(segment);
    for seg in segments {
        let ident: String = seg
            .trim()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            variants.push(ident);
        }
    }
}

/// The index of the first `impl <name>` line (to anchor [`fn_span`]
/// searches to the right type's methods).
pub fn impl_line(lines: &[Line], name: &str) -> Option<usize> {
    let decl = format!("impl {name}");
    lines.iter().position(|l| {
        let t = l.code.trim_start();
        !l.in_test && (t.starts_with(&decl) || t.contains(&format!("impl {name} ")))
    })
}

/// The scanned-line span of `fn <name>`'s body (inclusive indices),
/// searching from line index `from`.
pub fn fn_span(lines: &[Line], name: &str, from: usize) -> Option<(usize, usize)> {
    let decl = format!("fn {name}");
    let start = from
        + lines[from..].iter().position(|l| {
            if l.in_test {
                return false;
            }
            match l.code.find(&decl) {
                Some(p) => {
                    let after = &l.code[p + decl.len()..];
                    after.starts_with('(') || after.starts_with('<')
                }
                None => false,
            }
        })?;
    let mut depth = 0i64;
    let mut opened = false;
    for (off, line) in lines[start..].iter().enumerate() {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return Some((start, start + off));
        }
    }
    None
}

/// Asserts every `enum_name::variant` token appears inside the span.
pub fn span_covers(
    file: &str,
    lines: &[Line],
    span: (usize, usize),
    enum_name: &str,
    variants: &[String],
    context: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for v in variants {
        let token = format!("{enum_name}::{v}");
        let found = lines[span.0..=span.1]
            .iter()
            .any(|l| l.code.contains(&token));
        if !found {
            findings.push(Finding {
                file: file.to_string(),
                line: lines[span.0].number,
                rule: "wire-exhaustive",
                message: format!("{context} does not handle `{token}`"),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// dead-pub
// ---------------------------------------------------------------------

/// The identifier `word` starts with (empty if it starts with none).
fn leading_ident(word: &str) -> &str {
    let end = word.find(|c: char| !c.is_alphanumeric() && c != '_');
    &word[..end.unwrap_or(word.len())]
}

/// The name a line declares as a fully `pub` item — function, type,
/// trait, constant or static; not `pub(crate)`, a re-export, a module
/// or a field.
fn pub_item_name(code: &str) -> Option<&str> {
    let mut words = code.trim_start().strip_prefix("pub ")?.split_whitespace();
    loop {
        match words.next()? {
            "async" | "unsafe" | "extern" => {}
            abi if abi.starts_with('"') => {}
            "fn" | "struct" | "enum" | "trait" | "type" | "union" => break,
            "const" | "static" => match words.clone().next()? {
                "fn" | "async" | "unsafe" | "extern" | "mut" => {}
                _ => break,
            },
            _ => return None,
        }
    }
    Some(leading_ident(words.next()?)).filter(|name| !name.is_empty())
}

/// The code lines of a scanned file: lines outside `#[cfg(test)]` whose
/// code part, comments stripped, is not blank. The one way the workspace
/// counts its size.
pub fn code_lines(lines: &[Line]) -> usize {
    lines
        .iter()
        .filter(|l| !l.in_test && !l.code.trim().is_empty())
        .count()
}

/// Whether `file` is production source of a workspace crate.
fn is_crate_source(file: &str) -> bool {
    let mut parts = file.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

/// The type a line opens an inherent `impl<..> Type<..>` block for
/// (`None` for a trait impl or any other line).
fn impl_header(code: &str) -> Option<String> {
    let mut depth = 0;
    let outside_generics = |c: &char| {
        depth += match c {
            '<' => 1,
            '>' => -1,
            _ => 0,
        };
        depth == 0 && *c != '>'
    };
    let flat: String = code.chars().filter(outside_generics).collect();
    let mut words = flat.split_whitespace();
    if words.next() != Some("impl") || has_token(&flat, "for") {
        return None;
    }
    Some(leading_ident(words.next()?.rsplit("::").next()?).to_string())
}

/// Per line of a file: the type whose inherent `impl` block the line
/// sits directly in (`None` outside one, or nested deeper in it).
fn impl_owners(lines: &[Line]) -> Vec<Option<String>> {
    let mut owners = Vec::with_capacity(lines.len());
    let (mut depth, mut header) = (0, None);
    let mut blocks: Vec<(usize, String)> = Vec::new();
    for line in lines {
        if header.is_none() {
            header = impl_header(&line.code);
        }
        let owner = blocks.last().filter(|(at, _)| *at == depth);
        owners.push(owner.map(|(_, ty)| ty.clone()));
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    blocks.extend(header.take().map(|ty| (depth, ty)));
                }
                '}' => {
                    if blocks.last().is_some_and(|(at, _)| *at == depth) {
                        blocks.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
    }
    owners
}

/// How `code` names the identifier at `start..end`: the path segment
/// before it (`Type` in `Type::name`), and whether it is a method call
/// (`.name(` or `.name::<`).
fn mention_of(code: &str, start: usize, end: usize) -> (Option<&str>, bool) {
    let (before, after) = (&code[..start], &code[end..]);
    let qualifier = before.strip_suffix("::").map(|head| {
        let from = head.trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
        &head[from.len()..]
    });
    let dotted = before.ends_with('.') && !before.ends_with("..");
    let call = dotted && (after.starts_with('(') || after.starts_with("::<"));
    (qualifier, call)
}

/// The names one line of a `pub use` statement exports: each leaf of
/// the use tree, or its `as` alias (`self` and globs export no name).
fn reexported_names(code: &str) -> impl Iterator<Item = &str> {
    let tree = code.trim_start().strip_prefix("pub use ").unwrap_or(code);
    tree.split([',', '{', '}', ';']).filter_map(|leaf| {
        let name = match leaf.split_once(" as ") {
            Some((_, alias)) => alias.trim(),
            None => leaf.trim().rsplit("::").next()?,
        };
        let is_ident = name.chars().all(|c| c.is_alphanumeric() || c == '_');
        Some(name).filter(|n| is_ident && !n.is_empty() && *n != "self")
    })
}

/// Every `pub` item declared in non-test code under `crates/*/src`
/// that no line of `files` (repo-relative path, scanned lines) names,
/// other than the declaration itself and the declaring file's own
/// `#[cfg(test)]` code: `(file, line number, name)`, in file order.
/// A method of an inherent `impl Type` is named by `Type::name`,
/// `Self::name` or a method call `.name(` / `.name::<`; any other item
/// by its bare identifier. Matching is by name, not by resolved path,
/// so it errs towards "used": a method called `.name(` on any type, or
/// another item sharing its identifier, is never reported.
///
/// A name a `pub use` there re-exports is reported at its `pub use`
/// line when nothing names it but that line, the files declaring a
/// `pub` item of that name (its own module) and the re-exporting file's
/// own `#[cfg(test)]` code.
pub fn dead_pub(files: &[(String, Vec<Line>)]) -> Vec<(String, usize, String)> {
    let mut items = Vec::new();
    let mut reexports = Vec::new();
    let owners: Vec<_> = files.iter().map(|(_, lines)| impl_owners(lines)).collect();
    for (f, (file, lines)) in files.iter().enumerate() {
        if !is_crate_source(file) {
            continue;
        }
        let mut in_use = false;
        for (l, line) in lines.iter().enumerate().filter(|(_, line)| !line.in_test) {
            let is_fn = fn_name(&line.code).is_some();
            let method_of = owners[f][l].as_deref().filter(|_| is_fn);
            items.extend(pub_item_name(&line.code).map(|name| (f, l, name, method_of)));
            in_use |= line.code.trim_start().starts_with("pub use ");
            if in_use {
                reexports.extend(reexported_names(&line.code).map(|name| (f, l, name)));
                in_use = !line.code.contains(';');
            }
        }
    }
    // Per declared or re-exported name, every place it appears: `(file,
    // line, in test code, qualifier, method call)`.
    type Mention<'a> = (usize, usize, bool, Option<&'a str>, bool);
    let names = items.iter().map(|(_, _, name, _)| *name);
    let names = names.chain(reexports.iter().map(|(_, _, name)| *name));
    let mut mentions: BTreeMap<&str, Vec<Mention>> = names.map(|name| (name, Vec::new())).collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    for (f, (_, lines)) in files.iter().enumerate() {
        for (l, line) in lines.iter().enumerate() {
            let code = line.code.as_str();
            for ident in code.split(|c| !is_ident(c)) {
                if let Some(found) = mentions.get_mut(ident) {
                    let start = ident.as_ptr() as usize - code.as_ptr() as usize;
                    let (qualifier, call) = mention_of(code, start, start + ident.len());
                    found.push((f, l, line.in_test, qualifier, call));
                }
            }
        }
    }
    let declared: BTreeSet<(usize, &str)> =
        items.iter().map(|(f, _, name, _)| (*f, *name)).collect();
    items.retain(|(f, l, name, method_of)| {
        let names = |(_, _, _, qualifier, call): &&Mention| match method_of {
            Some(ty) => *call || qualifier.is_some_and(|q| q == *ty || q == "Self"),
            None => true,
        };
        // Outside the declaring file, or on another of its non-test lines.
        let elsewhere = |(mf, ml, in_test, _, _): &Mention| mf != f || (!in_test && ml != l);
        !mentions[name].iter().filter(names).any(elsewhere)
    });
    reexports.retain(|(f, l, name)| {
        let elsewhere = |(mf, ml, in_test, _, _): &Mention| {
            !(mf == f && (ml == l || *in_test)) && !declared.contains(&(*mf, *name))
        };
        !mentions[name].iter().any(elsewhere)
    });
    let items = items.into_iter().map(|(f, l, name, _)| (f, l, name));
    let mut dead: Vec<_> = items.chain(reexports).collect();
    dead.sort();
    let report = |(f, l, name): (usize, usize, &str)| {
        let (file, lines) = &files[f];
        (file.clone(), lines[l].number, name.to_string())
    };
    dead.into_iter().map(report).collect()
}

/// Parses a rule's allowlist: one `<file> <name>` pair per line, `#`
/// comments and blank lines ignored. Returns `(line number, file, name)`
/// per entry.
pub fn parse_allowlist(src: &str) -> Result<Vec<(usize, String, String)>, String> {
    let mut entries = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            [file, name] => entries.push((i + 1, file.to_string(), name.to_string())),
            _ => return Err(format!("line {}: expected `<file> <name>`", i + 1)),
        }
    }
    Ok(entries)
}

/// Applies the allowlist to [`dead_pub`]'s report: a dead item not on
/// the list is a finding, and so is a listed item that is no longer
/// dead (or gone) — the list can only shrink.
pub fn dead_pub_findings(
    dead: &[(String, usize, String)],
    allowlist_file: &str,
    allowlist: &[(usize, String, String)],
) -> Vec<Finding> {
    let reported = dead.iter().map(|(file, line, name)| {
        let message = format!(
            "`pub` item `{name}` is named nowhere outside this file's tests \
             (a re-export: nowhere outside its own module): delete it, narrow it, \
             or list it in {allowlist_file}"
        );
        (file.clone(), *line, name.clone(), message)
    });
    let reported: Vec<_> = reported.collect();
    apply_allowlist(
        "dead-pub",
        &reported,
        allowlist_file,
        allowlist,
        "a dead `pub` item",
    )
}

/// One rule's report `(file, line, name, message)` against its
/// allowlist: every unlisted item is a finding, and so is every entry
/// that names no reported item (it is `stale_as` no more, or gone).
fn apply_allowlist(
    rule: &'static str,
    reported: &[(String, usize, String, String)],
    allowlist_file: &str,
    allowlist: &[(usize, String, String)],
    stale_as: &str,
) -> Vec<Finding> {
    let listed = |file: &str, name: &str| allowlist.iter().any(|(_, f, n)| f == file && n == name);
    let reports =
        |file: &str, name: &str| reported.iter().any(|(f, _, n, _)| f == file && n == name);
    let mut findings = Vec::new();
    for (file, line, _, message) in reported.iter().filter(|(f, _, n, _)| !listed(f, n)) {
        findings.push(Finding {
            file: file.clone(),
            line: *line,
            rule,
            message: message.clone(),
        });
    }
    for (line, file, name) in allowlist.iter().filter(|(_, f, n)| !reports(f, n)) {
        findings.push(Finding {
            file: allowlist_file.to_string(),
            line: *line,
            rule,
            message: format!("`{file} {name}` is no longer {stale_as}: drop the entry"),
        });
    }
    findings
}

// ---------------------------------------------------------------------
// long-fn
// ---------------------------------------------------------------------

/// The most lines a non-test `fn` under `crates/*/src` may span, from its
/// `fn` line to its closing brace (doc comments and attributes aside).
pub const LONG_FN_MAX: usize = 150;

/// The name a line declares a function by (`… fn name…`), if it does.
fn fn_name(code: &str) -> Option<&str> {
    let mut words = code.split_whitespace();
    words.find(|w| *w == "fn")?;
    Some(leading_ident(words.next()?)).filter(|name| !name.is_empty())
}

/// The index of the line that closes the body of the `fn` declared on
/// line `start`; `None` for a declaration without a body (`fn f();`).
fn body_end(lines: &[Line], start: usize) -> Option<usize> {
    let (mut braces, mut nesting, mut opened) = (0i64, 0i64, false);
    for (i, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '(' | '[' => nesting += 1,
                ')' | ']' => nesting -= 1,
                ';' if !opened && nesting == 0 => return None,
                '{' => {
                    braces += 1;
                    opened = true;
                }
                '}' => braces -= 1,
                _ => {}
            }
        }
        if opened && braces <= 0 {
            return Some(i);
        }
    }
    None
}

/// Every `fn` in the non-test code of `file` — production source under
/// `crates/*/src` only — that spans more than [`LONG_FN_MAX`] lines:
/// `(file, line number, name, length)`, in file order.
pub fn long_fns(file: &str, lines: &[Line]) -> Vec<(String, usize, String, usize)> {
    if !is_crate_source(file) {
        return Vec::new();
    }
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
        let Some(name) = fn_name(&line.code) else {
            continue;
        };
        let Some(end) = body_end(lines, i) else {
            continue;
        };
        let length = lines[end].number - line.number + 1;
        if length > LONG_FN_MAX {
            found.push((file.to_string(), line.number, name.to_string(), length));
        }
    }
    found
}

/// Applies the allowlist to what [`long_fns`] found across the
/// workspace: a long function not on the list is a finding, and so is a
/// listed one that is no longer long (or gone) — the list can only
/// shrink.
pub fn long_fn_findings(
    long: &[(String, usize, String, usize)],
    allowlist_file: &str,
    allowlist: &[(usize, String, String)],
) -> Vec<Finding> {
    let reported = long.iter().map(|(file, line, name, length)| {
        let message = format!(
            "`fn {name}` spans {length} lines, over {LONG_FN_MAX}: split it into named \
             steps, or list it in {allowlist_file}"
        );
        (file.clone(), *line, name.clone(), message)
    });
    let reported: Vec<_> = reported.collect();
    let stale_as = format!("over {LONG_FN_MAX} lines");
    apply_allowlist("long-fn", &reported, allowlist_file, allowlist, &stale_as)
}

#[cfg(test)]
mod tests {
    use super::super::scan::scan;
    use super::*;

    #[test]
    fn pub_items_are_recognised() {
        assert_eq!(
            pub_item_name("    pub fn join_share(&mut self) {"),
            Some("join_share")
        );
        assert_eq!(pub_item_name("pub const fn zero() -> Self {"), Some("zero"));
        assert_eq!(
            pub_item_name("pub const MAX_CHUNKS: usize = 256;"),
            Some("MAX_CHUNKS")
        );
        assert_eq!(pub_item_name("pub struct Baseline<'a> {"), Some("Baseline"));
        assert_eq!(
            pub_item_name("pub unsafe extern \"\" fn raw() {"),
            Some("raw")
        );
        assert_eq!(pub_item_name("pub(crate) fn hidden() {"), None);
        assert_eq!(pub_item_name("pub use peer::PeerNode;"), None);
        assert_eq!(pub_item_name("pub mod lint;"), None);
        assert_eq!(pub_item_name("    pub name: String,"), None);
    }

    #[test]
    fn token_boundaries_hold() {
        assert!(has_token("unsafe { }", "unsafe"));
        assert!(!has_token("#![forbid(unsafe_code)]", "unsafe"));
        assert!(!has_token("not_unsafe()", "unsafe"));
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let ok = scan("// SAFETY: pointer is valid for 'a\nunsafe { deref(p) }\n");
        assert!(unsafe_safety("f.rs", &ok).is_empty());
        let bad = scan("unsafe { deref(p) }\n");
        assert_eq!(unsafe_safety("f.rs", &bad).len(), 1);
    }

    #[test]
    fn poison_chains_are_allowed() {
        let lines = scan("let g = self.state.lock().expect(\"lock\");\n");
        assert!(unwrap_ban("f.rs", &lines).is_empty());
        let lines = scan("let v = map.get(k).unwrap();\n");
        assert_eq!(unwrap_ban("f.rs", &lines).len(), 1);
    }

    #[test]
    fn allow_marker_suppresses() {
        let lines = scan("// lint: allow(unwrap) — startup only\nlet v = x.parse().unwrap();\n");
        assert!(unwrap_ban("f.rs", &lines).is_empty());
    }

    #[test]
    fn line_broken_expect_uses_previous_line() {
        let lines = scan("let g = self.state.lock()\n    .expect(\"lock\");\n");
        assert!(unwrap_ban("f.rs", &lines).is_empty());
    }

    #[test]
    fn variants_are_extracted() {
        let src = "pub enum Message {\n    /// doc\n    Submit { peer: String },\n    Poll(u64),\n    Shutdown,\n}\n";
        let v = enum_variants(&scan(src), "Message").expect("enum found");
        assert_eq!(v, vec!["Submit", "Poll", "Shutdown"]);
    }

    #[test]
    fn fn_spans_and_coverage() {
        let src = "fn tag(self) -> u8 {\n    match self {\n        Kind::A => 0,\n    }\n}\n";
        let lines = scan(src);
        let span = fn_span(&lines, "tag", 0).expect("span");
        let vars = vec!["A".to_string(), "B".to_string()];
        let fs = span_covers("f.rs", &lines, span, "Kind", &vars, "tag()");
        assert_eq!(fs.len(), 1, "B is unhandled");
        assert!(fs[0].message.contains("Kind::B"));
    }
}
