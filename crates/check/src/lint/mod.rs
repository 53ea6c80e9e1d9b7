//! The workspace lint engine: scans the repo's Rust sources with the
//! character-level stripper in [`scan`], then applies the rules in
//! [`rules`] with per-rule scopes. [`run_workspace`] is the whole
//! pipeline; the `lint` binary is a thin CLI over it.

pub mod policy;
pub mod rules;
pub mod scan;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use rules::Finding;

/// What one run over the workspace found.
pub struct Report {
    /// Rule violations (empty = clean).
    pub findings: Vec<Finding>,
    /// Length of the dead-pub allowlist: `pub` items known to have no
    /// caller and kept anyway, a number that should only fall.
    pub dead_pub_allowed: usize,
    /// Length of the long-fn allowlist: functions known to run over
    /// [`rules::LONG_FN_MAX`] lines, another number that should only fall.
    pub long_fn_allowed: usize,
    /// Non-test code lines ([`rules::code_lines`]) under each
    /// `crates/<name>/src`, by crate name. A report, not a gate.
    pub code_lines: BTreeMap<String, usize>,
}

/// Where the dead-pub rule looks for mentions of a `pub` item.
const DEAD_PUB_SCOPE: &[&str] = &["crates/", "src/", "tests/", "examples/", "benchmark/src/"];

/// The dead-pub rule's allowlist, relative to the workspace root.
const DEAD_PUB_ALLOWLIST: &str = "crates/check/dead_pub_allowlist.txt";

/// The long-fn rule's allowlist, relative to the workspace root.
const LONG_FN_ALLOWLIST: &str = "crates/check/long_fn_allowlist.txt";

/// Reads and parses the allowlist at `rel` under `root`.
fn read_allowlist(root: &Path, rel: &str) -> Result<Vec<(usize, String, String)>, String> {
    let src =
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
    rules::parse_allowlist(&src).map_err(|e| format!("{rel}: {e}"))
}

/// Directories never scanned (third-party or generated).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github"];

/// Files in scope for the unwrap ban: the layers where a stray panic
/// takes down a node or corrupts a recovery path, the contract code
/// every validator runs over bytes that arrive in transactions, the
/// network crate, whose latency model times every wave's fan-out, the
/// consensus round every wave seals its block with, the telemetry every
/// wave records into, the crates that decode what arrives or was
/// stored — the codec, WAL and snapshots (storage), blocks (ledger) and
/// lens specs (bx) — the tables every one of them reads and
/// writes (relational), and the hashes, Merkle trees and
/// signatures all of it rests on (crypto).
fn unwrap_scope(rel: &str) -> bool {
    (rel.starts_with("crates/node/src/") && !rel.starts_with("crates/node/src/bin/"))
        || rel.starts_with("crates/engine/src/")
        || rel.starts_with("crates/contracts/src/")
        || rel.starts_with("crates/network/src/")
        || rel.starts_with("crates/consensus/src/")
        || rel.starts_with("crates/telemetry/src/")
        || rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/ledger/src/")
        || rel.starts_with("crates/bx/src/")
        || rel.starts_with("crates/storage/src/")
        || rel.starts_with("crates/relational/src/")
        || rel.starts_with("crates/crypto/src/")
}

/// Recursively collects `.rs` files under `root`, skipping
/// [`SKIP_DIRS`].
fn rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every rule over the workspace at `root`. `Err` is an environment
/// problem (unreadable file, malformed policy), not a lint result.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let policy_path = root.join("crates/check/ordering_policy.toml");
    let policy_src = std::fs::read_to_string(&policy_path)
        .map_err(|e| format!("cannot read {}: {e}", policy_path.display()))?;
    let policy =
        policy::parse(&policy_src).map_err(|e| format!("{}: {e}", policy_path.display()))?;

    let mut findings = Vec::new();
    let mut used_keys = Vec::new();
    let mut dead_pub_files = Vec::new();
    let mut long_fns = Vec::new();
    let mut code_lines = BTreeMap::new();

    for path in rust_files(root).map_err(|e| format!("walking {}: {e}", root.display()))? {
        let rel = rel(root, &path);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {rel}: {e}"))?;
        let lines = scan::scan(&src);

        if rel.starts_with("crates/") {
            findings.extend(rules::unsafe_safety(&rel, &lines));
        }
        long_fns.extend(rules::long_fns(&rel, &lines));
        if let Some((krate, _)) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once("/src/"))
        {
            *code_lines.entry(krate.to_string()).or_default() += rules::code_lines(&lines);
        }
        if rel.starts_with("crates/node/src/") || rel.starts_with("crates/telemetry/src/") {
            findings.extend(rules::ordering_policy(&rel, &lines, &policy));
            used_keys.extend(rules::referenced_keys(&lines));
        }
        if unwrap_scope(&rel) {
            findings.extend(rules::unwrap_ban(&rel, &lines));
        }
        if DEAD_PUB_SCOPE.iter().any(|dir| rel.starts_with(dir)) {
            dead_pub_files.push((rel, lines));
        }
    }

    let dead_pub_allowlist = read_allowlist(root, DEAD_PUB_ALLOWLIST)?;
    let dead = rules::dead_pub(&dead_pub_files);
    findings.extend(rules::dead_pub_findings(
        &dead,
        DEAD_PUB_ALLOWLIST,
        &dead_pub_allowlist,
    ));
    let long_fn_allowlist = read_allowlist(root, LONG_FN_ALLOWLIST)?;
    findings.extend(rules::long_fn_findings(
        &long_fns,
        LONG_FN_ALLOWLIST,
        &long_fn_allowlist,
    ));

    findings.extend(rules::unused_policy_keys(&policy, &used_keys));
    findings.extend(wire_exhaustive(root)?);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Report {
        findings,
        dead_pub_allowed: dead_pub_allowlist.len(),
        long_fn_allowed: long_fn_allowlist.len(),
        code_lines,
    })
}

/// The wire-protocol exhaustiveness rule: every `Message` variant in
/// both codec directions, every `RejectKind` in both tag maps, and
/// every `CommitError` mapped to a rejection by the gateway.
fn wire_exhaustive(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();

    let wire_path = "crates/node/src/wire.rs";
    let wire_src = std::fs::read_to_string(root.join(wire_path))
        .map_err(|e| format!("cannot read {wire_path}: {e}"))?;
    let wire = scan::scan(&wire_src);

    let messages =
        rules::enum_variants(&wire, "Message").ok_or("wire.rs: enum Message not found")?;
    if messages.is_empty() {
        return Err("wire.rs: enum Message has no variants".to_string());
    }
    let impl_msg = rules::impl_line(&wire, "Message").ok_or("wire.rs: impl Message not found")?;
    for (fn_name, context) in [
        ("encode_into", "Message::encode_into"),
        ("decode_from", "Message::decode_from"),
    ] {
        let span = rules::fn_span(&wire, fn_name, impl_msg)
            .ok_or_else(|| format!("wire.rs: fn {fn_name} not found after impl Message"))?;
        findings.extend(rules::span_covers(
            wire_path, &wire, span, "Message", &messages, context,
        ));
    }

    let rejects =
        rules::enum_variants(&wire, "RejectKind").ok_or("wire.rs: enum RejectKind not found")?;
    let impl_rk =
        rules::impl_line(&wire, "RejectKind").ok_or("wire.rs: impl RejectKind not found")?;
    for (fn_name, context) in [
        ("tag", "RejectKind::tag"),
        ("from_tag", "RejectKind::from_tag"),
    ] {
        let span = rules::fn_span(&wire, fn_name, impl_rk)
            .ok_or_else(|| format!("wire.rs: fn {fn_name} not found after impl RejectKind"))?;
        findings.extend(rules::span_covers(
            wire_path,
            &wire,
            span,
            "RejectKind",
            &rejects,
            context,
        ));
    }

    let facade_path = "crates/core/src/facade.rs";
    let facade_src = std::fs::read_to_string(root.join(facade_path))
        .map_err(|e| format!("cannot read {facade_path}: {e}"))?;
    let commit_errors = rules::enum_variants(&scan::scan(&facade_src), "CommitError")
        .ok_or("facade.rs: enum CommitError not found")?;

    let gw_path = "crates/node/src/gateway.rs";
    let gw_src = std::fs::read_to_string(root.join(gw_path))
        .map_err(|e| format!("cannot read {gw_path}: {e}"))?;
    let gw = scan::scan(&gw_src);
    let span = rules::fn_span(&gw, "to_wire_reject", 0)
        .ok_or("gateway.rs: fn to_wire_reject not found")?;
    findings.extend(rules::span_covers(
        gw_path,
        &gw,
        span,
        "CommitError",
        &commit_errors,
        "to_wire_reject",
    ));
    // And the mapping must also name every RejectKind, so a new kind
    // cannot exist without a producer.
    findings.extend(rules::span_covers(
        gw_path,
        &gw,
        span,
        "RejectKind",
        &rejects,
        "to_wire_reject",
    ));

    Ok(findings)
}
