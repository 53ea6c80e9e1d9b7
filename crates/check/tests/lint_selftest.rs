//! Lint self-test: the real workspace must be clean, the rules must
//! still fire on synthetic violations (so a clean run means "checked
//! and passed", not "checker went blind"), and the wire-protocol
//! inventory must match the real sources.

use std::path::PathBuf;

use medledger_check::lint::{self, policy, rules, scan};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/check sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let findings = (lint::run_workspace(&workspace_root()).expect("lint runs")).findings;
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn unsafe_rule_still_fires() {
    let lines = scan::scan("fn f() {\n    unsafe { deref(p) }\n}\n");
    assert_eq!(rules::unsafe_safety("x.rs", &lines).len(), 1);
    let ok =
        scan::scan("fn f() {\n    // SAFETY: p outlives the call\n    unsafe { deref(p) }\n}\n");
    assert!(rules::unsafe_safety("x.rs", &ok).is_empty());
}

#[test]
fn ordering_rule_still_fires() {
    let policy_src =
        std::fs::read_to_string(workspace_root().join("crates/check/ordering_policy.toml"))
            .expect("policy readable");
    let policy = policy::parse(&policy_src).expect("policy parses");

    // Unmarked site.
    let lines = scan::scan("let v = a.load(Ordering::Acquire);\n");
    let fs = rules::ordering_policy("x.rs", &lines, &policy);
    assert_eq!(fs.len(), 1, "{fs:?}");

    // Marked, but the key does not permit the variant.
    let lines = scan::scan("// ordering: timer-seq\nlet v = a.load(Ordering::SeqCst);\n");
    let fs = rules::ordering_policy("x.rs", &lines, &policy);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert!(fs[0].message.contains("not permitted"));

    // Marked with an unknown key.
    let lines = scan::scan("// ordering: no-such-key\nlet v = a.load(Ordering::Acquire);\n");
    let fs = rules::ordering_policy("x.rs", &lines, &policy);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert!(fs[0].message.contains("unknown policy key"));

    // Properly registered.
    let lines = scan::scan("// ordering: timer-seq\nlet v = a.fetch_add(1, Ordering::Relaxed);\n");
    assert!(rules::ordering_policy("x.rs", &lines, &policy).is_empty());
}

#[test]
fn unwrap_rule_still_fires() {
    let lines = scan::scan("fn f() {\n    let v = map.get(k).unwrap();\n}\n");
    assert_eq!(rules::unwrap_ban("x.rs", &lines).len(), 1);
    // Test code is exempt.
    let lines = scan::scan("#[cfg(test)]\nmod t {\n    fn f() { x.unwrap(); }\n}\n");
    assert!(rules::unwrap_ban("x.rs", &lines).is_empty());
}

#[test]
fn dead_pub_rule_still_fires() {
    let scanned = |files: &[(&str, &str)]| -> Vec<(String, Vec<scan::Line>)> {
        let scan_one = |(file, src): &(&str, &str)| (file.to_string(), scan::scan(src));
        files.iter().map(scan_one).collect()
    };
    let lib =
        "pub fn used() {}\npub fn lonely() {}\n// lonely() in a comment, \"lonely\" in a string\n\
               #[cfg(test)]\nmod tests {\n    fn t() { super::lonely(); }\n}\n";
    let caller = ("tests/api.rs", "fn t() { used(); }\n");
    let dead = rules::dead_pub(&scanned(&[("crates/a/src/lib.rs", lib), caller]));
    let lonely = ("crates/a/src/lib.rs".to_string(), 2, "lonely".to_string());
    assert_eq!(dead, vec![lonely.clone()]);
    // Another file's test module is a caller; so is any non-test line.
    let other = (
        "crates/b/src/lib.rs",
        "#[cfg(test)]\nmod tests {\n    fn t() { lonely(); }\n}\n",
    );
    assert!(rules::dead_pub(&scanned(&[("crates/a/src/lib.rs", lib), caller, other])).is_empty());
    // Only crate sources declare items the rule owns.
    assert!(rules::dead_pub(&scanned(&[("tests/api.rs", lib)])).is_empty());

    // The allowlist excuses a dead item, and goes stale loudly.
    let allow = rules::parse_allowlist("# why\ncrates/a/src/lib.rs lonely  # hook\n");
    let allow = allow.expect("allowlist parses");
    assert!(rules::dead_pub_findings(&dead, "allow.txt", &allow).is_empty());
    assert_eq!(rules::dead_pub_findings(&dead, "allow.txt", &[]).len(), 1);
    let stale = rules::dead_pub_findings(&[], "allow.txt", &allow);
    assert_eq!(stale.len(), 1);
    assert_eq!((stale[0].file.as_str(), stale[0].line), ("allow.txt", 2));
    assert!(rules::parse_allowlist("one-word\n").is_err());
}

#[test]
fn dead_pub_sees_re_exports() {
    // `Ward` is named outside its module through the re-export, `Bed`
    // only by its own module and the `pub use` line; `cot` only by the
    // re-exporting file's tests. The multi-line `pub use` exports `Cot`
    // under its alias `cot`.
    let lib = "pub mod ward;\npub use ward::{\n    Bed,\n    Cot as cot, Ward,\n};\n\
               #[cfg(test)]\nmod tests {\n    fn t() { cot(); }\n}\n";
    let module = "pub struct Ward;\npub struct Bed;\npub struct Cot;\n\
                  fn beds() -> Bed { Bed }\nfn cots() -> Cot { Cot }\n";
    let caller = "fn t(w: medledger_a::Ward) {}\n";
    let files = [
        ("crates/a/src/lib.rs", lib),
        ("crates/a/src/ward.rs", module),
        ("tests/api.rs", caller),
    ];
    let files: Vec<_> = (files.iter())
        .map(|(file, src)| (file.to_string(), scan::scan(src)))
        .collect();
    let dead = |line, name: &str| ("crates/a/src/lib.rs".to_string(), line, name.to_string());
    assert_eq!(
        rules::dead_pub(&files),
        vec![dead(3, "Bed"), dead(4, "cot")]
    );
}

#[test]
fn dead_pub_reads_methods_by_path() {
    // `Ward::open` shares its name with the live free fn `open`, which
    // no longer keeps it alive; `close` is live through a method call,
    // `beds` through its path, `admit` through `Self::admit`.
    let lib = "pub struct Ward<T>(T);\nimpl<T: Copy> Ward<T> {\n    pub fn open() {}\n    \
               pub fn close(&self) {}\n    pub fn beds(&self) {}\n    pub fn admit() {}\n    \
               fn new() { Self::admit(); }\n}\npub fn open() {}\n";
    let caller = "fn t(w: &Ward<u8>) {\n    open();\n    w.close();\n    Ward::beds(w);\n}\n";
    let files = [("crates/a/src/lib.rs", lib), ("tests/api.rs", caller)];
    let files: Vec<_> = (files.iter())
        .map(|(file, src)| (file.to_string(), scan::scan(src)))
        .collect();
    let open = ("crates/a/src/lib.rs".to_string(), 3, "open".to_string());
    assert_eq!(rules::dead_pub(&files), vec![open]);
}

#[test]
fn policy_file_documents_every_key() {
    let policy_src =
        std::fs::read_to_string(workspace_root().join("crates/check/ordering_policy.toml"))
            .expect("policy readable");
    let policy = policy::parse(&policy_src).expect("policy parses");
    for (key, entry) in &policy {
        assert!(
            entry.rationale.split_whitespace().count() >= 8,
            "policy key `{key}` needs a real rationale, not a stub"
        );
    }
    assert!(
        policy.contains_key("active-tasks-mutant"),
        "the seeded CI mutant must stay documented"
    );
}

#[test]
fn wire_inventory_matches_sources() {
    let root = workspace_root();
    let wire = scan::scan(
        &std::fs::read_to_string(root.join("crates/node/src/wire.rs")).expect("wire.rs"),
    );
    let messages = rules::enum_variants(&wire, "Message").expect("enum Message");
    assert!(
        messages.len() >= 10,
        "wire::Message should be a rich protocol, found {messages:?}"
    );
    let rejects = rules::enum_variants(&wire, "RejectKind").expect("enum RejectKind");
    assert_eq!(rejects.len(), 9, "found {rejects:?}");

    let facade = scan::scan(
        &std::fs::read_to_string(root.join("crates/core/src/facade.rs")).expect("facade.rs"),
    );
    let commit_errors = rules::enum_variants(&facade, "CommitError").expect("enum CommitError");
    assert_eq!(
        commit_errors.len(),
        rejects.len(),
        "every CommitError maps 1:1 onto a RejectKind"
    );
}

#[test]
fn exhaustiveness_rule_catches_a_missing_arm() {
    let src = "pub enum Kind { A, B }\nimpl Kind {\n    fn tag(self) -> u8 {\n        match self {\n            Kind::A => 0,\n            Kind::B => 1,\n        }\n    }\n    fn from_tag(t: u8) -> Kind {\n        match t {\n            0 => Kind::A,\n            _ => Kind::B,\n        }\n    }\n}\n";
    let lines = scan::scan(src);
    let variants = rules::enum_variants(&lines, "Kind").expect("enum Kind");
    assert_eq!(variants, vec!["A", "B"]);
    let impl_at = rules::impl_line(&lines, "Kind").expect("impl Kind");
    let tag = rules::fn_span(&lines, "tag", impl_at).expect("fn tag");
    assert!(rules::span_covers("x.rs", &lines, tag, "Kind", &variants, "tag").is_empty());
    // Drop the B arm: the rule must notice.
    let broken = src.replace("            Kind::B => 1,\n", "");
    let lines = scan::scan(&broken);
    let tag = rules::fn_span(&lines, "tag", 0).expect("fn tag");
    let fs = rules::span_covers("x.rs", &lines, tag, "Kind", &variants, "tag");
    assert_eq!(fs.len(), 1);
    assert!(fs[0].message.contains("Kind::B"));
}

#[test]
fn long_fn_rule_still_fires() {
    let body = |lines: usize| "    step();\n".repeat(lines);
    // 150 lines from `fn` to `}` pass, 151 do not; a bodiless trait item
    // and test code are out of scope.
    let src = format!(
        "pub fn fits() {{\n{}}}\nfn too_long(a: [u8; 2]) -> u8 {{\n{}}}\n\
         trait T {{\n    fn bare(&self);\n}}\n\
         #[cfg(test)]\nmod tests {{\n    fn long_test() {{\n{}    }}\n}}\n",
        body(148),
        body(149),
        body(200)
    );
    let lines = scan::scan(&src);
    let long = rules::long_fns("crates/a/src/lib.rs", &lines);
    let too_long = (
        "crates/a/src/lib.rs".to_string(),
        151,
        "too_long".to_string(),
        151,
    );
    assert_eq!(long, vec![too_long]);
    // Only crate sources are in scope.
    assert!(rules::long_fns("tests/api.rs", &lines).is_empty());

    // The allowlist excuses a long function, and goes stale loudly.
    let allow = rules::parse_allowlist("crates/a/src/lib.rs too_long\n").expect("parses");
    assert!(rules::long_fn_findings(&long, "allow.txt", &allow).is_empty());
    assert_eq!(rules::long_fn_findings(&long, "allow.txt", &[]).len(), 1);
    let stale = rules::long_fn_findings(&[], "allow.txt", &allow);
    assert_eq!(stale.len(), 1);
    assert_eq!((stale[0].file.as_str(), stale[0].line), ("allow.txt", 1));
}

#[test]
fn code_lines_skip_blank_comment_and_test_lines() {
    let src = "//! Module docs.\n\nuse std::fmt;\n\n/// Doc comment.\nfn f() {\n    \
               // a comment\n    let s = \"// not a comment\"; /* trailing */\n    /* block\n    \
               still block */\n}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
    let lines = scan::scan(src);
    // `use`, `fn f() {`, `let s = ...`, `}`.
    assert_eq!(rules::code_lines(&lines), 4);
}
