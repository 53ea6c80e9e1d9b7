//! Workspace lint CLI. Run from anywhere inside the repo:
//!
//! ```text
//! cargo run -p medledger-check --bin lint
//! ```
//!
//! Exits 0 when clean, 1 with one finding per line otherwise, 2 on
//! environment errors (unreadable files, malformed policy).

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // The manifest dir is crates/check; the workspace root is two up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or(manifest)
}

fn main() {
    let mut root = workspace_root();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("--root needs a path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: lint [--root <workspace-root>]");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    match medledger_check::lint::run_workspace(&root) {
        Ok(report) => {
            println!(
                "lint: dead-pub allowlist holds {} item(s)",
                report.dead_pub_allowed
            );
            if report.findings.is_empty() {
                println!("lint: workspace clean");
                return;
            }
            for f in &report.findings {
                println!("{f}");
            }
            eprintln!("lint: {} finding(s)", report.findings.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("lint: {e}");
            std::process::exit(2);
        }
    }
}
