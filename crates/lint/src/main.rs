//! `lc-lint` — the workspace's static-analysis gate.
//!
//! Line/token-level checks that `cargo check` can't express, tuned to
//! this codebase's invariants:
//!
//! - **unsafe** / **forbid-unsafe** — `unsafe` is confined to
//!   `crates/reactor` (the epoll/eventfd/signal FFI); every other crate
//!   root must carry `#![forbid(unsafe_code)]`.
//! - **seqcst** — `Ordering::SeqCst` outside the signal handler
//!   (`crates/reactor/src/sys.rs`) needs an adjacent `// ordering:`
//!   comment justifying the strongest ordering.
//! - **registry** — wire frame kinds and stats section tags must match
//!   `crates/wire/registry.txt` exactly: unique values, append-only
//!   (never renumbered, never silently removed), and every frame kind
//!   decodable.
//! - **panic** — no `unwrap`/`expect`/`panic!`-family macros or
//!   unannotated indexing in the reactor's decode/write hot-path files.
//!
//! Escape hatch: `// lint: allow(<rule>, reason)` on the flagged line or
//! within two lines above.
//!
//! Usage:
//! ```text
//! cargo run -p lc-lint                 # scan the workspace, exit 1 on findings
//! cargo run -p lc-lint -- --self-test  # prove every rule class fires
//! cargo run -p lc-lint -- --root DIR   # scan an alternate tree
//! ```

#![forbid(unsafe_code)]

mod registry;
mod rules;
mod selftest;
mod strip;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut self_test = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--self-test" => self_test = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("lc-lint [--root DIR] [--self-test]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if self_test {
        return match selftest::run() {
            Ok(()) => {
                println!("lc-lint self-test: every rule class is live");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lc-lint self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let root = root.unwrap_or_else(workspace_root);
    match rules::scan_root(&root) {
        Ok(violations) if violations.is_empty() => {
            println!(
                "lc-lint: {} files scanned, 0 violations",
                rules::count_rs(&root)
            );
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            eprintln!("lc-lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lc-lint: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: the current directory if it looks like the
/// workspace (has `crates/`), else two levels above this crate's
/// manifest (`crates/lint/../..`) so `cargo run -p lc-lint` works from
/// anywhere inside the tree.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("crates").is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or(cwd)
}
