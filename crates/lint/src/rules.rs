//! The lint rules. Everything operates on a root directory so the same
//! scanner runs against the real workspace and the self-test's planted
//! trees.

use crate::registry;
use crate::strip::{has_token, strip};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A single finding, anchored to a repo-relative path and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Rule identifiers, used both in output and in the
/// `// lint: allow(<rule>, reason)` escape hatch.
pub const RULE_UNSAFE: &str = "unsafe";
pub const RULE_FORBID: &str = "forbid-unsafe";
pub const RULE_SEQCST: &str = "seqcst";
pub const RULE_REGISTRY: &str = "registry";
pub const RULE_PANIC: &str = "panic";

/// Files whose decode/write paths run per event-loop pass: panicking
/// macros, `unwrap`/`expect`, and unannotated indexing are forbidden
/// there (a malformed frame must surface as an error or a closed
/// connection, never a worker abort).
const HOT_PATH_FILES: &[&str] = &[
    "crates/service/src/reactor.rs",
    "crates/service/src/outbound.rs",
    "crates/reactor/src/writebuf.rs",
];

/// The one file allowed to keep `SeqCst` without justification comments:
/// the async-signal handler, where the cost is irrelevant and the
/// strongest ordering is the conservative default.
const SEQCST_ALLOWLIST: &[&str] = &["crates/reactor/src/sys.rs"];

/// The dedicated SIMD modules where `unsafe` is tolerated *with strings
/// attached*: every `unsafe` there must carry an adjacent `// safety:`
/// comment justifying the specific invariant (gather bounds, cpuid
/// precondition, exact-size store target). Everywhere else outside
/// `crates/reactor` stays unsafe-free.
const SIMD_UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/hash/src/simd.rs",
    "crates/bloom/src/simd.rs",
    "crates/ngram/src/simd.rs",
];

/// Crate roots that host a SIMD module: they downgrade
/// `#![forbid(unsafe_code)]` to `#![deny(unsafe_code)]` (forbid cannot be
/// overridden per-module) and the simd module opts back in locally. The
/// lint accepts either attribute here and still requires forbid
/// everywhere else.
const SIMD_CRATE_ROOTS: &[&str] = &[
    "crates/hash/src/lib.rs",
    "crates/bloom/src/lib.rs",
    "crates/ngram/src/lib.rs",
];

/// One loaded source file.
struct SourceFile {
    rel: String,
    raw: String,
    stripped: String,
}

impl SourceFile {
    fn raw_lines(&self) -> Vec<&str> {
        self.raw.lines().collect()
    }
}

/// Scan the workspace rooted at `root` and return every violation.
pub fn scan_root(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));

    let mut out = Vec::new();
    for f in &files {
        rule_unsafe(f, &mut out);
        rule_seqcst(f, &mut out);
        if HOT_PATH_FILES.contains(&f.rel.as_str()) {
            rule_hot_path_panic(f, &mut out);
        }
    }
    rule_forbid_unsafe(root, &files, &mut out);
    registry::check(root, &mut out);
    out.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    Ok(out)
}

/// Count of `.rs` files a scan covers (for the summary line).
pub fn count_rs(root: &Path) -> usize {
    let mut files = Vec::new();
    let _ = collect_rs(root, root, &mut files);
    files.len()
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == ".claude" {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let raw = fs::read_to_string(&path)?;
            let stripped = strip(&raw);
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile { rel, raw, stripped });
        }
    }
    Ok(())
}

/// `// lint: allow(<rule>, reason)` on the flagged line or within the
/// two lines above suppresses a finding; the reason is mandatory syntax
/// so suppressions stay self-documenting.
fn allowed(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let lo = idx.saturating_sub(2);
    raw_lines[lo..=idx].iter().any(|l| {
        l.find("lint: allow(")
            .map(|at| l[at..].contains(rule))
            .unwrap_or(false)
    })
}

/// Rule `unsafe`: the `unsafe` keyword is confined to `crates/reactor`
/// (the epoll/eventfd/signal FFI) and the dedicated SIMD modules in
/// [`SIMD_UNSAFE_ALLOWLIST`], where every occurrence additionally needs
/// an adjacent `// safety:` justification (same line, or in the comment
/// block directly above). Everything else must stay safe Rust.
fn rule_unsafe(f: &SourceFile, out: &mut Vec<Violation>) {
    if f.rel.starts_with("crates/reactor/") {
        return;
    }
    let simd_module = SIMD_UNSAFE_ALLOWLIST.contains(&f.rel.as_str());
    let raw = f.raw_lines();
    for (i, line) in f.stripped.lines().enumerate() {
        if !has_token(line, "unsafe") || allowed(&raw, i, RULE_UNSAFE) {
            continue;
        }
        if simd_module {
            if has_safety_comment(&raw, i) {
                continue;
            }
            out.push(Violation {
                path: f.rel.clone(),
                line: i + 1,
                rule: RULE_UNSAFE,
                msg: "`unsafe` in a SIMD module without an adjacent `// safety:` comment; \
                      state the invariant (gather bounds, cpuid precondition, store \
                      target size) on or just above this line"
                    .into(),
            });
        } else {
            out.push(Violation {
                path: f.rel.clone(),
                line: i + 1,
                rule: RULE_UNSAFE,
                msg: "`unsafe` outside crates/reactor and the SIMD modules; move the FFI \
                      there or justify with `// lint: allow(unsafe, reason)`"
                    .into(),
            });
        }
    }
}

/// Whether the `unsafe` at raw line `idx` is justified: a `// safety:`
/// marker on the line itself, or anywhere in the contiguous run of
/// comment lines directly above it (multi-line justifications count as
/// one adjacent block; any code line breaks the run).
fn has_safety_comment(raw: &[&str], idx: usize) -> bool {
    if raw[idx].contains("// safety:") {
        return true;
    }
    raw[..idx]
        .iter()
        .rev()
        .take_while(|l| l.trim_start().starts_with("//"))
        .any(|l| l.trim_start().starts_with("// safety:"))
}

/// Rule `forbid-unsafe`: every crate root except `crates/reactor`'s
/// must carry `#![forbid(unsafe_code)]` so the confinement is enforced
/// by the compiler, not just this lint. The [`SIMD_CRATE_ROOTS`] may use
/// `#![deny(unsafe_code)]` instead — forbid cannot be re-allowed by the
/// simd module, deny can — but must still carry one of the two.
fn rule_forbid_unsafe(root: &Path, files: &[SourceFile], out: &mut Vec<Violation>) {
    for rel in crate_roots(root) {
        if rel.starts_with("crates/reactor/") {
            continue;
        }
        let Some(f) = files.iter().find(|f| f.rel == rel) else {
            continue;
        };
        if f.stripped.contains("#![forbid(unsafe_code)]") {
            continue;
        }
        if SIMD_CRATE_ROOTS.contains(&rel.as_str()) {
            if !f.stripped.contains("#![deny(unsafe_code)]") {
                out.push(Violation {
                    path: rel,
                    line: 1,
                    rule: RULE_FORBID,
                    msg: "SIMD-hosting crate root is missing `#![deny(unsafe_code)]` \
                          (or `#![forbid(unsafe_code)]`)"
                        .into(),
                });
            }
            continue;
        }
        out.push(Violation {
            path: rel,
            line: 1,
            rule: RULE_FORBID,
            msg: "crate root is missing `#![forbid(unsafe_code)]`".into(),
        });
    }
}

/// Enumerate crate roots: for every directory holding a `Cargo.toml`
/// with a `[package]` section, the existing `src/lib.rs` / `src/main.rs`.
fn crate_roots(root: &Path) -> Vec<String> {
    let mut manifests = Vec::new();
    find_manifests(root, &mut manifests);
    let mut roots = Vec::new();
    for m in manifests {
        let Ok(body) = fs::read_to_string(&m) else {
            continue;
        };
        if !body.contains("[package]") {
            continue;
        }
        let dir = m.parent().unwrap_or(root);
        for leaf in ["src/lib.rs", "src/main.rs"] {
            let p = dir.join(leaf);
            if p.is_file() {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                roots.push(rel);
            }
        }
    }
    roots
}

fn find_manifests(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    for entry in rd.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == ".claude" {
                continue;
            }
            find_manifests(&path, out);
        } else if name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// Rule `seqcst`: every `SeqCst` outside the signal handler needs an
/// adjacent `// ordering:` comment saying why the strongest (and
/// costliest) ordering is required — or a downgrade to the ordering the
/// algorithm actually needs. Shim crates are skipped: they stand in for
/// external dependencies and mirror upstream API behaviour.
fn rule_seqcst(f: &SourceFile, out: &mut Vec<Violation>) {
    if f.rel.starts_with("crates/shims/") || SEQCST_ALLOWLIST.contains(&f.rel.as_str()) {
        return;
    }
    let raw = f.raw_lines();
    for (i, line) in f.stripped.lines().enumerate() {
        if !has_token(line, "SeqCst") {
            continue;
        }
        let lo = i.saturating_sub(2);
        let justified = raw[lo..=i].iter().any(|l| l.contains("// ordering:"));
        if !justified && !allowed(&raw, i, RULE_SEQCST) {
            out.push(Violation {
                path: f.rel.clone(),
                line: i + 1,
                rule: RULE_SEQCST,
                msg: "SeqCst without a `// ordering:` justification; downgrade to the \
                      ordering the algorithm needs, or document why sequential \
                      consistency is required"
                    .into(),
            });
        }
    }
}

/// Rule `panic`: no panicking constructs or unannotated indexing in the
/// reactor's decode/write hot-path files outside their test modules.
fn rule_hot_path_panic(f: &SourceFile, out: &mut Vec<Violation>) {
    let raw = f.raw_lines();
    let test_start = raw
        .iter()
        .position(|l| l.contains("#[cfg(test)]") || l.trim_start().starts_with("mod tests"))
        .unwrap_or(raw.len());
    for (i, line) in f.stripped.lines().enumerate() {
        if i >= test_start {
            break;
        }
        let flag = |what: &str, out: &mut Vec<Violation>| {
            if !allowed(&raw, i, RULE_PANIC) {
                out.push(Violation {
                    path: f.rel.clone(),
                    line: i + 1,
                    rule: RULE_PANIC,
                    msg: format!(
                        "{what} in a hot-path file; return an error (or close the \
                         connection) instead, or annotate with \
                         `// lint: allow(panic, reason)`"
                    ),
                });
            }
        };
        for needle in [
            ".unwrap()",
            ".expect(",
            "panic!",
            "unreachable!",
            "todo!",
            "unimplemented!",
        ] {
            if line.contains(needle) {
                flag(needle, out);
            }
        }
        if let Some(col) = find_index_expr(line) {
            flag(&format!("slice/array indexing at column {}", col + 1), out);
        }
    }
}

/// Heuristic for a panicking index expression: a `[` whose preceding
/// non-space character ends an expression (identifier, `)`, or `]`).
/// Type positions (`[u8; 4]`), attributes (`#[...]`), macros (`vec![`)
/// and array literals (`= [`) are preceded by other characters.
fn find_index_expr(line: &str) -> Option<usize> {
    const KEYWORDS: &[&str] = &[
        "mut", "ref", "let", "return", "in", "as", "dyn", "impl", "where", "if", "else", "match",
        "move", "break", "const", "static",
    ];
    let b = line.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' || i == 0 {
            continue;
        }
        let before = line[..i].trim_end();
        let Some(&p) = before.as_bytes().last() else {
            continue;
        };
        if p.is_ascii_alphanumeric() || p == b'_' || p == b')' || p == b']' {
            let ident_start = before
                .rfind(|ch: char| !ch.is_ascii_alphanumeric() && ch != '_')
                .map(|at| at + 1)
                .unwrap_or(0);
            if KEYWORDS.contains(&&before[ident_start..]) {
                continue;
            }
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_heuristic() {
        assert!(find_index_expr("let x = senders[shard].send(j);").is_some());
        assert!(find_index_expr("let y = &payload[..len];").is_some());
        assert!(find_index_expr("let t: [u8; 4] = make();").is_none());
        assert!(find_index_expr("#[cfg(test)]").is_none());
        assert!(find_index_expr("let v = vec![1, 2];").is_none());
        assert!(find_index_expr("let a = [0u8; 8];").is_none());
        assert!(find_index_expr("fn f(buf: &mut [u8]) {}").is_none());
        assert!(find_index_expr("return [a, b];").is_none());
        assert!(find_index_expr("let [a, b] = pair;").is_none());
    }

    #[test]
    fn allow_annotation_window() {
        let lines = vec![
            "// lint: allow(panic, reason = \"bounded by construction\")",
            "",
            "let x = v.unwrap();",
            "let y = w.unwrap();",
        ];
        assert!(allowed(&lines, 2, RULE_PANIC));
        assert!(!allowed(&lines, 3, RULE_PANIC));
    }
}
