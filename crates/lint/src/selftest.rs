//! `--self-test`: prove every lint class is live by planting one
//! violation per rule in a throwaway tree and asserting each fires —
//! then a compliant tree and asserting silence. A lint whose rules
//! cannot be shown to fire is indistinguishable from a lint that never
//! ran.

use crate::rules::{scan_root, RULE_FORBID, RULE_PANIC, RULE_REGISTRY, RULE_SEQCST, RULE_UNSAFE};
use std::fs;
use std::path::Path;

/// Run the self-test. Returns `Err` with a description on failure.
pub fn run() -> Result<(), String> {
    let root = std::env::temp_dir().join(format!("lc-lint-selftest-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let result = plant_and_check(&root);
    let _ = fs::remove_dir_all(&root);
    result
}

fn plant_and_check(root: &Path) -> Result<(), String> {
    write_tree(root, SEEDED)?;
    let violations = scan_root(root).map_err(|e| format!("scan failed: {e}"))?;
    let fired: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    for rule in [
        RULE_UNSAFE,
        RULE_FORBID,
        RULE_SEQCST,
        RULE_REGISTRY,
        RULE_PANIC,
    ] {
        if fired.contains(&rule) {
            println!("self-test: seeded `{rule}` violation fires");
        } else {
            return Err(format!(
                "seeded `{rule}` violation did NOT fire; the rule is dead. Findings: {:#?}",
                violations
            ));
        }
    }
    // The SIMD carve-out must fire as its own finding: unsafe in a
    // planted simd.rs without `// safety:` is a RULE_UNSAFE violation
    // anchored to that file (not silently tolerated by the allowlist).
    if !violations
        .iter()
        .any(|v| v.rule == RULE_UNSAFE && v.path.ends_with("src/simd.rs"))
    {
        return Err(format!(
            "seeded unjustified-unsafe in a simd.rs did NOT fire; the `// safety:` \
             requirement is dead. Findings: {violations:#?}"
        ));
    }
    println!("self-test: seeded simd.rs `// safety:` violation fires");

    // The escape hatch must actually suppress: the annotated unwrap in
    // the seeded reactor.rs may not be reported.
    if violations
        .iter()
        .any(|v| v.rule == RULE_PANIC && v.path.contains("reactor.rs") && v.line == 4)
    {
        return Err("`lint: allow(panic)` annotation failed to suppress".into());
    }
    println!("self-test: `lint: allow` annotation suppresses");

    write_tree(root, CLEAN)?;
    let violations = scan_root(root).map_err(|e| format!("scan failed: {e}"))?;
    if !violations.is_empty() {
        return Err(format!(
            "compliant tree still produced findings: {violations:#?}"
        ));
    }
    println!("self-test: compliant tree is silent");
    Ok(())
}

fn write_tree(root: &Path, files: &[(&str, &str)]) -> Result<(), String> {
    let _ = fs::remove_dir_all(root);
    for (rel, body) in files {
        let path = root.join(rel);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
        }
        fs::write(&path, body).map_err(|e| format!("write {path:?}: {e}"))?;
    }
    Ok(())
}

/// One violation per rule class (several rules trip more than once so a
/// single planted tree exercises sub-checks too).
const SEEDED: &[(&str, &str)] = &[
    ("Cargo.toml", "[package]\nname = \"seeded\"\n"),
    // No forbid attribute, an unsafe block, and an unjustified SeqCst.
    (
        "src/lib.rs",
        r#"pub fn f(x: &std::sync::atomic::AtomicU64) -> u64 {
    let _ = unsafe { std::hint::unreachable_unchecked::<fn()>() };
    x.load(std::sync::atomic::Ordering::SeqCst)
}
"#,
    ),
    (
        "crates/wire/Cargo.toml",
        "[package]\nname = \"seeded-wire\"\n",
    ),
    // DATA reuses SIZE's value, DATA has no decoder arm, GONE is
    // registered but absent, and SIZE's registry value disagrees.
    (
        "crates/wire/src/frame.rs",
        r#"#![forbid(unsafe_code)]
pub mod kind {
    pub const SIZE: u8 = 0x05;
    pub const DATA: u8 = 0x05;
}
pub fn decode(k: u8) {
    match k {
        kind::SIZE => {}
        _ => {}
    }
}
"#,
    ),
    (
        "crates/wire/registry.txt",
        "frame-kind 0x01 SIZE\nframe-kind 0x02 DATA\nframe-kind 0x03 GONE\n",
    ),
    (
        "crates/service/Cargo.toml",
        "[package]\nname = \"seeded-service\"\n",
    ),
    ("crates/service/src/lib.rs", "#![forbid(unsafe_code)]\n"),
    // An unannotated unwrap (line 3), an annotated one (line 4, must be
    // suppressed), and an index expression (line 5).
    (
        "crates/service/src/reactor.rs",
        r#"#![forbid(unsafe_code)]
pub fn hot(v: Option<u32>, w: Option<u32>, senders: &[u32], shard: usize) -> u32 {
    let a = v.unwrap();
    let b = w.unwrap(); // lint: allow(panic, reason = "self-test suppression probe")
    a + b + senders[shard]
}
"#,
    ),
    (
        "crates/bloom/Cargo.toml",
        "[package]\nname = \"seeded-bloom\"\n",
    ),
    (
        "crates/bloom/src/lib.rs",
        "#![deny(unsafe_code)]\npub mod simd;\n",
    ),
    // An allowlisted SIMD module whose unsafe block has no `// safety:`
    // justification — must fire as RULE_UNSAFE anchored to this file.
    (
        "crates/bloom/src/simd.rs",
        r#"#![allow(unsafe_code)]
pub fn gather(p: *const u32) -> u32 {
    unsafe { p.read_unaligned() }
}
"#,
    ),
];

/// The same tree with every violation repaired; the scan must be silent.
const CLEAN: &[(&str, &str)] = &[
    ("Cargo.toml", "[package]\nname = \"seeded\"\n"),
    (
        "src/lib.rs",
        r#"#![forbid(unsafe_code)]
pub fn f(x: &std::sync::atomic::AtomicU64) -> u64 {
    // ordering: total order against the flush path's read.
    x.load(std::sync::atomic::Ordering::SeqCst)
}
"#,
    ),
    (
        "crates/wire/Cargo.toml",
        "[package]\nname = \"seeded-wire\"\n",
    ),
    (
        "crates/wire/src/frame.rs",
        r#"#![forbid(unsafe_code)]
pub mod kind {
    pub const SIZE: u8 = 0x01;
    pub const DATA: u8 = 0x02;
}
pub fn decode(k: u8) {
    match k {
        kind::SIZE => {}
        kind::DATA => {}
        _ => {}
    }
}
"#,
    ),
    (
        "crates/wire/registry.txt",
        "frame-kind 0x01 SIZE\nframe-kind 0x02 DATA\n",
    ),
    (
        "crates/service/Cargo.toml",
        "[package]\nname = \"seeded-service\"\n",
    ),
    ("crates/service/src/lib.rs", "#![forbid(unsafe_code)]\n"),
    (
        "crates/service/src/reactor.rs",
        r#"#![forbid(unsafe_code)]
pub fn hot(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}
"#,
    ),
    (
        "crates/bloom/Cargo.toml",
        "[package]\nname = \"seeded-bloom\"\n",
    ),
    // A SIMD-hosting root may use deny (so its simd module can opt back
    // in); the justified unsafe below must be silent.
    (
        "crates/bloom/src/lib.rs",
        "#![deny(unsafe_code)]\npub mod simd;\n",
    ),
    (
        "crates/bloom/src/simd.rs",
        r#"#![allow(unsafe_code)]
pub fn gather(p: *const u32) -> u32 {
    // safety: caller guarantees `p` points into a live, padded table row.
    unsafe { p.read_unaligned() }
}
"#,
    ),
];

#[cfg(test)]
mod tests {
    /// The full self-test doubles as a unit test.
    #[test]
    fn seeded_violations_fire_and_clean_tree_is_silent() {
        super::run().expect("self-test");
    }
}
