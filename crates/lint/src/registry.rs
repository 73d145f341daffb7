//! The wire-constant registry check: diff `crates/wire/registry.txt`
//! against the constants actually declared in the code. The registry is
//! append-only — values may be added, never renumbered, reused, or
//! silently dropped — because every value ends up in recorded dumps and
//! on the wire to peers that outlive any one build.

use crate::rules::{Violation, RULE_REGISTRY};
use crate::strip::strip;
use std::collections::HashMap;
use std::fs;
use std::path::Path;

pub const REGISTRY_PATH: &str = "crates/wire/registry.txt";
const FRAME_FILE: &str = "crates/wire/src/frame.rs";
const METRICS_FILE: &str = "crates/service/src/metrics.rs";

/// Run the registry check, appending findings to `out`.
pub fn check(root: &Path, out: &mut Vec<Violation>) {
    let reg_path = root.join(REGISTRY_PATH);
    let Ok(reg_text) = fs::read_to_string(&reg_path) else {
        out.push(v(REGISTRY_PATH, 1, "registry file is missing".into()));
        return;
    };
    let registered = parse_registry(&reg_text, out);

    let mut actual: Vec<(&str, String, u64, usize, &str)> = Vec::new();
    if let Ok(src) = fs::read_to_string(root.join(FRAME_FILE)) {
        let stripped = strip(&src);
        for (name, value, line) in frame_kinds(&stripped) {
            actual.push(("frame-kind", name, value, line, FRAME_FILE));
        }
        decoder_arms(&stripped, out);
    }
    if let Ok(src) = fs::read_to_string(root.join(METRICS_FILE)) {
        for (name, value, line) in stats_sections(&strip(&src)) {
            actual.push(("stats-section", name, value, line, METRICS_FILE));
        }
    }

    // Uniqueness within each domain, as declared in the code.
    let mut seen: HashMap<(&str, u64), &str> = HashMap::new();
    for (domain, name, value, line, file) in &actual {
        if let Some(prev) = seen.insert((domain, *value), name) {
            out.push(v(
                file,
                *line,
                format!("{domain} value {value:#x} of `{name}` already used by `{prev}`"),
            ));
        }
    }

    // Code → registry: every declared constant must be registered with
    // the same value (an unregistered constant means someone skipped
    // the conscious append; a different value means a renumber).
    for (domain, name, value, line, file) in &actual {
        match registered.get(&(domain.to_string(), name.clone())) {
            None => out.push(v(
                file,
                *line,
                format!("{domain} `{name}` is not in {REGISTRY_PATH}; append it"),
            )),
            Some(&reg_value) if reg_value != *value => out.push(v(
                file,
                *line,
                format!(
                    "{domain} `{name}` renumbered: code says {value:#x}, registry says \
                     {reg_value:#x}; wire values are append-only"
                ),
            )),
            _ => {}
        }
    }

    // Registry → code: a registered name that vanished from the code
    // breaks decoding of recorded traffic.
    for ((domain, name), value) in &registered {
        let domain_scanned = match domain.as_str() {
            "frame-kind" => root.join(FRAME_FILE).is_file(),
            "stats-section" => root.join(METRICS_FILE).is_file(),
            _ => false,
        };
        if domain_scanned
            && !actual
                .iter()
                .any(|(d, n, _, _, _)| *d == domain.as_str() && n == name)
        {
            out.push(v(
                REGISTRY_PATH,
                1,
                format!(
                    "registered {domain} `{name}` ({value:#x}) no longer exists in the \
                     code; deprecate it in a comment instead of deleting the constant"
                ),
            ));
        }
    }
}

fn v(path: &str, line: usize, msg: String) -> Violation {
    Violation {
        path: path.to_string(),
        line,
        rule: RULE_REGISTRY,
        msg,
    }
}

/// Parse `<domain> <value> <NAME>` lines; `#` starts a comment.
fn parse_registry(text: &str, out: &mut Vec<Violation>) -> HashMap<(String, String), u64> {
    let mut map = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(domain), Some(value), Some(name)) = (parts.next(), parts.next(), parts.next())
        else {
            out.push(v(REGISTRY_PATH, i + 1, format!("malformed line: `{line}`")));
            continue;
        };
        let Some(value) = parse_num(value) else {
            out.push(v(REGISTRY_PATH, i + 1, format!("bad value: `{value}`")));
            continue;
        };
        if map
            .insert((domain.to_string(), name.to_string()), value)
            .is_some()
        {
            out.push(v(REGISTRY_PATH, i + 1, format!("duplicate entry `{name}`")));
        }
    }
    map
}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Extract `pub const NAME: u8 = 0xNN;` declarations inside `mod kind`.
fn frame_kinds(stripped: &str) -> Vec<(String, u64, usize)> {
    let Some(open) = stripped.find("mod kind") else {
        return Vec::new();
    };
    let region = brace_region(stripped, open);
    consts_in(&stripped[open..region], ": u8 =", open, stripped)
}

/// Every frame kind must have a decoder arm (`kind::NAME =>`): an
/// encoder without one emits frames no peer can parse back.
fn decoder_arms(stripped: &str, out: &mut Vec<Violation>) {
    for (name, _, line) in frame_kinds(stripped) {
        let arm = format!("kind::{name} =>");
        let alt = format!("kind::{name} |");
        if !stripped.contains(&arm) && !stripped.contains(&alt) {
            out.push(v(
                FRAME_FILE,
                line,
                format!("frame kind `{name}` has no decoder arm (`kind::{name} =>`)"),
            ));
        }
    }
}

fn stats_sections(stripped: &str) -> Vec<(String, u64, usize)> {
    consts_in(stripped, ": u16 =", 0, stripped)
        .into_iter()
        .filter(|(name, _, _)| name.starts_with("SEC_"))
        .collect()
}

/// Find `const NAME<type_sig> <value>;` declarations in `region`
/// (already offset into `full` by `base` for line numbering).
fn consts_in(region: &str, type_sig: &str, base: usize, full: &str) -> Vec<(String, u64, usize)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = region[from..].find("const ") {
        let abs = from + at;
        from = abs + 6;
        let decl = &region[abs + 6..];
        let Some(sig) = decl.find(type_sig) else {
            continue;
        };
        // The signature must belong to this declaration, not a later one.
        if decl[..sig].contains(';') || decl[..sig].contains('\n') {
            continue;
        }
        let name = decl[..sig].trim_end_matches(':').trim().to_string();
        if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') || name.is_empty() {
            continue;
        }
        let rest = &decl[sig + type_sig.len()..];
        let value_text: String = rest
            .chars()
            .take_while(|&c| c != ';')
            .collect::<String>()
            .trim()
            .to_string();
        if let Some(value) = parse_num(&value_text) {
            let line = full[..base + abs].matches('\n').count() + 1;
            out.push((name, value, line));
        }
    }
    out
}

/// Byte offset where the brace-balanced region opened at/after `open`
/// ends (exclusive). Falls back to end-of-text for unbalanced input.
fn brace_region(text: &str, open: usize) -> usize {
    let b = text.as_bytes();
    let mut depth = 0i32;
    let mut started = false;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => {
                depth += 1;
                started = true;
            }
            b'}' => {
                depth -= 1;
                if started && depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    text.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_kind_extraction() {
        let src = "pub mod kind {\n    pub const SIZE: u8 = 0x01;\n    pub const DATA: u8 = 0x02;\n}\npub const CHANNEL_FLAG: u8 = 0x40;\n";
        let kinds = frame_kinds(src);
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0], ("SIZE".to_string(), 1, 2));
        assert_eq!(kinds[1], ("DATA".to_string(), 2, 3));
    }

    #[test]
    fn sec_extraction() {
        let src =
            "const SEC_COUNTERS: u16 = 1;\nconst SEC_LANGS: u16 = 2;\nconst OTHER: u16 = 9;\n";
        let secs = stats_sections(src);
        assert_eq!(secs.len(), 2);
        assert_eq!(secs[0].1, 1);
    }

    #[test]
    fn registry_parser_flags_malformed_lines() {
        let mut out = Vec::new();
        let map = parse_registry("# comment\nframe-kind 0x01 SIZE\nbadline\n", &mut out);
        assert_eq!(map.len(), 1);
        assert_eq!(out.len(), 1);
    }
}
