//! Self-test of the benchmark: every workload runs in a short mode and
//! must print each metric named in `BENCHMARK.json` with its unit, and a
//! planted wrong expected result must be counted as a failed operation.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// result line).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected {:?} at {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// Names and units of one metric list of `BENCHMARK.json`.
fn metric_units(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn workloads(spec: &Json) -> Vec<String> {
    spec.get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

/// Run the benchmark binary in a scratch directory (traced runs write
/// their span files under the working directory).
fn perfbench(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    std::fs::create_dir_all(&dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run perfbench")
}

/// Run one short workload and return its parsed result line.
fn short_run(workload: &str, trace: &str, extra: &[&str]) -> Json {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    let out = perfbench(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last);
    let keys: Vec<&String> = result.obj().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(result.get("attempted").num() >= 1.0);
    result
}

/// The printed metrics must be exactly the named ones, each with its unit.
fn assert_metrics(result: &Json, expected: &BTreeMap<String, String>, nonzero: bool) {
    let metrics = result.get("metrics").obj();
    let printed: Vec<&String> = metrics.keys().collect();
    let named: Vec<&String> = expected.keys().collect();
    assert_eq!(printed, named, "printed metrics differ from BENCHMARK.json");
    for (name, unit) in expected {
        let m = metrics[name].obj();
        assert_eq!(m["unit"].str(), unit, "unit of {name}");
        let v = m["value"].num();
        assert!(v.is_finite(), "{name} = {v}");
        if nonzero {
            assert!(v > 0.0, "end-to-end metric {name} reads {v}");
        }
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let spec = benchmark_json();
    let e2e = metric_units(&spec, "end_to_end");
    for w in workloads(&spec) {
        let result = short_run(&w, "0", &[]);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{w}");
        assert_eq!(result.get("failed").num(), 0.0, "{w}");
        assert_metrics(&result, &e2e, true);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let spec = benchmark_json();
    let layers = metric_units(&spec, "per_layer");
    for w in workloads(&spec) {
        let result = short_run(&w, "1", &[]);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{w}");
        assert_metrics(&result, &layers, false);
    }
}

#[test]
fn a_planted_wrong_expected_result_is_a_failed_operation() {
    let spec = benchmark_json();
    for w in workloads(&spec) {
        let result = short_run(&w, "0", &["--plant-mismatch", "1"]);
        assert_eq!(result.get("correct"), &Json::Bool(false), "{w}");
        assert!(result.get("failed").num() >= 1.0, "{w}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "inproc-paper8", "--seed", "1", "--trace", "0"][..],
        &[
            "--workload",
            "inproc-paper8",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "inproc-paper8",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
