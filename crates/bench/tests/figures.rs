//! The `figures` binary end to end, on its two cheapest figures.

use na_engine::RunRecord;
use std::collections::HashSet;
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs")
}

#[test]
fn jsonl_mode_writes_only_json_rows_with_unique_ids() {
    for id in ["validation_mid1", "ext_native_arity"] {
        let out = figures(&[id, "--jsonl"]);
        assert!(
            out.status.success(),
            "{id}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let mut ids = HashSet::new();
        for line in stdout.lines() {
            let row: RunRecord = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("{id}: not a JSON row ({e}): {line:?}"));
            assert!(ids.insert(row.id), "{id}: duplicate row id {}", row.id);
        }
        assert!(!ids.is_empty(), "{id}: no rows");
    }
}

#[test]
fn usage_errors_exit_2_naming_the_ids() {
    for arg in ["nosuch", "--bogus"] {
        let out = figures(&[arg]);
        assert_eq!(out.status.code(), Some(2), "{arg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: figures"), "{stderr}");
        assert!(stderr.contains("validation_mid1"), "{stderr}");
        assert!(out.stdout.is_empty());
    }
}
