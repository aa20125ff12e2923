//! `natoms trace <file> | head -1`: a reader that closes the pipe
//! early must end the summary quietly (exit 0), not panic on the
//! broken pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// A trace of `n` sibling spans under one job: enough `--top` rows
/// that the summary overflows any pipe buffer.
fn wide_trace(n: usize) -> String {
    let mut events = vec![
        r#"{"name":"job","cat":"job","ph":"B","ts":0.0,"pid":1,"tid":1,"args":{"id":1,"job":0}}"#
            .to_string(),
    ];
    for i in 0..n {
        let (b, e) = (1 + 2 * i, 2 + 2 * i);
        events.push(format!(
            r#"{{"name":"lower","cat":"pass","ph":"B","ts":{b}.0,"pid":1,"tid":1,"args":{{"id":{},"parent":1}}}}"#,
            i + 2
        ));
        events.push(format!(
            r#"{{"name":"lower","cat":"pass","ph":"E","ts":{e}.0,"pid":1,"tid":1}}"#
        ));
    }
    events.push(format!(
        r#"{{"name":"job","cat":"job","ph":"E","ts":{}.0,"pid":1,"tid":1}}"#,
        2 * n + 1
    ));
    format!("[{}]", events.join(",\n"))
}

#[test]
fn trace_summary_survives_a_closed_stdout() {
    let spans = 5_000;
    let path = std::env::temp_dir().join(format!("natoms_trace_pipe_{}.json", std::process::id()));
    std::fs::write(&path, wide_trace(spans)).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_natoms"))
        .args(["trace", path.to_str().unwrap(), "--top"])
        .arg(spans.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("natoms runs");
    // Read the first line, then hang up like `head -1`.
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&path).ok();

    assert!(
        first.contains("unmatched begin/end"),
        "first line: {first:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?} on a closed stdout; stderr: {stderr}",
        out.status.code()
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
