//! `natoms tolerance` end to end: its report line at two fixed points,
//! recorded when every trial compiled its own strategy state.

use std::process::{Command, Output};

fn natoms(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_natoms"))
        .args(args)
        .output()
        .expect("natoms runs")
}

#[test]
fn tolerance_lines_are_pinned() {
    let cases = [
        (
            &["--benchmark", "cnu", "--mid", "3", "--seed", "7"][..],
            "c. small+reroute on CNU (29 qubits, MID 3): sustains 61.1% +/- 6.3% of the device\n",
        ),
        (
            &[
                "--benchmark",
                "cuccaro",
                "--mid",
                "4",
                "--strategy",
                "recompile",
            ],
            "recompile on Cuccaro (30 qubits, MID 4): sustains 67.9% +/- 4.5% of the device\n",
        ),
    ];
    for (flags, line) in cases {
        let out = natoms(&[&["tolerance", "--size", "30", "--trials", "10"], flags].concat());
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), line);
    }
}
