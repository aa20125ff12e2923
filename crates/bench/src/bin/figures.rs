//! `figures [ids…] [--jsonl]` — regenerates the paper's evaluation
//! and checks its claims (see `na_bench::run`).

fn main() -> std::process::ExitCode {
    na_bench::run(std::env::args().skip(1))
}
