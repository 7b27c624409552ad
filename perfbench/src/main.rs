//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload select-heap --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Each invocation runs one workload of
//! `BENCHMARK.json` in its own process over the fixed corpus, with the
//! query stream (and the traced serve pass's write schedule) drawn from
//! `--seed`; it checks the engines' answers, prints the tables, and
//! prints as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`. It exits nonzero if any
//! answer was wrong. Scratch files go under `.perfbench_work/`; span
//! dumps of traced runs stay in `.perfbench_work/traces/`.

mod inputs;
mod layers;
mod measure;
mod report;
mod select;
mod serve;
#[cfg(test)]
mod tests;
mod trace;

use inputs::Sizes;
use layers::Catalogue;
use select::Cfg;
use std::path::PathBuf;
use std::process::ExitCode;

const WORK_DIR: &str = ".perfbench_work";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let cat = match Catalogue::load() {
        Ok(cat) => cat,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(seed) = get("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed <n> is required");
    };
    if args.first().map(String::as_str) == Some("prep-snapshot") {
        // Child mode of select-paged: write the snapshot, print the save
        // time.
        let Some(out) = get("--out") else {
            return usage("prep-snapshot needs --out <path>");
        };
        return match select::prep_snapshot(seed, Sizes::BENCH, &PathBuf::from(out)) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = get("--workload").filter(|w| cat.workloads.iter().any(|n| n == w)) else {
        return usage(&format!(
            "--workload must name one of: {}",
            cat.workloads.join(", ")
        ));
    };
    let Some(seconds) = get("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("--seconds <s> must be positive");
    };
    let trace = match get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };

    let root = PathBuf::from(WORK_DIR);
    let work = root.join(format!("{workload}-{}", std::process::id()));
    let traces = root.join("traces");
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|()| std::fs::create_dir_all(&traces)) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let cfg = Cfg {
        seed,
        seconds,
        trace,
        sizes: Sizes::BENCH,
        work: work.clone(),
        trace_stem: traces.join(format!("{workload}-seed{seed}")),
    };
    let outcome = match workload {
        "select-heap" => select::heap(&cfg),
        "select-paged" => select::paged(&cfg),
        other => Err(format!("no runner for workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(out) => {
            out.print(&cat, workload, trace);
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{workload} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
