//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, checks every answer, writes metadata, metrics and
//! (traced runs) spans to `.bench_out/`, prints the metadata line and, as
//! the last line, the result object. Exits non-zero without a result when
//! an answer is wrong or a run fails.

use std::process::ExitCode;

use tricount_perfbench::count::{self, CountSpec};
use tricount_perfbench::{serve, Args, Workload};

const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload count-rgg|count-gnm|serve-rmat --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Workload::CountRgg => count::run(&CountSpec::RGG, &args),
        Workload::CountGnm => count::run(&CountSpec::GNM, &args),
        Workload::ServeRmat => serve::run(&args),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: check failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let line = match report.result_line(args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, report.file_json() + "\n"))
    {
        eprintln!("perfbench: writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("meta {}", report.meta.render());
    println!("wrote {path}");
    println!("{line}");
    ExitCode::SUCCESS
}
