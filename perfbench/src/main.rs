//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the workload's metrics as the last line of standard output
//! (one JSON object) and exits 0, or names the failed correctness check
//! on standard error and exits 1 without printing a result.

use perfbench::cli::{Args, USAGE};
use perfbench::layers::PER_LAYER;
use perfbench::report::END_TO_END;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    match perfbench::run(&args).and_then(|r| r.check_against(spec).map(|()| r)) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}
