//! `gatherbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run's stamp and a human-readable summary, then, as the
//! last line of stdout, the result object: `correct`, `attempted`,
//! `failed` and the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). Exits 1 when any output failed verification, 2 on a
//! usage error.

use std::process::ExitCode;

use gatherbench::report::{result_line, END_TO_END, PER_LAYER};
use gatherbench::{run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!("stamp {}", outcome.stamp.to_json());
    for line in &outcome.summary {
        println!("# {line}");
    }
    for miss in &outcome.checks.misses {
        eprintln!("verification miss: {miss}");
    }
    let (registry, values) = if args.trace {
        (&PER_LAYER[..], &outcome.layers)
    } else {
        (&END_TO_END[..], &outcome.e2e)
    };
    for &(name, unit) in registry {
        println!("# {name} = {} {unit}", values.get(name).copied().unwrap_or(f64::NAN));
    }
    let failed_frac = outcome.checks.failed as f64 / outcome.checks.attempted.max(1) as f64;
    println!(
        "# failed_frac = {failed_frac} ({} of {})",
        outcome.checks.failed, outcome.checks.attempted
    );
    let (line, failed) =
        result_line(outcome.checks.attempted, outcome.checks.failed, registry, values);
    println!("{line}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
