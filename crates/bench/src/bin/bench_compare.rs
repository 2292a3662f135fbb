//! Compares a fresh bench run against a committed baseline and fails
//! (exit 1) when any pipeline stage regressed beyond the threshold.
//!
//! ```text
//! bench_compare <base.json> <fresh.json> [--max-ratio 1.5]
//! ```
//!
//! Both files are `BENCH_*.json` baselines written by the criterion shim.
//! Entries are matched by full label; fresh/base median ratios are
//! aggregated as a geometric mean per stage (the `<stage>` segment of
//! `pipeline/<stage>/<variant>` labels). This is the CI bench smoke gate:
//! deliberately coarse (1.5x by default) so shared-runner noise does not
//! flap, while a real stage-wide regression still fails the build.
//!
//! Every baseline entry must have a fresh match: a missing one (a renamed
//! or deleted bench) exits 2 and is named. Fresh-only entries are ignored.

use bench::baseline::{compare, missing, parse_baseline};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut max_ratio = 1.5f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-ratio" => {
                i += 1;
                max_ratio = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) if v > 0.0 => v,
                    _ => {
                        eprintln!("--max-ratio needs a positive number");
                        return ExitCode::from(2);
                    }
                };
            }
            other => paths.push(other),
        }
        i += 1;
    }
    let [base_path, fresh_path] = paths.as_slice() else {
        eprintln!("usage: bench_compare <base.json> <fresh.json> [--max-ratio 1.5]");
        return ExitCode::from(2);
    };

    let base = match std::fs::read_to_string(base_path) {
        Ok(t) => parse_baseline(&t),
        Err(e) => {
            eprintln!("cannot read baseline {base_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let fresh = match std::fs::read_to_string(fresh_path) {
        Ok(t) => parse_baseline(&t),
        Err(e) => {
            eprintln!("cannot read fresh run {fresh_path}: {e}");
            return ExitCode::from(2);
        }
    };
    if base.is_empty() || fresh.is_empty() {
        eprintln!(
            "no parsable entries (base: {}, fresh: {})",
            base.len(),
            fresh.len()
        );
        return ExitCode::from(2);
    }

    let absent = missing(&base, &fresh);
    if !absent.is_empty() {
        for name in &absent {
            eprintln!("baseline entry missing from the fresh run: {name}");
        }
        eprintln!(
            "{} baseline entries have no fresh match; edit the baseline file if a bench was renamed or removed",
            absent.len()
        );
        return ExitCode::from(2);
    }

    let comparisons = compare(&base, &fresh);
    if comparisons.is_empty() {
        eprintln!("no entries matched between baseline and fresh run");
        return ExitCode::from(2);
    }

    println!("{:<20} {:>8} {:>14}", "stage", "matched", "geomean ratio");
    let mut regressed = false;
    for c in &comparisons {
        let flag = if c.geomean_ratio > max_ratio {
            regressed = true;
            "  <-- REGRESSION"
        } else {
            ""
        };
        println!(
            "{:<20} {:>8} {:>13.3}x{flag}",
            c.stage, c.matched, c.geomean_ratio
        );
    }
    if regressed {
        eprintln!("at least one stage exceeded the {max_ratio}x gate");
        ExitCode::FAILURE
    } else {
        println!("all stages within the {max_ratio}x gate");
        ExitCode::SUCCESS
    }
}
