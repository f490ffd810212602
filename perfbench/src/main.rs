//! Command line of the broker-line benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints, per workload, a table of every metric with its unit, a line of
//! host and run facts, and the JSON result, which for a single workload is
//! the last line. Exits 1 when a check failed and 2 on a usage error.

use perfbench::report::{facts_line, result_line};
use perfbench::run::{run, RunConfig};
use perfbench::spec::{Spec, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <line_single|line_batch|churn|shared_batch|all> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         default seed {DEFAULT_SEED}; re-check claims on the held-out seed {HELD_OUT_SEED}"
    )
}

/// The runs the arguments ask for: one, or every workload for `all`.
fn parse(args: &[String]) -> Result<Vec<RunConfig>, String> {
    let mut workloads = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workloads =
                    Some(vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?])
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok(workloads
        .into_iter()
        .map(|workload| RunConfig {
            spec: Spec::full(workload),
            seed,
            seconds,
            trace,
            inject_mismatch: false,
            span_file: trace.then(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("traces")
                    .join(format!("{}-seed{seed}.tsv", workload.name()))
            }),
        })
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let configs = match parse(&args) {
        Ok(configs) => configs,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for config in &configs {
        if configs.len() > 1 {
            println!("== {}", config.spec.workload.name());
        }
        let outcome = run(config);
        for m in outcome.metrics.iter().chain(&outcome.extra) {
            println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for problem in &outcome.problems {
            eprintln!("check failed: {problem}");
        }
        println!("{}", facts_line(&outcome.facts));
        println!(
            "{}",
            result_line(
                outcome.correct(),
                outcome.attempted,
                outcome.failed,
                &outcome.metrics
            )
        );
        all_correct &= outcome.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
