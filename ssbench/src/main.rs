//! `ssbench` — the repository benchmark. One run generates a workload's
//! inputs from its seed, sets the engine up, checks the program's answers
//! against a shadow engine, then alternates timed set-ups with shares of
//! the load for the requested seconds and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path ssbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs each share
//! of the load untraced and then traced, replays the traced work through
//! the layer functions, and prints the per-layer metrics (plus the tracing
//! overhead: traced minus untraced end-to-end numbers). See `NOTES.md`
//! for why each workload exists and what each metric should move.

mod discover;
mod engine;
mod http;
mod inputs;
mod metrics;
mod serve;
mod stats;
mod trace;

use metrics::Metric;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeRead,
    BatchDiscover,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_read" => Some(Workload::ServeRead),
            "batch_discover" => Some(Workload::BatchDiscover),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve_read",
            Workload::BatchDiscover => "batch_discover",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn served(self) -> bool {
        self != Workload::BatchDiscover
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: ssbench --workload <serve_read|batch_discover|serve_mixed> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|&s| s > 0),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        trace: trace.unwrap_or(false),
    })
}

/// The last line of standard output.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ssbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match metrics::run(&args) {
        Ok(report) => {
            println!(
                "{}",
                result_line(true, report.tally.attempted, report.tally.failed, &report.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("ssbench: FAILED: {why}");
            println!("{}", result_line(false, 0, 0, &[]));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_mixed --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ServeMixed, 9, 10, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve_read --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve_read --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload serve_read --seconds 1").is_err());
        assert!(args("--workload serve_read --seed 1 --seconds 1 --bogus 1").is_err());
    }

    #[test]
    fn result_line_shape() {
        let metrics = [Metric { name: "a_s", value: 1.25, unit: "s" }];
        assert_eq!(
            result_line(true, 3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
