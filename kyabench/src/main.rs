//! The repository benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path kyabench/Cargo.toml -- \
//!     --workload flat-1m|check-full|census-exact --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints notes (host, aliases, failure ratio) and, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A traced run also writes its spans to `kyabench/out/`.

use kyabench::{run, RunArgs, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: kyabench --workload flat-1m|check-full|census-exact --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::full(),
        trace_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kyabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
