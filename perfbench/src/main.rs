//! Host-time benchmark for `dirsim`: how long it takes to push a trace
//! through the 16-scheme lineup, or to run a grid of such cells.
//!
//! Three workloads (see `README.md` for why each exists):
//!
//! * `corpus` — a DTR3 corpus read through `open_trace` into one
//!   `BroadcastSimulator::run` over the 16 schemes (the `simulate` path);
//! * `grid` — the paper grid's 48 cells through `run_sweep` into a fresh
//!   `Store`, two workers;
//! * `wide` — the 16 schemes over a 128-CPU scenario streamed from synth,
//!   finite 32x4 caches, past the table-kernel cache limit.
//!
//! Two subcommands, each run as its own process by `run.py`:
//!
//! ```text
//! perfbench fixture --workload W --seed N --work DIR
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --work DIR
//!               [--rustc VERSION] [--commit SHA]
//! ```
//!
//! `fixture` builds the seed's inputs and the match-machine oracle's
//! digests, outside every metric. `run` measures: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics. Its last
//! stdout line is the result object.

mod check;
mod fixture;
mod host;
mod layers;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use dirsim_obs::Json;
use workload::Workload;

/// Parsed command line.
struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing subcommand (fixture | run)")?;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work = None;
    let mut rustc = "unknown".to_string();
    let mut commit = "unknown".to_string();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--work" => work = Some(PathBuf::from(value)),
            "--rustc" => rustc = value,
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        work: work.ok_or("missing --work")?,
        rustc,
        commit,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "fixture" => fixture::build(args.workload, args.seed, &args.work),
        "run" => {
            let inputs = fixture::Inputs::existing(args.workload, args.seed, &args.work)?;
            let provenance =
                host::provenance(args.workload, args.seed, &args.rustc, &args.commit, &inputs);
            let outcome = if args.trace {
                layers::measure(args.workload, &inputs, args.seconds)?
            } else {
                workload::measure(args.workload, &inputs, args.seconds)?
            };
            for record in outcome.records {
                let Json::Obj(mut pairs) = record else {
                    unreachable!("records are objects")
                };
                pairs.push(("provenance".into(), provenance.clone()));
                println!("{}", Json::Obj(pairs).to_string_compact());
            }
            println!("{}", outcome.result.to_string_compact());
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
