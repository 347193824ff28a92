//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! --suite [--traced] [--seed n] [--seconds s] [--out file]   every workload, each in its own process
//! --layers [--seed n]                                        the per-crate probes alone
//! --aa [--seed n] [--seconds s]                              the suite twice, interleaved, compared
//! --diff <a.json> <b.json>                                   the same comparison of two saved suites
//! --seed-test [--seed n]                                     same seed, same run; other seed, other run
//! --manifest | --metric-table                                print BENCHMARK.json | the README layer table
//! ```

mod estimator;
mod layers;
mod metrics;
mod reference;
mod run;
mod spans;
mod suite;
mod sys;
mod workload;

use std::process::ExitCode;

/// Command-line options; every mode reads the ones it knows.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: Option<String>,
}

enum Mode {
    Workload(String),
    Suite,
    Layers,
    Aa,
    Diff(String, String),
    SeedTest,
    Manifest,
    MetricTable,
}

fn parse(args: &[String]) -> Result<(Mode, Opts), String> {
    let mut opts = Opts {
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        traced: false,
        out: None,
    };
    let mut mode = None;
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => mode = Some(Mode::Workload(value(flag, &mut it)?)),
            "--suite" => mode = Some(Mode::Suite),
            "--layers" => mode = Some(Mode::Layers),
            "--aa" => mode = Some(Mode::Aa),
            "--seed-test" => mode = Some(Mode::SeedTest),
            "--manifest" => mode = Some(Mode::Manifest),
            "--metric-table" => mode = Some(Mode::MetricTable),
            "--diff" => mode = Some(Mode::Diff(value(flag, &mut it)?, value(flag, &mut it)?)),
            "--traced" => opts.traced = true,
            "--out" => opts.out = Some(value(flag, &mut it)?),
            "--seed" => {
                opts.seed = value(flag, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value(flag, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.traced = match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    mode.map(|m| (m, opts))
        .ok_or_else(|| "one of --workload, --suite, --layers, --aa, --diff, --seed-test, --manifest, --metric-table".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("mdgan-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    let ok = match mode {
        Mode::Workload(name) => match workload::find(&name) {
            Some(w) => run::workload(&w, &opts),
            None => {
                eprintln!("mdgan-benchmark: no workload named {name}");
                return ExitCode::from(2);
            }
        },
        Mode::Layers => run::layers_only(&opts),
        Mode::SeedTest => run::seed_test(&opts),
        Mode::Suite => suite::suite(&opts),
        Mode::Aa => suite::aa(&opts),
        Mode::Diff(a, b) => suite::diff(&a, &b),
        Mode::Manifest => {
            print!("{}", metrics::manifest_json());
            true
        }
        Mode::MetricTable => {
            print!("{}", metrics::layer_table());
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
