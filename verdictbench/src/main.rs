//! verdictbench: the time-to-verdict benchmark's measuring binary.
//!
//! ```text
//! verdictbench --workload <fresh-corpus|wan-audit|edit-serve> --seed N
//!              --seconds S --trace <0|1> [--lightyear PATH] [--work-dir DIR]
//! ```
//!
//! Runs one workload and prints its raw record (samples, counts, facts)
//! as one JSON line; `run.py` builds this binary and the `lightyear`
//! daemon, adds provenance and reduces the record to the named metrics.
//! Exits 1 when any answer differs from the known answer.

mod edits;
mod fresh;
mod http;
mod record;
mod render;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `lightyear` binary (`edit-serve` starts it as the daemon).
    pub lightyear: Option<PathBuf>,
    /// Where the daemon may write (its flight-recorder dump).
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        lightyear: None,
        work_dir: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--lightyear" => args.lightyear = Some(PathBuf::from(value()?)),
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verdictbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rec = match args.workload.as_str() {
        // Set-up repetitions, whose median is `setup_s`: a corpus set-up
        // takes ~0.3 s and a WAN set-up ~20 ms, and the shorter a set-up,
        // the more one burst of host load moves its timing.
        "fresh-corpus" => fresh::run(&args, fresh::corpus_items, fresh::CORPUS_PASS, 7),
        "wan-audit" => fresh::run(&args, fresh::wan_items, 1, 9),
        "edit-serve" => match serve::run(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("verdictbench: edit-serve: {e}");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("verdictbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        serde_json::to_string(&rec.to_value()).expect("record serializes")
    );
    if rec.wrong > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
