//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|tune-cold|tune-warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets up the seeded inputs, drives one workload as a closed loop
//! (one client, one call in flight) for at least `--seconds`, checks every
//! output against a sequential oracle outside the timed window, and prints
//! one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! See `perfbench/README.md` for the workloads, the metric definitions and
//! which layer metric should move which end-to-end metric.

mod check;
mod drive;
mod report;
mod stats;
mod suite;
mod sweep;
mod trace;
mod tune;

use report::Outcome;

/// Variables that change what the program does. The benchmark always runs
/// the default configuration, so none is inherited.
const PINNED_ENV: [&str; 4] = [
    "HPAC_THREADS",
    "HPAC_TRACE",
    "HPAC_TUNER_CACHE",
    "HPAC_SERVICE_QUEUE",
];

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sweep,
    TuneCold,
    TuneWarm,
}

pub struct Args {
    pub workload: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <sweep|tune-cold|tune-warm> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "sweep" => Kind::Sweep,
                    "tune-cold" => Kind::TuneCold,
                    "tune-warm" => Kind::TuneWarm,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// fnv1a over every file under `crates/` (sorted by path) and the
/// workspace manifest and lock file: names the code under test even where
/// the checkout carries no git metadata.
fn source_digest() -> Option<String> {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files).ok()?;
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).ok()?;
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    Some(format!("{h:016x}"))
}

/// The checkout's commit, when it is a git work tree of its own.
fn git_commit() -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    // Single-threaded here: nothing has read the environment yet.
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {:?}, seed {}, {} s, trace {}; nproc {nproc}, engine width {}, \
         commit {}, source {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        hpac_core::exec::engine().default_width(),
        git_commit().as_deref().unwrap_or("none"),
        source_digest().as_deref().unwrap_or("unknown"),
    );
    let outcome: Outcome = match args.workload {
        Kind::Sweep => sweep::run(&args),
        Kind::TuneCold | Kind::TuneWarm => tune::run(&args),
    };
    outcome.print_failures();
    println!("{}", outcome.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload tune-warm --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Kind::TuneWarm);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload bogus --seed 1 --seconds 1").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 0").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload sweep --seconds 1").is_err());
    }
}
