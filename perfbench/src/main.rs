//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//!
//! * `paper_suite` — the 13 Table I circuits at K = 5, partitioned the way
//!   `sfqpart partition` does by default;
//! * `scale_100k` — the S100K synthetic tier at K = 30, refinement on;
//! * `service_mix` — an in-process `sfqpartd` under an open-loop mix of
//!   healthy and faulty jobs, then a rate ladder;
//! * `scale_1m` — the S1M tier at K = 30, refinement off. It is not in
//!   `BENCHMARK.json` (its runs do not fit the benchmark's time budget next
//!   to the other three); run it by hand for work on DRAM-bound sweeps.
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! every per-layer metric, from spans recorded around each call into the
//! system (written to `perfbench/out/`). Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Inputs derive from `--seed` alone.

mod host;
mod observe;
mod probe;
mod report;
mod service;
mod solve;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use report::{Checks, Metrics, END_TO_END, PER_LAYER};
use solve::SolveWorkload;

const USAGE: &str = "usage: perfbench --workload paper_suite|scale_100k|service_mix|scale_1m \
                     --seed N --seconds S --trace 0|1";

/// Directory (relative to the working directory) the traced run writes
/// its spans to.
const SPAN_DIR: &str = "perfbench/out";

/// Seconds since `start`.
pub fn elapsed_s(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Timed set-up a run repeats at least, seconds. One set-up takes
/// milliseconds, and on a shared host the speed of a millisecond-scale
/// task swings by half between spells of a second or more; the median of
/// repetitions spread over several such spells is steady.
const SETUP_TIMED_S: f64 = 2.0;
/// Fewest set-up repetitions.
const SETUP_MIN_REPS: usize = 5;
/// Wall time after which set-up stops repeating once it has its fewest
/// repetitions, however little of it was timed (retiring a set-up is not).
const SETUP_WALL_S: f64 = 5.0;
/// Most set-up repetitions.
const SETUP_MAX_REPS: usize = 2000;

/// Runs `setup` repeatedly, retiring each result but the last with
/// `retire` (untimed), until the timed repetitions add up to
/// [`SETUP_TIMED_S`] (within the limits above). Returns the median
/// repetition (`setup_s`) and the last result.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T),
) -> Result<(f64, T), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS
            && times.iter().sum::<f64>() < SETUP_TIMED_S
            && elapsed_s(started) < SETUP_WALL_S)
    {
        if let Some(previous) = last.take() {
            retire(previous);
        }
        let start = Instant::now();
        let made = std::hint::black_box(setup()?);
        times.push(elapsed_s(start));
        last = Some(made);
    }
    let times = stats::sorted(times);
    let median = stats::median(&times).unwrap_or(0.0);
    eprintln!(
        "set-up: {} repetitions, median {median:.6} s, fastest {:.6} s, slowest {:.6} s",
        times.len(),
        times.first().copied().unwrap_or(0.0),
        times.last().copied().unwrap_or(0.0)
    );
    last.map(|made| (median, made))
        .ok_or_else(|| String::from("set-up never ran"))
}

/// `splitmix64` of `seed` combined with a stream index: every derived seed
/// (circuits, solver seeds, job mix, schedule) comes from here.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        let bad = |what: &str| format!("`{flag}` wants {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::HostWatch::start();
    let (mut metrics, checks, tracer): (Metrics, Checks, spans::Tracer) =
        match args.workload.as_str() {
            "paper_suite" => solve::run(
                SolveWorkload::PaperSuite,
                args.seed,
                args.seconds,
                args.trace,
            ),
            "scale_100k" => solve::run(
                SolveWorkload::Scale100k,
                args.seed,
                args.seconds,
                args.trace,
            ),
            "scale_1m" => solve::run(SolveWorkload::Scale1m, args.seed, args.seconds, args.trace),
            "service_mix" => service::run(args.seed, args.seconds, args.trace),
            other => {
                eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        };
    metrics.set("peak_rss_mib", peak_rss_mib());
    host.finish(&mut metrics);
    #[allow(clippy::cast_precision_loss)]
    let ok_pct = 100.0 * (1.0 - checks.failed as f64 / checks.attempted.max(1) as f64);
    metrics.set("ok_pct", ok_pct);

    if args.trace {
        let path = format!("{SPAN_DIR}/spans-{}-{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!("wrote {} spans to {path}", tracer.spans().len()),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }

    for reason in checks.failures.iter().take(20) {
        eprintln!("check failed: {reason}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} seed {} ({} s{}): {} of {} operations failed (fail_frac {:.6})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        checks.failed,
        checks.attempted,
        1.0 - ok_pct / 100.0
    );
    for &(name, unit) in table {
        println!(
            "  {name:<28} {:>16.6} {unit}",
            metrics.get(name).unwrap_or(0.0)
        );
    }
    for (name, value) in metrics.iter() {
        if !table.iter().any(|&(n, _)| n == name) {
            println!("  {name:<28} {value:>16.6}");
        }
    }
    println!("{}", report::result_line(table, &metrics, &checks));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_setup_retires_all_but_the_last() {
        let mut made = 0;
        let mut retired = Vec::new();
        let (median, last) = repeat_setup(
            || {
                made += 1;
                Ok(made)
            },
            |old| retired.push(old),
        )
        .expect("set-up succeeds");
        assert!((SETUP_MIN_REPS..=SETUP_MAX_REPS).contains(&made));
        assert_eq!(last, made);
        assert_eq!(retired, (1..made).collect::<Vec<_>>());
        assert!(median >= 0.0);
    }

    #[test]
    fn repeat_setup_stops_at_the_first_error() {
        let mut calls = 0;
        let out: Result<(f64, ()), String> = repeat_setup(
            || {
                calls += 1;
                Err(String::from("no"))
            },
            drop,
        );
        assert_eq!(out.map(|_| ()), Err(String::from("no")));
        assert_eq!(calls, 1);
    }
}
