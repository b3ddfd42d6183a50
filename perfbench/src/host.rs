//! Host-speed control, recorded in every run, traced or not.
//!
//! The benchmark runs on shared virtual machines, where other tenants slow
//! it in three ways: the hypervisor runs someone else on our virtual CPU
//! (`steal` time in `/proc/stat`); a busy sibling hyperthread slows the CPU
//! we do get, as does sharing a physical core between our own two virtual
//! CPUs (no counter shows either, but a fixed computation timed on one and
//! on two threads at the start and the end of the run does); and their traffic takes a share of
//! the last-level cache and memory bandwidth (a copy between arrays larger
//! than the cache, timed at the end, shows it). None of these numbers
//! enters an end-to-end metric; they are printed with the result so that a
//! shift between two sets of runs on the same code can be traced to the
//! host.

use std::time::Instant;

use crate::elapsed_s;
use crate::report::Metrics;

/// Repetitions of the spin loop; the fastest one is the control.
const SPIN_REPS: usize = 7;
/// Rounds of the spin loop: about 5 ms on the recording machine.
const SPIN_ROUNDS: u64 = 1_000_000;

/// Bytes of each array of the copy probe: 128 MiB, above the 105 MiB
/// last-level cache of the recording machine.
const COPY_BYTES: usize = 128 << 20;
/// Repetitions of the copy; the fastest one is the control.
const COPY_REPS: usize = 5;

/// Steal and total CPU time from the aggregate `cpu` line of `/proc/stat`,
/// in clock ticks; `None` where the file is missing or unreadable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time.
    let steal = ticks.get(7).copied()?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Milliseconds of the fastest of [`SPIN_REPS`] runs of a fixed integer
/// computation (a dependent `splitmix64` chain, so it cannot be folded or
/// vectorised): it reads higher when a sibling hyperthread is busy or the
/// CPU clocks down.
fn spin_ms() -> f64 {
    (0..SPIN_REPS)
        .map(|_| spin_once_ms())
        .fold(f64::INFINITY, f64::min)
}

/// One timed run of the spin loop, milliseconds.
fn spin_once_ms() -> f64 {
    let start = Instant::now();
    let mut z = std::hint::black_box(1u64);
    for _ in 0..SPIN_ROUNDS {
        z = crate::mix(z, 1);
    }
    std::hint::black_box(z);
    1e3 * elapsed_s(start)
}

/// GB/s of the fastest of [`COPY_REPS`] single-threaded copies between
/// two [`COPY_BYTES`] arrays (16 B moved per element, as STREAM counts).
fn copy_gbps() -> f64 {
    let len = COPY_BYTES / 8;
    let from = vec![1.0f64; len];
    let mut to = vec![0.0f64; len];
    let best = (0..COPY_REPS)
        .map(|_| {
            let start = Instant::now();
            to.copy_from_slice(std::hint::black_box(&from));
            std::hint::black_box(&to);
            elapsed_s(start)
        })
        .fold(f64::INFINITY, f64::min);
    #[allow(clippy::cast_precision_loss)]
    let gbps = 2.0 * COPY_BYTES as f64 / best.max(1e-12) / 1e9;
    gbps
}

/// Milliseconds of the fastest of [`SPIN_REPS`] runs of the spin loop on
/// two threads at once, the slower thread's time each run. Against
/// [`spin_ms`] it shows whether the two virtual CPUs share a physical core
/// at the moment, which slows every two-threaded phase.
fn spin2_ms() -> f64 {
    (0..SPIN_REPS)
        .map(|_| {
            let threads: Vec<_> = (0..2).map(|_| std::thread::spawn(spin_once_ms)).collect();
            threads
                .into_iter()
                .map(|t| t.join().unwrap_or(f64::INFINITY))
                .fold(0.0, f64::max)
        })
        .fold(f64::INFINITY, f64::min)
}

/// A run's host control, opened at the start of the run.
pub struct HostWatch {
    ticks: Option<(u64, u64)>,
    spin_ms: f64,
    spin2_ms: f64,
}

impl HostWatch {
    /// Reads the CPU tick counters and times the spin loop.
    pub fn start() -> HostWatch {
        HostWatch {
            spin_ms: spin_ms(),
            spin2_ms: spin2_ms(),
            ticks: cpu_ticks(),
        }
    }

    /// Records `host.steal_pct` (steal over all CPU time since
    /// [`HostWatch::start`], both CPUs), `host.spin_ms` (the slower of the
    /// spin controls at the start and at the end), `host.spin2_ms` (the
    /// same on two threads at once) and `host.copy_gbps`.
    /// Call it after reading the peak RSS: the copy probe's arrays would
    /// otherwise count in it.
    pub fn finish(self, metrics: &mut Metrics) {
        let steal_pct = match (self.ticks, cpu_ticks()) {
            #[allow(clippy::cast_precision_loss)]
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        metrics.set("host.steal_pct", steal_pct);
        metrics.set("host.spin_ms", self.spin_ms.max(spin_ms()));
        metrics.set("host.spin2_ms", self.spin2_ms.max(spin2_ms()));
        metrics.set("host.copy_gbps", copy_gbps());
    }
}
