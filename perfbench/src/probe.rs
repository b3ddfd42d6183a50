//! Layer probes run in the traced pass only: the bare descent kernel on a
//! workload's largest problem, and a STREAM copy/triad bandwidth probe that
//! serves as its roofline.

use std::time::Instant;

use sfq_partition::{CostEngine, CostWeights, EngineOptions, PartitionProblem, WeightMatrix};

use crate::elapsed_s;
use crate::report::Metrics;
use crate::stats::{median, sorted};

/// Last-level cache size assumed when the kernel does not report one (the
/// L3 of the machine the baseline was recorded on).
const DEFAULT_LLC_BYTES: usize = 105 << 20;
/// STREAM arrays are at least this many times the last-level cache, so
/// neither array survives in it between sweeps.
const LLC_MULTIPLE: usize = 4;
/// STREAM repetitions; the best one is the bandwidth, as in STREAM.
const STREAM_REPS: usize = 5;

/// Times `CostEngine::new` and `iterations` bare descent iterations
/// (`evaluate_with_gradient` + `descend_scaled`, the solver's kernel pair,
/// with the solver's default weights and exponent) on `problem`.
///
/// `engine.bytes_per_iter` is computed, not measured: the six G·stride·8 B
/// weight-matrix sweeps of one iteration (gate pass reads w; gradient pass
/// reads w and writes grad; descend reads w and grad and writes w) plus one
/// read of the CSR adjacency, 4·(G + 1) + 4·2E bytes.
pub fn engine(problem: &PartitionProblem, iterations: usize, metrics: &mut Metrics) {
    let build = Instant::now();
    let mut engine = CostEngine::new(
        problem,
        CostWeights::default(),
        4.0,
        EngineOptions::default(),
    );
    metrics.set("engine.build_ms", 1e3 * elapsed_s(build));

    let mut w = WeightMatrix::uniform(problem.num_gates(), problem.num_planes());
    let mut grad = vec![0.0; w.padded_len()];
    // One untimed iteration touches every buffer first.
    std::hint::black_box(engine.evaluate_with_gradient(&w, &mut grad));
    w.descend_scaled(&grad, 0.05);
    let mut samples = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        let cost = engine.evaluate_with_gradient(std::hint::black_box(&w), &mut grad);
        std::hint::black_box(cost.total);
        w.descend_scaled(&grad, 0.05);
        samples.push(elapsed_s(start));
    }
    std::hint::black_box(&w);
    let iter_s = median(&sorted(samples)).unwrap_or(0.0);
    let (g, e) = (problem.num_gates(), problem.num_edges());
    let bytes = 6 * g * w.stride() * 8 + 4 * (g + 1) + 8 * e;
    #[allow(clippy::cast_precision_loss)]
    let gbps = bytes as f64 / iter_s.max(1e-12) / 1e9;
    metrics.set("engine.iter_ms", 1e3 * iter_s);
    metrics.set_count("engine.bytes_per_iter", bytes as u64);
    metrics.set("engine.gbps", gbps);
    if let Some(triad) = metrics.get("mem.triad_gbps") {
        metrics.set("engine.roofline_frac", gbps / triad);
    }
}

/// Last-level cache size from sysfs, or [`DEFAULT_LLC_BYTES`].
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|index| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (digits, scale) = match size.strip_suffix('K') {
                Some(d) => (d, 1 << 10),
                None => match size.strip_suffix('M') {
                    Some(d) => (d, 1 << 20),
                    None => (size, 1),
                },
            };
            Some((
                level.trim().parse::<u32>().ok()?,
                digits.parse::<usize>().ok()? * scale,
            ))
        })
        .max()
        .map_or(DEFAULT_LLC_BYTES, |(_, bytes)| bytes)
}

/// Single-threaded STREAM copy (`c = a`) and triad (`a = b + s·c`) on
/// arrays of at least [`LLC_MULTIPLE`] × the last-level cache each. The
/// descent runs on one thread, so one thread's bandwidth is its roofline.
/// Copy moves 16 B and triad 24 B per element (write-allocate traffic not
/// counted, as in STREAM). Records both sizes.
pub fn stream(metrics: &mut Metrics) {
    let llc = llc_bytes();
    let len = LLC_MULTIPLE * llc / 8;
    let mut a = vec![1.0f64; len];
    let b = vec![2.0f64; len];
    let mut c = vec![0.0f64; len];
    let mut copy_best = f64::INFINITY;
    let mut triad_best = f64::INFINITY;
    for rep in 0..STREAM_REPS {
        let start = Instant::now();
        c.copy_from_slice(std::hint::black_box(&a));
        copy_best = copy_best.min(elapsed_s(start));
        let scalar = 3.0 + f64::from(u32::try_from(rep).unwrap_or(0));
        let start = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + scalar * z;
        }
        triad_best = triad_best.min(elapsed_s(start));
        std::hint::black_box(&a);
    }
    #[allow(clippy::cast_precision_loss)]
    let (bytes, mib) = (len as f64 * 8.0, |n: usize| {
        n as f64 / f64::from(1u32 << 20)
    });
    metrics.set("mem.copy_gbps", 2.0 * bytes / copy_best / 1e9);
    metrics.set("mem.triad_gbps", 3.0 * bytes / triad_best / 1e9);
    metrics.set("mem.array_mib", mib(len * 8));
    metrics.set("mem.llc_mib", mib(llc));
}
