//! The three solve workloads: `paper_suite`, `scale_100k` and `scale_1m`.
//!
//! Each partitions its inputs the way `sfqpart partition` does — DEF parse
//! (Table I circuits only) → problem → solve → metrics → recycling plan —
//! in a closed loop, one input after another, for the run's measuring time.

use std::collections::BTreeMap;
use std::time::Instant;

use sfq_cells::CellLibrary;
use sfq_circuits::registry::{generate, Benchmark};
use sfq_circuits::scale::{scale_problem, ScaleProblem, ScaleSpec, ScaleTier};
use sfq_def::{parse_def, write_def};
use sfq_partition::{PartitionMetrics, PartitionProblem, SolveResult, Solver, SolverOptions};
use sfq_recycle::{RecycleOptions, RecyclingPlan};

use crate::observe::SolveMarks;
use crate::probe;
use crate::report::{Checks, Metrics};
use crate::spans::{self, Tracer};
use crate::stats::{mean, median, percentile, sorted};
use crate::{elapsed_s, mix};

/// Iteration cap of the `scale_100k` descent.
const SCALE_100K_ITERATIONS: usize = 60;
/// Iteration cap of the `scale_1m` descent.
const SCALE_1M_ITERATIONS: usize = 6;
/// Fewest timed passes of a run, however long each takes.
const MIN_PASSES: usize = 3;

/// Which solve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveWorkload {
    /// All 13 Table I circuits at K = 5, `SolverOptions::tuned(4)`.
    PaperSuite,
    /// S100K at K = 30, one restart, refinement on.
    Scale100k,
    /// S1M at K = 30, one restart, refinement off.
    Scale1m,
}

impl SolveWorkload {
    /// Engine-probe iterations.
    fn probe_iterations(self) -> usize {
        match self {
            SolveWorkload::PaperSuite => 200,
            SolveWorkload::Scale100k => 30,
            SolveWorkload::Scale1m => 6,
        }
    }
}

/// Where an input's problem comes from.
enum Source {
    /// DEF text, parsed on every pass as the CLI parses its input file.
    Def(String),
    /// Generated `(bias, area, edges)` arrays.
    Arrays(ScaleProblem),
}

/// One input of a solve workload.
struct Input {
    name: String,
    source: Source,
    planes: usize,
    options: SolverOptions,
}

/// Generates the workload's inputs. `None` gives the canonical inputs,
/// whose partitions the quality metrics report: the Table I circuits in
/// table order, or the tier's canonical spec, with the CLI's default
/// solver seed. `Some(seed)` gives the timed inputs: the same circuits in a
/// seeded order for `paper_suite` (whose margin-stopped descents would
/// otherwise change length with the solver seed), and a seeded
/// `ScaleSpec` and solver seed at the scale tiers, whose iteration cap
/// fixes the work. Generating the timed inputs is what `setup_s` times.
fn setup(workload: SolveWorkload, seed: Option<u64>) -> Vec<Input> {
    match workload {
        SolveWorkload::PaperSuite => {
            let mut order = Benchmark::all().to_vec();
            if let Some(seed) = seed {
                // Fisher–Yates with the workload seed.
                for i in (1..order.len()).rev() {
                    order.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
                }
            }
            order
                .into_iter()
                .map(|bench| Input {
                    name: bench.name().to_string(),
                    source: Source::Def(write_def(&generate(bench))),
                    planes: 5,
                    options: SolverOptions::tuned(4),
                })
                .collect()
        }
        SolveWorkload::Scale100k | SolveWorkload::Scale1m => {
            let (tier, refine, cap) = if workload == SolveWorkload::Scale100k {
                (ScaleTier::S100k, true, SCALE_100K_ITERATIONS)
            } else {
                (ScaleTier::S1m, false, SCALE_1M_ITERATIONS)
            };
            let defaults = SolverOptions::default();
            let (spec, solver_seed) = match seed {
                None => (tier.spec(), defaults.seed),
                Some(seed) => (
                    ScaleSpec::new(tier.name(), tier.num_gates(), mix(seed, 0)),
                    mix(seed, 1),
                ),
            };
            vec![Input {
                name: tier.name().to_string(),
                source: Source::Arrays(scale_problem(&spec)),
                planes: 30,
                options: SolverOptions {
                    seed: solver_seed,
                    restarts: 1,
                    refine,
                    max_iterations: cap,
                    ..defaults
                },
            }]
        }
    }
}

/// What one partition of one input produced.
struct Partitioned {
    labels: Vec<u32>,
    gates: usize,
    metrics: PartitionMetrics,
    def_bytes: u64,
    marks: Option<SolveMarks>,
    solve_ns: u64,
}

/// Partitions `input` once: parse → problem → solve → metrics → plan.
/// With tracing on, every step is a span under one `partition` span and
/// the solve is observed for its restart boundaries.
fn partition_once(input: &Input, tracer: &mut Tracer, op: u64) -> Result<Partitioned, String> {
    tracer.begin("partition", op);
    let out = partition_steps(input, tracer, op);
    tracer.end();
    out
}

fn partition_steps(input: &Input, tracer: &mut Tracer, op: u64) -> Result<Partitioned, String> {
    let (problem, def_bytes) = match &input.source {
        Source::Def(text) => {
            let netlist = tracer
                .leaf("def", op, || parse_def(text, CellLibrary::calibrated()))
                .map_err(|e| format!("{}: DEF parse failed: {e}", input.name))?;
            let problem = tracer
                .leaf("problem", op, || {
                    PartitionProblem::from_netlist(&netlist, input.planes)
                })
                .map_err(|e| format!("{}: problem build failed: {e}", input.name))?;
            (problem, text.len() as u64)
        }
        Source::Arrays(arrays) => {
            let (bias, area, edges) = (
                arrays.bias.clone(),
                arrays.area.clone(),
                arrays.edges.clone(),
            );
            let problem = tracer
                .leaf("problem", op, || {
                    PartitionProblem::new(bias, area, edges, input.planes)
                })
                .map_err(|e| format!("{}: problem build failed: {e}", input.name))?;
            (problem, 0)
        }
    };
    let solver = Solver::new(input.options.clone());
    let solve_start = Instant::now();
    let (result, marks): (SolveResult, Option<SolveMarks>) = if tracer.on() {
        tracer.begin("solve", op);
        let mut marks = SolveMarks::default();
        let solved = solver.try_solve_observed(&problem, &mut marks);
        marks.record(tracer, op);
        tracer.end();
        (
            solved.map_err(|e| format!("{}: solve failed: {e}", input.name))?,
            Some(marks),
        )
    } else {
        let solved = solver.try_solve(&problem);
        (
            solved.map_err(|e| format!("{}: solve failed: {e}", input.name))?,
            None,
        )
    };
    let solve_ns = u64::try_from(solve_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let metrics = tracer.leaf("metrics", op, || {
        PartitionMetrics::evaluate(&problem, &result.partition)
    });
    let plan_options = RecycleOptions {
        allow_empty_planes: true,
        ..RecycleOptions::default()
    };
    let plan = tracer.leaf("recycle", op, || {
        RecyclingPlan::build(&problem, &result.partition, &plan_options)
    });
    std::hint::black_box(plan.map_err(|e| format!("{}: recycling plan failed: {e}", input.name))?);
    Ok(Partitioned {
        labels: result.partition.labels().to_vec(),
        gates: problem.num_gates(),
        metrics,
        def_bytes,
        marks,
        solve_ns,
    })
}

/// Checks one partition's shape: one label per gate, each below K.
fn shape_error(input: &Input, labels: &[u32], gates: usize) -> Option<String> {
    if labels.len() != gates {
        return Some(format!(
            "{}: {} labels for {gates} gates",
            input.name,
            labels.len()
        ));
    }
    labels
        .iter()
        .position(|&label| label as usize >= input.planes)
        .map(|gate| {
            format!(
                "{}: gate {gate} labelled outside K = {}",
                input.name, input.planes
            )
        })
}

/// One pass over every input.
struct Pass {
    wall_s: f64,
    /// Per-input time to partition, seconds.
    latencies_s: Vec<f64>,
    outputs: Vec<Option<Partitioned>>,
}

/// Runs one pass, checking every output and the pass's agreement with
/// `reference` (the first pass: partitions are deterministic per seed).
fn pass(
    inputs: &[Input],
    tracer: &mut Tracer,
    next_op: &mut u64,
    reference: Option<&[Option<Partitioned>]>,
    checks: &mut Checks,
) -> Pass {
    let start = Instant::now();
    tracer.begin("pass", *next_op);
    let mut latencies_s = Vec::with_capacity(inputs.len());
    let mut outputs = Vec::with_capacity(inputs.len());
    for (index, input) in inputs.iter().enumerate() {
        *next_op += 1;
        let one = Instant::now();
        let out = partition_once(input, tracer, *next_op);
        latencies_s.push(elapsed_s(one));
        let out = match out {
            Ok(out) => {
                let shape = shape_error(input, &out.labels, out.gates);
                let drift = reference
                    .and_then(|r| r.get(index))
                    .and_then(Option::as_ref)
                    .filter(|first| first.labels != out.labels)
                    .map(|_| format!("{}: partition differs from the first pass", input.name));
                checks.record(shape.or(drift));
                Some(out)
            }
            Err(e) => {
                checks.record(Some(e));
                None
            }
        };
        outputs.push(out);
    }
    tracer.end();
    Pass {
        wall_s: elapsed_s(start),
        latencies_s,
        outputs,
    }
}

/// Solves `input` with restarts run in parallel and serially; the labels
/// must be identical.
fn parallel_check(input: &Input, checks: &mut Checks) {
    let Some(problem) = build_problem(input) else {
        checks.record(Some(format!("{}: parallel check: no problem", input.name)));
        return;
    };
    let labels = |parallel: bool| {
        let options = SolverOptions {
            parallel,
            ..input.options.clone()
        };
        Solver::new(options)
            .try_solve(&problem)
            .map(|result| result.partition.labels().to_vec())
            .map_err(|e| e.to_string())
    };
    checks.record(match (labels(true), labels(false)) {
        (Ok(on), Ok(off)) if on == off => None,
        (Ok(_), Ok(_)) => Some(format!(
            "{}: parallel and serial restarts disagree",
            input.name
        )),
        (Err(e), _) | (_, Err(e)) => Some(format!("{}: parallel check failed: {e}", input.name)),
    });
}

/// Quality metrics averaged over `partitions`, in percent.
pub fn quality<'a>(partitions: impl Iterator<Item = &'a PartitionMetrics>, into: &mut Metrics) {
    let found: Vec<&PartitionMetrics> = partitions.collect();
    let avg = |f: &dyn Fn(&PartitionMetrics) -> f64| {
        mean(&found.iter().map(|m| f(m)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    into.set("d1_pct", 100.0 * avg(&|m| m.cumulative_fraction(1)));
    into.set("icomp_pct", avg(&|m| m.i_comp_pct));
    into.set("afs_pct", avg(&|m| m.a_fs_pct));
}

/// A partition made the way `sfqpart partition` makes it.
pub struct Reference {
    /// Plane label per gate.
    pub labels: Vec<u32>,
    /// Its quality metrics.
    pub metrics: PartitionMetrics,
}

/// Partitions DEF text through the CLI path, untraced.
pub fn reference(def: &str, planes: usize, options: SolverOptions) -> Result<Reference, String> {
    let input = Input {
        name: String::from("reference"),
        source: Source::Def(def.to_string()),
        planes,
        options,
    };
    let out = partition_once(&input, &mut Tracer::new(false), 0)?;
    Ok(Reference {
        labels: out.labels,
        metrics: out.metrics,
    })
}

/// Runs a solve workload for `seconds` of measured passes.
///
/// An untimed first pass partitions the canonical inputs: it warms caches
/// and the allocator, and gives the quality metrics. Timed passes then
/// partition the seeded inputs until `seconds` have passed (at least
/// [`MIN_PASSES`]); every one must reproduce the first timed pass's
/// partitions. `partition_s` sums each input's fastest time over the
/// passes. With `trace`, every timed pass is followed by a traced pass of
/// the same inputs, so the traced and untraced figures give the tracing
/// overhead.
pub fn run(
    workload: SolveWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Metrics, Checks, Tracer) {
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let (setup_s, inputs) = match crate::repeat_setup(|| Ok(setup(workload, Some(seed))), drop) {
        Ok(made) => made,
        Err(e) => {
            checks.record(Some(e));
            return (metrics, checks, Tracer::new(trace));
        }
    };
    metrics.set("setup_s", setup_s);

    let mut untraced = Tracer::new(false);
    let mut tracer = Tracer::new(trace);
    let mut op = 0u64;
    let canonical = setup(workload, None);
    let first = pass(&canonical, &mut untraced, &mut op, None, &mut checks);
    quality(
        first.outputs.iter().flatten().map(|p| &p.metrics),
        &mut metrics,
    );
    drop((first, canonical));

    let mut reference = None;
    let mut per_input = vec![Vec::new(); inputs.len()];
    let mut walls = Vec::new();
    let mut traced_per_input = vec![Vec::new(); inputs.len()];
    let mut traced_walls = Vec::new();
    let mut traced_marks = Vec::new();
    let mut def_bytes = 0u64;
    let mut solve_ns = 0u64;
    let started = Instant::now();
    while walls.len() < MIN_PASSES || elapsed_s(started) < seconds {
        let p = pass(
            &inputs,
            &mut untraced,
            &mut op,
            reference.as_deref(),
            &mut checks,
        );
        walls.push(p.wall_s);
        for (times, t) in per_input.iter_mut().zip(p.latencies_s) {
            times.push(t);
        }
        if reference.is_none() {
            reference = Some(p.outputs);
        }
        if trace {
            let t = pass(
                &inputs,
                &mut tracer,
                &mut op,
                reference.as_deref(),
                &mut checks,
            );
            traced_walls.push(t.wall_s);
            for (times, t) in traced_per_input.iter_mut().zip(t.latencies_s) {
                times.push(t);
            }
            for out in t.outputs.into_iter().flatten() {
                def_bytes += out.def_bytes;
                solve_ns += out.solve_ns;
                traced_marks.extend(out.marks);
            }
        }
    }
    let passes = walls.len();
    let fastest = fastest_per_input(&per_input);
    let partition_s: f64 = fastest.iter().sum();
    metrics.set("partition_s", partition_s);
    metrics.set("latency_p50_ms", 1e3 * median(&fastest).unwrap_or(0.0));
    metrics.set(
        "latency_p99_ms",
        1e3 * percentile(&fastest, 0.99).unwrap_or(0.0),
    );
    #[allow(clippy::cast_precision_loss)]
    metrics.set(
        "max_rate_jobs_s",
        inputs.len() as f64 / partition_s.max(1e-12),
    );
    metrics.set_count("passes", passes as u64);
    metrics.set("pass_median_s", median(&sorted(walls)).unwrap_or(0.0));

    if workload == SolveWorkload::PaperSuite {
        if let Some(input) = inputs.iter().find(|i| i.name == "KSA16") {
            parallel_check(input, &mut checks);
        }
    }

    if trace {
        let traced_passes = traced_walls.len();
        let traced_total: f64 = traced_walls.iter().sum();
        let traced_fastest = fastest_per_input(&traced_per_input);
        let traced_partition_s: f64 = traced_fastest.iter().sum();
        metrics.set("trace.partition_s", traced_partition_s);
        metrics.set(
            "trace.overhead_pct",
            100.0 * (traced_partition_s / partition_s.max(1e-12) - 1.0),
        );
        metrics.set(
            "trace.overhead_p50_ms",
            1e3 * (median(&traced_fastest).unwrap_or(0.0) - median(&fastest).unwrap_or(0.0)),
        );
        layer_metrics(
            &tracer,
            &traced_marks,
            traced_passes,
            def_bytes,
            solve_ns,
            &mut metrics,
        );
        #[allow(clippy::cast_precision_loss)]
        let per_pass_ms = 1e3 * traced_total / traced_passes.max(1) as f64;
        let share = |metrics: &Metrics, names: &[&str]| {
            100.0 * names.iter().filter_map(|n| metrics.get(n)).sum::<f64>()
                / per_pass_ms.max(1e-12)
        };
        let descent_refine = share(&metrics, &["solver.descent_ms", "refine.ms"]);
        let accounted = share(&metrics, &LAYER_TIMES);
        metrics.set("trace.descent_refine_pct", descent_refine);
        metrics.set("trace.accounted_pct", accounted);
        probe::stream(&mut metrics);
        let largest = inputs
            .iter()
            .filter_map(build_problem)
            .max_by_key(|p| p.num_gates() * p.num_planes());
        if let Some(problem) = largest {
            probe::engine(&problem, workload.probe_iterations(), &mut metrics);
        }
    }
    (metrics, checks, tracer)
}

/// Each input's fastest time to partition over the passes, ascending.
///
/// The work of a pass is fixed (every pass must reproduce the first), so
/// anything that makes one pass slower than another is the host: another
/// tenant on the CPU, its sibling hyperthread or the memory bus. That only
/// ever adds time, so the fastest of several passes estimates the cost of
/// the work itself, and moves far less between runs than a median does.
fn fastest_per_input(per_input: &[Vec<f64>]) -> Vec<f64> {
    sorted(
        per_input
            .iter()
            .map(|times| times.iter().copied().fold(f64::INFINITY, f64::min))
            .filter(|t| t.is_finite())
            .collect(),
    )
}

/// The per-pass self times that together cover a traced pass.
const LAYER_TIMES: [&str; 9] = [
    "def.parse_ms",
    "problem.build_ms",
    "solver.descent_ms",
    "refine.ms",
    "solver.self_ms",
    "metrics.eval_ms",
    "recycle.plan_ms",
    "partition.glue_ms",
    "pass.glue_ms",
];

/// The problem of `input`, built outside any timing.
fn build_problem(input: &Input) -> Option<PartitionProblem> {
    match &input.source {
        Source::Def(text) => {
            let netlist = parse_def(text, CellLibrary::calibrated()).ok()?;
            PartitionProblem::from_netlist(&netlist, input.planes).ok()
        }
        Source::Arrays(a) => PartitionProblem::new(
            a.bias.clone(),
            a.area.clone(),
            a.edges.clone(),
            input.planes,
        )
        .ok(),
    }
}

/// Per-layer numbers from the traced passes: self time per pass for each
/// layer, plus the solver's exact counts per pass.
fn layer_metrics(
    tracer: &Tracer,
    marks: &[SolveMarks],
    passes: usize,
    def_bytes: u64,
    solve_ns: u64,
    metrics: &mut Metrics,
) {
    #[allow(clippy::cast_precision_loss)]
    let per_pass = |ns: u64| ns as f64 / 1e6 / passes.max(1) as f64;
    let own: BTreeMap<&str, u64> = spans::self_time_by_name(tracer.spans());
    let wall: BTreeMap<&str, u64> = spans::wall_time_by_name(tracer.spans());
    let self_ms = |name: &str| per_pass(own.get(name).copied().unwrap_or(0));
    metrics.set("def.parse_ms", self_ms("def"));
    metrics.set_count("def.bytes", def_bytes / passes.max(1) as u64);
    metrics.set("problem.build_ms", self_ms("problem"));
    metrics.set("solver.descent_ms", self_ms("descent"));
    metrics.set("refine.ms", self_ms("refine"));
    metrics.set("metrics.eval_ms", self_ms("metrics"));
    metrics.set("recycle.plan_ms", self_ms("recycle"));
    metrics.set("solver.self_ms", self_ms("solve") + self_ms("restart"));
    metrics.set("partition.glue_ms", self_ms("partition"));
    metrics.set("pass.glue_ms", self_ms("pass"));

    let count = |f: fn(&crate::observe::RestartMarks) -> u64| -> u64 {
        marks.iter().flat_map(|m| &m.restarts).map(f).sum::<u64>() / passes.max(1) as u64
    };
    let iterations = count(|r| r.iterations);
    metrics.set_count("solver.iterations", iterations);
    metrics.set_count("solver.restarts", count(|_| 1));
    metrics.set_count("solver.recoveries", count(|r| r.recoveries));
    metrics.set_count("solver.clipped", count(|r| r.clipped));
    metrics.set_count("refine.moves", count(|r| r.refine_moves));
    let descent_wall_ms = per_pass(wall.get("descent").copied().unwrap_or(0));
    #[allow(clippy::cast_precision_loss)]
    metrics.set(
        "solver.iter_ms",
        descent_wall_ms / (iterations.max(1)) as f64,
    );
    let restart_wall: u64 = marks.iter().map(SolveMarks::restart_wall_ns).sum();
    #[allow(clippy::cast_precision_loss)]
    metrics.set(
        "solver.restart_overlap",
        restart_wall as f64 / solve_ns.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_per_input_takes_each_inputs_minimum() {
        // Two inputs over three passes; the slow second pass of input 0
        // and the slow first pass of input 1 do not count.
        let per_input = vec![vec![2.0, 5.0, 3.0], vec![9.0, 1.0, 1.5]];
        assert_eq!(fastest_per_input(&per_input), vec![1.0, 2.0]);
        // An input that never ran contributes nothing.
        assert_eq!(fastest_per_input(&[vec![], vec![4.0]]), vec![4.0]);
    }
}
