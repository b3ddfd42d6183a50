//! The `service_mix` workload: an in-process `sfqpartd` (default
//! `DaemonConfig`) driven over loopback TCP.
//!
//! Healthy jobs partition small Table I circuits (KSA4, KSA8, MULT4,
//! KSA16 at K = 5). Half of them repeat a (circuit, solver seed) pair from
//! a pool smaller than the daemon's 64-entry result cache, so both cache
//! hits and misses occur; the rest carry a fresh seed. About a fifth of all
//! jobs are the fault kinds `sfqload` sends: cancelled, zero-deadline,
//! worker panic and NaN-poisoned.
//!
//! The load is generated in this process by two threads on one job
//! connection (a second connection fetches `stats` frames): the main thread
//! sends each job when it is due, and a reader thread timestamps every
//! frame as it arrives. Jobs are timed from when they were due, so a stall
//! in the generator or the service also delays every job behind it.
//!
//! Phases: closed-loop bursts of the four circuits (`partition_s`), an open
//! loop at a nominal rate (latency), then a geometric rate ladder
//! (`max_rate_jobs_s`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sfq_circuits::registry::{generate, Benchmark};
use sfq_def::write_def;
use sfq_partition::{FaultInjection, PartitionProblem, SolverOptions};
use sfq_serviced::client::ClientRead;
use sfq_serviced::net::{self, ConnWriter, LineReader, ReadLine};
use sfq_serviced::protocol::{self, FailureKind, ProblemSpec, Request, Response, SolveRequest};
use sfq_serviced::{Client, Daemon, DaemonConfig, StatsSnapshot};

use crate::report::{Checks, Metrics};
use crate::solve::{self, Reference};
use crate::spans::Tracer;
use crate::stats::{backlog_grows, median, percentile, sorted};
use crate::{elapsed_s, mix};

/// The healthy jobs' circuits.
const POOL: [Benchmark; 4] = [
    Benchmark::Ksa4,
    Benchmark::Ksa8,
    Benchmark::Mult4,
    Benchmark::Ksa16,
];
/// Planes of every healthy job.
const PLANES: usize = 5;
/// Solver seeds per circuit in the repeat pool: 4 × 6 = 24 entries, well
/// under the default 64-entry cache.
const POOL_SEEDS: u64 = 6;
/// Latency limit of the rate ladder (healthy-job p99), milliseconds.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// Open-loop rate of the latency phase, jobs per second: about a fifth of
/// what the default daemon sustains on two cores. At 120 jobs/s, spells in
/// which the hypervisor took a fifth of the CPU time (steal) stalled the
/// daemon long enough to fill its 16-job admission queue; the refusals
/// then count as failures, and the p99 crossed the latency limit.
const NOMINAL_RATE: f64 = 60.0;
/// First rung of the rate ladder, jobs per second: about 70 % of what the
/// default daemon sustains on two cores.
const LADDER_START: f64 = 240.0;
/// Ratio between ladder rungs: the maximum rate reads in steps of 5 %.
const LADDER_FACTOR: f64 = 1.05;
/// Rungs at most: the last is 240 · 1.05^39 ≈ 1600 jobs/s, far above what
/// the daemon sustains today.
const LADDER_STEPS: usize = 40;
/// Shares of `--seconds` given to the burst and open-loop phases. The
/// open loop's share gives it over 1000 healthy jobs in a 30-second run,
/// so its p99 has at least ten samples beyond it.
const BURST_SHARE: f64 = 0.07;
const OPEN_SHARE: f64 = 0.75;
/// Jobs per ladder rung in an 18-second run (scaled with `--seconds`).
const RUNG_JOBS: f64 = 600.0;

/// What a job asks of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Partition `POOL[circuit]` with solver seed `seed`; `pooled` seeds
    /// repeat across the run.
    Healthy {
        /// Index into [`POOL`].
        circuit: usize,
        /// Solver seed.
        seed: u64,
        /// Whether the seed comes from the repeat pool.
        pooled: bool,
    },
    /// A solve that never stops on its own, cancelled right after sending.
    Cancelled,
    /// Admitted with `deadline_ms: 0`.
    DeadlineDoomed,
    /// Panics in the worker.
    Panic,
    /// NaN-poisoned: diverges, is retried once, fails.
    Poisoned,
}

/// One scheduled job: when it is due (from the phase start) and what it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Due time, seconds after the phase starts.
    pub due_s: f64,
    /// The request kind.
    pub kind: Kind,
}

/// Uniform draw in [0, 1) from a hash.
#[allow(clippy::cast_precision_loss)]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The kind of job `index` of stream `stream`: 80 % healthy (half of those
/// from the repeat pool), 5 % each fault kind.
pub fn kind_for(seed: u64, stream: u64, index: u64) -> Kind {
    let h = mix(mix(seed, stream), index);
    let circuit = (mix(h, 1) % POOL.len() as u64) as usize;
    match h % 20 {
        0 => Kind::Cancelled,
        1 => Kind::DeadlineDoomed,
        2 => Kind::Panic,
        3 => Kind::Poisoned,
        r if r % 2 == 0 => Kind::Healthy {
            circuit,
            seed: 1 + mix(h, 2) % POOL_SEEDS,
            pooled: true,
        },
        _ => Kind::Healthy {
            circuit,
            // Fresh: well away from the pool's 1..=POOL_SEEDS, and below
            // 2^53 so the seed survives the JSON wire.
            seed: 1000 + (mix(h, 3) >> 24),
            pooled: false,
        },
    }
}

/// An open-loop schedule of `count` jobs: Poisson arrivals at `rate` per
/// second (independent users), kinds from [`kind_for`]. Identical for the
/// same `(seed, stream)`.
pub fn schedule(seed: u64, stream: u64, rate: f64, count: usize) -> Vec<Job> {
    let mut due_s = 0.0;
    (0..count as u64)
        .map(|index| {
            let gap = -(1.0 - unit(mix(mix(seed, stream ^ 0x5eed), index))).ln() / rate;
            due_s += gap;
            Job {
                due_s,
                kind: kind_for(seed, stream, index),
            }
        })
        .collect()
}

/// The four circuits as wire problems and as DEF text (for the reference
/// solves), generated once per set-up.
struct Pool {
    specs: Vec<ProblemSpec>,
    defs: Vec<String>,
}

fn build_pool() -> Result<Pool, String> {
    let mut specs = Vec::new();
    let mut defs = Vec::new();
    for bench in POOL {
        let netlist = generate(bench);
        let problem = PartitionProblem::from_netlist(&netlist, PLANES)
            .map_err(|e| format!("{}: {e}", bench.name()))?;
        specs.push(ProblemSpec {
            bias: problem.bias().to_vec(),
            area: problem.area().to_vec(),
            edges: problem.edges().to_vec(),
            planes: PLANES,
        });
        defs.push(write_def(&netlist));
    }
    Ok(Pool { specs, defs })
}

fn healthy_options(seed: u64) -> SolverOptions {
    SolverOptions {
        seed,
        ..SolverOptions::default()
    }
}

fn request(id: String, kind: Kind, pool: &Pool) -> Request {
    let mut req = SolveRequest {
        id,
        problem: pool.specs[0].clone(),
        options: SolverOptions::default(),
        deadline_ms: None,
        progress_every: None,
        panic_in_worker: false,
    };
    match kind {
        Kind::Healthy { circuit, seed, .. } => {
            req.problem = pool.specs[circuit].clone();
            req.options = healthy_options(seed);
        }
        Kind::Cancelled => {
            // A negative margin is never reached: only the cancel ends it.
            req.options.margin = -1.0;
            req.options.max_iterations = 50_000_000;
        }
        Kind::DeadlineDoomed => req.deadline_ms = Some(0),
        Kind::Panic => req.panic_in_worker = true,
        Kind::Poisoned => {
            req.options.fault_injection = Some(FaultInjection {
                poison_from: Some(0),
                ..FaultInjection::default()
            });
        }
    }
    Request::Solve(Box::new(req))
}

/// Why a terminal frame is not the one `kind` must end in, if it is not.
/// `Rejected` (overloaded) is accepted only when `allow_rejected`.
fn wrong_terminal(
    kind: Kind,
    frame: &Response,
    pool: &Pool,
    allow_rejected: bool,
) -> Option<String> {
    let ok = match (kind, frame) {
        (Kind::Healthy { circuit, .. }, Response::Done { labels, .. }) => {
            let gates = pool.specs[circuit].bias.len();
            if labels.len() != gates || labels.iter().any(|&l| l as usize >= PLANES) {
                return Some(format!(
                    "{}: done with {} labels, not {gates} below {PLANES}",
                    POOL[circuit].name(),
                    labels.len()
                ));
            }
            true
        }
        (_, Response::Rejected { .. }) => allow_rejected,
        (Kind::Cancelled, Response::Cancelled { .. })
        | (Kind::DeadlineDoomed, Response::DeadlineExceeded { .. }) => true,
        (Kind::Panic, Response::Failed { kind, .. }) => *kind == FailureKind::Panic,
        (Kind::Poisoned, Response::Failed { kind, .. }) => *kind == FailureKind::Divergence,
        _ => false,
    };
    (!ok).then(|| {
        let line: String = frame.to_line().chars().take(160).collect();
        format!("{kind:?} ended as {line}")
    })
}

/// What the reader thread saw of one job.
#[derive(Debug, Clone, Default)]
struct Seen {
    accepted: Option<Instant>,
    terminal: Option<(Instant, Response)>,
}

/// One job's send: when it was due, when sending began, when the encoded
/// frame was ready and when the write returned.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due: Instant,
    start: Instant,
    encoded: Instant,
    written: Instant,
}

/// What one phase produced.
struct Phase {
    start: Instant,
    jobs: Vec<Job>,
    sent: Vec<Sent>,
    seen: Vec<Seen>,
    in_flight: Vec<usize>,
    /// `(job, start, end)` of every frame decode, when timed.
    decodes: Vec<(usize, Instant, Instant)>,
}

/// Milliseconds from `from` to `to`.
fn ms(from: Instant, to: Instant) -> f64 {
    1e3 * to.saturating_duration_since(from).as_secs_f64()
}

impl Phase {
    /// Due → terminal of every healthy job, ms, ascending; a job refused,
    /// failed or never answered counts as infinitely late.
    fn healthy_latencies_ms(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for ((job, sent), seen) in self.jobs.iter().zip(&self.sent).zip(&self.seen) {
            if let Kind::Healthy { .. } = job.kind {
                out.push(match &seen.terminal {
                    Some((at, Response::Done { .. })) => ms(sent.due, *at),
                    _ => f64::INFINITY,
                });
            }
        }
        sorted(out)
    }

    /// When the last terminal frame arrived.
    fn last_terminal(&self) -> Instant {
        self.seen
            .iter()
            .filter_map(|s| s.terminal.as_ref().map(|(at, _)| *at))
            .max()
            .unwrap_or(self.start)
    }
}

/// The job connection: the writer stays with the sender; the reader moves
/// to the reader thread for each phase and comes back after it.
struct Conn {
    reader: Option<LineReader>,
    writer: ConnWriter,
}

/// Reads frames until every one of `count` jobs of `phase` has its
/// terminal frame or `give_up` passes. Times each decode when `timed`.
fn read_phase(
    mut reader: LineReader,
    phase: u64,
    count: usize,
    answered: &AtomicUsize,
    give_up: Instant,
    timed: bool,
) -> (LineReader, Vec<Seen>, Vec<(usize, Instant, Instant)>) {
    let mut seen = vec![Seen::default(); count];
    let mut decodes = Vec::new();
    let prefix = format!("p{phase}-");
    let mut terminals = 0;
    while terminals < count && Instant::now() < give_up {
        let line = match reader.next_line() {
            ReadLine::Line(line) => line,
            ReadLine::Timeout => continue,
            ReadLine::Eof => break,
        };
        let at = Instant::now();
        let frame = protocol::parse_response(&line);
        let decoded = timed.then(Instant::now);
        let Ok(frame) = frame else { continue };
        let Some(index) = frame
            .id()
            .and_then(|id| id.strip_prefix(&prefix))
            .and_then(|i| i.parse::<usize>().ok())
        else {
            continue;
        };
        let Some(slot) = seen.get_mut(index) else {
            continue;
        };
        if let Some(end) = decoded {
            decodes.push((index, at, end));
        }
        if matches!(frame, Response::Accepted { .. }) {
            slot.accepted = Some(at);
        } else if frame.is_terminal() && slot.terminal.is_none() {
            slot.terminal = Some((at, frame));
            terminals += 1;
            answered.store(terminals, Ordering::Relaxed);
        }
    }
    (reader, seen, decodes)
}

/// Sends `jobs` on schedule — each when it is due, whatever is still
/// unanswered — while a reader thread collects their frames.
fn run_phase(
    conn: &mut Conn,
    jobs: Vec<Job>,
    phase: u64,
    pool: &Pool,
    timed: bool,
) -> Result<Phase, String> {
    let reader = conn
        .reader
        .take()
        .ok_or("the job connection lost its reader")?;
    let answered = Arc::new(AtomicUsize::new(0));
    let count = jobs.len();
    let last_due = jobs.last().map_or(0.0, |j| j.due_s);
    let start = Instant::now() + Duration::from_millis(2);
    let give_up = start + Duration::from_secs_f64(last_due + 20.0);
    let counter = Arc::clone(&answered);
    let handle = std::thread::Builder::new()
        .name("perfbench-reader".into())
        .spawn(move || read_phase(reader, phase, count, &counter, give_up, timed))
        .map_err(|e| format!("cannot spawn the reader thread: {e}"))?;
    let mut sent = Vec::with_capacity(count);
    let mut in_flight = Vec::with_capacity(count);
    for (index, job) in jobs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(job.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let begin = Instant::now();
        in_flight.push(index.saturating_sub(answered.load(Ordering::Relaxed)));
        let id = format!("p{phase}-{index}");
        let line = request(id.clone(), job.kind, pool).to_line();
        let encoded = if timed { Instant::now() } else { begin };
        conn.writer.send_line(&line);
        if job.kind == Kind::Cancelled {
            conn.writer.send_line(&Request::Cancel { id }.to_line());
        }
        let written = if timed { Instant::now() } else { begin };
        sent.push(Sent {
            due,
            start: begin,
            encoded,
            written,
        });
    }
    let (reader, seen, decodes) = handle
        .join()
        .map_err(|_| "the reader thread panicked".to_string())?;
    conn.reader = Some(reader);
    Ok(Phase {
        start,
        jobs,
        sent,
        seen,
        in_flight,
        decodes,
    })
}

/// Client-side terminal counts, for the ledger cross-check.
#[derive(Debug, Default)]
struct Ledger {
    done: u64,
    cached: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    failed: u64,
    rejected: u64,
}

/// Labels the service returned for each pooled (circuit, seed).
type Served = Vec<((usize, u64), Vec<u32>)>;

/// Books a phase: terminal counts, expected terminal states (refusals
/// allowed only when `allow_rejected`), and the labels of pooled jobs.
fn book(
    phase: &Phase,
    pool: &Pool,
    allow_rejected: bool,
    ledger: &mut Ledger,
    served: &mut Served,
    checks: &mut Checks,
) {
    for (index, (job, seen)) in phase.jobs.iter().zip(&phase.seen).enumerate() {
        let Some((_, frame)) = &seen.terminal else {
            checks.record(Some(format!(
                "job {index} ({:?}) never reached a terminal state",
                job.kind
            )));
            continue;
        };
        match frame {
            Response::Done { cached, labels, .. } => {
                ledger.done += 1;
                ledger.cached += u64::from(*cached);
                if let Kind::Healthy {
                    circuit,
                    seed,
                    pooled: true,
                } = job.kind
                {
                    served.push(((circuit, seed), labels.clone()));
                }
            }
            Response::Cancelled { .. } => ledger.cancelled += 1,
            Response::DeadlineExceeded { .. } => ledger.deadline_exceeded += 1,
            Response::Failed { .. } => ledger.failed += 1,
            Response::Rejected { .. } => ledger.rejected += 1,
            _ => {}
        }
        checks.record(wrong_terminal(job.kind, frame, pool, allow_rejected));
    }
}

/// The running daemon and its two client connections.
struct Service {
    daemon: Daemon,
    conn: Conn,
    stats: Client,
}

impl Service {
    fn start() -> Result<Service, String> {
        let daemon =
            Daemon::start(DaemonConfig::default()).map_err(|e| format!("daemon start: {e}"))?;
        // The read timeout only bounds how long the reader waits to notice
        // that a phase gave up; frames are read as soon as they arrive.
        let (reader, writer) = net::connect(daemon.addr(), Some(Duration::from_millis(200)))
            .map_err(|e| format!("connect: {e}"))?;
        let stats = Client::connect(daemon.addr(), Some(Duration::from_millis(200)))
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Service {
            daemon,
            conn: Conn {
                reader: Some(reader),
                writer,
            },
            stats,
        })
    }

    /// One `stats` frame.
    fn stats(&mut self) -> Result<StatsSnapshot, String> {
        self.stats.send(&Request::Stats);
        for _ in 0..50 {
            match self.stats.read() {
                ClientRead::Frame(Response::Stats(stats)) => return Ok(*stats),
                ClientRead::Frame(_) | ClientRead::Timeout => {}
                ClientRead::Eof => break,
            }
        }
        Err("no stats frame".into())
    }

    fn stop(self) {
        drop(self.conn);
        drop(self.stats);
        self.daemon.drain();
    }
}

/// Compares client counts with the daemon's ledger delta, row by row.
fn ledger_checks(
    ledger: &Ledger,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    checks: &mut Checks,
) {
    let settled = ledger.done + ledger.cancelled + ledger.deadline_exceeded + ledger.failed;
    let rows = [
        ("submitted", settled, after.submitted - before.submitted),
        ("done", ledger.done, after.done - before.done),
        (
            "cache_hits",
            ledger.cached,
            after.cache_hits - before.cache_hits,
        ),
        (
            "cancelled",
            ledger.cancelled,
            after.cancelled - before.cancelled,
        ),
        (
            "deadline_exceeded",
            ledger.deadline_exceeded,
            after.deadline_exceeded - before.deadline_exceeded,
        ),
        ("failed", ledger.failed, after.failed - before.failed),
        (
            "rejected",
            ledger.rejected,
            after.rejected - before.rejected,
        ),
    ];
    for (row, client, service) in rows {
        checks.record(
            (client != service).then(|| {
                format!("ledger {row}: client saw {client}, service ledger delta {service}")
            }),
        );
    }
    checks.record(after.accounting_violation());
}

/// The rate at which the healthy-job miss share (over the latency limit,
/// refused or failed) crosses 1 %, interpolated log-linearly between the
/// last passing rung `(pass_rate, pass_miss)` and the first failing one.
/// A rung that failed on backlog growth alone gives the passing rate.
pub fn crossing_rate(pass_rate: f64, pass_miss: f64, fail_rate: f64, fail_miss: f64) -> f64 {
    const LIMIT: f64 = 0.01;
    if fail_miss <= LIMIT || fail_miss <= pass_miss {
        return pass_rate;
    }
    let t = ((LIMIT - pass_miss) / (fail_miss - pass_miss)).clamp(0.0, 1.0);
    pass_rate * (fail_rate / pass_rate).powf(t)
}

/// Whether a phase keeps up: its healthy-job p99 (of `latencies_ms`,
/// ascending) is within the latency limit and its backlog does not grow.
fn meets_limit(latencies_ms: &[f64], in_flight: &[usize]) -> bool {
    percentile(latencies_ms, 0.99).is_some_and(|p99| p99 <= LATENCY_LIMIT_MS)
        && !backlog_grows(in_flight, 4.0)
}

/// Healthy-job miss share of a rung.
fn miss_share(latencies_ms: &[f64]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let share = latencies_ms
        .iter()
        .filter(|&&l| l > LATENCY_LIMIT_MS)
        .count() as f64
        / latencies_ms.len().max(1) as f64;
    share
}

/// Per-layer metrics of an open-loop phase: the client's view of each
/// job's send → `Accepted` and `Accepted` → terminal, the service's
/// queue-wait and solve histograms (ledger deltas, reported as their log₂
/// bucket bounds), protocol costs per frame and the generator's lateness.
fn layer_metrics(
    phase: &Phase,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    metrics: &mut Metrics,
) {
    let mut admit = Vec::new();
    let mut run = Vec::new();
    let mut encode = Vec::new();
    for ((job, sent), seen) in phase.jobs.iter().zip(&phase.sent).zip(&phase.seen) {
        encode.push(1e3 * ms(sent.start, sent.encoded));
        if let (Kind::Healthy { .. }, Some(accepted)) = (job.kind, seen.accepted) {
            admit.push(ms(sent.start, accepted));
            if let Some((at, _)) = &seen.terminal {
                run.push(ms(accepted, *at));
            }
        }
    }
    let decode: Vec<f64> = phase
        .decodes
        .iter()
        .map(|(_, s, e)| 1e3 * ms(*s, *e))
        .collect();
    let (admit, run, encode, decode) = (sorted(admit), sorted(run), sorted(encode), sorted(decode));
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    metrics.set("serviced.admit_rtt_p50_ms", p(&admit, 0.5));
    metrics.set("serviced.admit_rtt_p99_ms", p(&admit, 0.99));
    metrics.set("serviced.run_p50_ms", p(&run, 0.5));
    metrics.set("serviced.run_p99_ms", p(&run, 0.99));
    metrics.set("protocol.encode_us", p(&encode, 0.5));
    metrics.set("protocol.decode_us", p(&decode, 0.5));
    #[allow(clippy::cast_precision_loss)]
    let us = |h: &sfq_partition::telemetry::LogHistogram, q: f64| h.percentile(q) as f64 / 1e3;
    let queue_wait = after.queue_wait_ns.diff(&before.queue_wait_ns);
    let solve = after.solve_ns.diff(&before.solve_ns);
    metrics.set("serviced.queue_wait_p50_us", us(&queue_wait, 0.5));
    metrics.set("serviced.queue_wait_p99_us", us(&queue_wait, 0.99));
    metrics.set("serviced.solve_p50_us", us(&solve, 0.5));
    metrics.set("serviced.solve_p99_us", us(&solve, 0.99));
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    #[allow(clippy::cast_precision_loss)]
    metrics.set(
        "serviced.cache_hit_pct",
        100.0 * hits as f64 / lookups.max(1) as f64,
    );
    // The registry keeps one high-water mark for the daemon's lifetime, so
    // this one covers every phase run so far, not the traced phase alone.
    metrics.set_count("serviced.queue_depth_hw", after.queue_depth_hw);
    metrics.set_count("serviced.retries", after.retries - before.retries);
    metrics.set_count("serviced.panics", after.panics - before.panics);
    metrics.set_count("serviced.rejected", after.rejected - before.rejected);
    let late = sorted(phase.sent.iter().map(|s| ms(s.due, s.start)).collect());
    metrics.set("loadgen.late_p99_ms", p(&late, 0.99));
}

/// Records the spans of a traced phase: one `job` span per job (due →
/// terminal) holding `late` (due → send), `encode`, `send`, `admit`
/// (written → `Accepted`) and `run` (`Accepted` → terminal); frame decodes
/// are top-level `decode` spans (they follow the arrival they belong to).
fn record_spans(phase: &Phase, op_base: u64, tracer: &mut Tracer) {
    for (index, (sent, seen)) in phase.sent.iter().zip(&phase.seen).enumerate() {
        let op = op_base + index as u64;
        let end = seen.terminal.as_ref().map_or(sent.written, |(at, _)| *at);
        let job = tracer.record("job", op, None, sent.due, end);
        tracer.record("late", op, job, sent.due, sent.start);
        tracer.record("encode", op, job, sent.start, sent.encoded);
        tracer.record("send", op, job, sent.encoded, sent.written);
        if let Some(accepted) = seen.accepted {
            tracer.record("admit", op, job, sent.written, accepted);
            tracer.record("run", op, job, accepted, end);
        }
    }
    for &(index, start, end) in &phase.decodes {
        tracer.record("decode", op_base + index as u64, None, start, end);
    }
}

/// The open-loop phase at the nominal rate.
fn open_loop(seed: u64, stream: u64, seconds: f64) -> Vec<Job> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let count = (NOMINAL_RATE * OPEN_SHARE * seconds).ceil() as usize;
    schedule(seed, stream, NOMINAL_RATE, count.max(1))
}

/// Keeps the panics the `Panic` jobs request (contained by the daemon,
/// and checked as `failed` terminals) off standard error; any other panic
/// still reports through the default hook.
fn quiet_chaos_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if !message.is_some_and(|m| m.starts_with("chaos: ")) {
            default(info);
        }
    }));
}

/// Runs the service workload.
///
/// Untraced: closed-loop bursts (`partition_s`), the open loop at the
/// nominal rate (latency), then the rate ladder (`max_rate_jobs_s`).
/// Traced: the open loop untraced and then traced on a second schedule of
/// the same rate, giving the per-layer metrics and the tracing overhead.
/// Either way, every pooled job's labels must equal a direct solve of the
/// same (problem, seed) — the partition `sfqpart` produces — and the
/// client's terminal counts must equal the daemon's ledger delta.
pub fn run(seed: u64, seconds: f64, trace: bool) -> (Metrics, Checks, Tracer) {
    quiet_chaos_panics();
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(trace);
    let made = crate::repeat_setup(
        || build_pool().and_then(|pool| Ok((pool, Service::start()?))),
        |(_, service)| Service::stop(service),
    );
    let (setup_s, (pool, mut service)) = match made {
        Ok(made) => made,
        Err(e) => {
            checks.record(Some(e));
            return (metrics, checks, tracer);
        }
    };
    metrics.set("setup_s", setup_s);
    if let Err(e) = drive(
        seed,
        seconds,
        &pool,
        &mut service,
        &mut tracer,
        &mut metrics,
        &mut checks,
    ) {
        checks.record(Some(e));
    }
    service.stop();
    (metrics, checks, tracer)
}

/// Runs phases on one service, booking each: terminal counts for the
/// ledger check, expected terminal states, and the labels served for
/// pooled jobs.
struct Campaign<'a> {
    pool: &'a Pool,
    service: &'a mut Service,
    checks: &'a mut Checks,
    ledger: Ledger,
    served: Served,
    phases: u64,
}

impl Campaign<'_> {
    /// Runs `jobs` as the next phase; refusals count as failures unless
    /// `allow_rejected`.
    fn run(&mut self, jobs: Vec<Job>, allow_rejected: bool, timed: bool) -> Result<Phase, String> {
        self.phases += 1;
        let phase = run_phase(&mut self.service.conn, jobs, self.phases, self.pool, timed)?;
        book(
            &phase,
            self.pool,
            allow_rejected,
            &mut self.ledger,
            &mut self.served,
            self.checks,
        );
        Ok(phase)
    }

    /// Closed-loop bursts: the four circuits at once on fresh seeds,
    /// waited for together, until `seconds` have passed (at least five).
    /// Returns the median burst wall time.
    fn bursts(&mut self, seed: u64, seconds: f64) -> Result<f64, String> {
        let mut walls = Vec::new();
        let started = Instant::now();
        while walls.len() < 5 || elapsed_s(started) < seconds {
            let round = walls.len() as u64;
            let jobs = (0..POOL.len())
                .map(|circuit| Job {
                    due_s: 0.0,
                    kind: Kind::Healthy {
                        circuit,
                        seed: 1000 + (mix(mix(seed, 0xb0), round * 8 + circuit as u64) >> 24),
                        pooled: false,
                    },
                })
                .collect();
            let phase = self.run(jobs, false, false)?;
            walls.push(
                phase
                    .last_terminal()
                    .saturating_duration_since(phase.start)
                    .as_secs_f64(),
            );
        }
        Ok(median(&sorted(walls)).unwrap_or(0.0))
    }

    /// The rate ladder: rungs of `count` jobs at `LADDER_START ×
    /// LADDER_FACTOR^i` jobs/s. A rung passes when its healthy-job p99 is
    /// within the latency limit and its backlog does not grow. A rung that
    /// fails is run once more at the same rate, and the rate fails only if
    /// both attempts do: at the default 16-job admission queue, one stall
    /// of the host of some 100 ms fills the queue, and such a stall only
    /// ever adds misses, so the better attempt is the service's own. The
    /// ladder ends at the first rate that fails. `base` is a lower rate
    /// already run that passed, with its healthy-job miss share (the open
    /// loop, when it kept up). Returns the 1 % miss crossing between the
    /// highest passing rate and the failing rate above it; `None` when no
    /// rate run passed.
    fn ladder(
        &mut self,
        seed: u64,
        count: usize,
        base: Option<(f64, f64)>,
    ) -> Result<Option<f64>, String> {
        let mut rate = LADDER_START;
        let mut climb = Climb::new(base);
        for step in 0..LADDER_STEPS as u64 {
            let mut best: Option<(bool, f64)> = None;
            for attempt in 0..2 {
                let jobs = schedule(seed, 101 + 2 * step + attempt, rate, count);
                let phase = self.run(jobs, true, false)?;
                let latencies = phase.healthy_latencies_ms();
                let pass = meets_limit(&latencies, &phase.in_flight);
                let miss = miss_share(&latencies);
                eprintln!(
                    "ladder {rate:.1} jobs/s: healthy p99 {:.2} ms over {} jobs, kept up: {pass}",
                    percentile(&latencies, 0.99).unwrap_or(f64::INFINITY),
                    latencies.len()
                );
                best = Some(best.map_or((pass, miss), |(p, m)| (p || pass, m.min(miss))));
                if pass {
                    break;
                }
            }
            let (pass, miss) = best.unwrap_or((false, 1.0));
            if climb.rung(rate, pass, miss) {
                break;
            }
            rate *= LADDER_FACTOR;
        }
        Ok(climb.max_rate())
    }
}

/// The ladder's progress: the highest passing rate (or the open loop), if
/// any, and the failing rate above it, once there is one.
pub struct Climb {
    passed: Option<(f64, f64)>,
    failed: Option<(f64, f64)>,
}

impl Climb {
    /// A climb from `base`, a lower rate already run that passed, with its
    /// miss share.
    pub fn new(base: Option<(f64, f64)>) -> Climb {
        Climb {
            passed: base,
            failed: None,
        }
    }

    /// Books one rate with its miss share; returns whether the climb ends
    /// here, at a failing rate.
    pub fn rung(&mut self, rate: f64, pass: bool, miss: f64) -> bool {
        if pass {
            self.passed = Some((rate, miss));
        } else {
            self.failed = Some((rate, miss));
        }
        !pass
    }

    /// The 1 % miss crossing between the highest passing rate and the
    /// failing rate above it; the highest passing rate when none failed;
    /// `None` when none passed, since the rate that meets the limit then
    /// lies below every rate run.
    pub fn max_rate(&self) -> Option<f64> {
        let (pass_rate, pass_miss) = self.passed?;
        Some(self.failed.map_or(pass_rate, |(fail_rate, fail_miss)| {
            crossing_rate(pass_rate, pass_miss, fail_rate, fail_miss)
        }))
    }
}

fn drive(
    seed: u64,
    seconds: f64,
    pool: &Pool,
    service: &mut Service,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let first = service.stats()?;
    let mut campaign = Campaign {
        pool,
        service,
        checks,
        ledger: Ledger::default(),
        served: Served::new(),
        phases: 0,
    };
    if tracer.on() {
        let untraced = campaign.run(open_loop(seed, 1, seconds), false, false)?;
        let before = campaign.service.stats()?;
        let traced = campaign.run(open_loop(seed, 2, seconds), false, true)?;
        let after = campaign.service.stats()?;
        layer_metrics(&traced, &before, &after, metrics);
        record_spans(&traced, campaign.phases << 32, tracer);
        let p50 = |p: &Phase| median(&p.healthy_latencies_ms()).unwrap_or(0.0);
        let (plain, with) = (p50(&untraced), p50(&traced));
        metrics.set("trace.overhead_p50_ms", with - plain);
        metrics.set(
            "trace.overhead_pct",
            100.0 * (with / plain.max(1e-12) - 1.0),
        );
    } else {
        metrics.set("partition_s", campaign.bursts(seed, BURST_SHARE * seconds)?);
        let open = campaign.run(open_loop(seed, 1, seconds), false, false)?;
        let latencies = open.healthy_latencies_ms();
        metrics.set("latency_p50_ms", median(&latencies).unwrap_or(0.0));
        metrics.set(
            "latency_p99_ms",
            percentile(&latencies, 0.99).unwrap_or(0.0),
        );
        metrics.set_count("latency_samples", latencies.len() as u64);
        // The open loop is the ladder's first measured rung when it keeps
        // up. A spell of host stalls can push its p99 over the limit; that
        // is a latency, not a failed operation. A ladder on which no rate
        // run keeps up has no measurable maximum rate: a failed check.
        let base = meets_limit(&latencies, &open.in_flight)
            .then(|| (NOMINAL_RATE, miss_share(&latencies)));
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rung = (RUNG_JOBS * seconds / 18.0).ceil() as usize;
        let max_rate = campaign.ladder(seed, rung.max(1), base)?;
        campaign.checks.record(max_rate.is_none().then(|| {
            format!("no rate run kept the healthy-job p99 within {LATENCY_LIMIT_MS} ms")
        }));
        if let Some(rate) = max_rate {
            metrics.set("max_rate_jobs_s", rate);
        }
    }
    let Campaign {
        ledger,
        served,
        checks,
        service,
        ..
    } = campaign;
    let last = service.stats()?;
    ledger_checks(&ledger, &first, &last, checks);

    // Reference solves: every pooled (circuit, seed) through the CLI path.
    let mut reference: Vec<((usize, u64), Reference)> = Vec::new();
    for (circuit, (bench, def)) in POOL.iter().zip(&pool.defs).enumerate() {
        for seed in 1..=POOL_SEEDS {
            match solve::reference(def, PLANES, healthy_options(seed)) {
                Ok(r) => reference.push(((circuit, seed), r)),
                Err(e) => checks.record(Some(format!("{} reference solve: {e}", bench.name()))),
            }
        }
    }
    for (key, labels) in &served {
        let expected = reference
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, r)| &r.labels);
        checks.record((expected != Some(labels)).then(|| {
            format!(
                "{} seed {}: served labels differ from the direct solve",
                POOL[key.0].name(),
                key.1
            )
        }));
    }
    solve::quality(reference.iter().map(|(_, r)| &r.metrics), metrics);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_mix_repeat_for_the_same_seed() {
        let a = schedule(7, 1, 150.0, 500);
        assert_eq!(a, schedule(7, 1, 150.0, 500));
        assert_ne!(a, schedule(8, 1, 150.0, 500));
        assert_ne!(a, schedule(7, 2, 150.0, 500));
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    }

    #[test]
    fn schedule_runs_at_the_asked_rate() {
        let jobs = schedule(3, 1, 200.0, 4000);
        let span = jobs.last().map_or(0.0, |j| j.due_s);
        let rate = 4000.0 / span;
        assert!((rate - 200.0).abs() < 15.0, "rate {rate}");
    }

    #[test]
    fn mix_has_every_kind_in_about_its_share() {
        let jobs = schedule(11, 1, 100.0, 4000);
        let count = |f: &dyn Fn(Kind) -> bool| jobs.iter().filter(|j| f(j.kind)).count();
        let healthy = count(&|k| matches!(k, Kind::Healthy { .. }));
        let pooled = count(&|k| matches!(k, Kind::Healthy { pooled: true, .. }));
        assert!((3000..3400).contains(&healthy), "healthy {healthy}");
        assert!((1400..1800).contains(&pooled), "pooled {pooled}");
        for kind in [
            Kind::Cancelled,
            Kind::DeadlineDoomed,
            Kind::Panic,
            Kind::Poisoned,
        ] {
            let n = count(&|k| k == kind);
            assert!((120..280).contains(&n), "{kind:?}: {n}");
        }
        // Pooled seeds stay inside the pool; fresh ones stay out of it and
        // below the 2^53 the JSON wire carries exactly.
        for job in &jobs {
            if let Kind::Healthy { seed, pooled, .. } = job.kind {
                assert_eq!(pooled, (1..=POOL_SEEDS).contains(&seed));
                assert!(seed < 1 << 53);
            }
        }
    }

    #[test]
    fn climb_ends_at_the_first_failing_rate() {
        let mut climb = Climb::new(Some((60.0, 0.0)));
        assert!(!climb.rung(240.0, true, 0.0));
        assert!(!climb.rung(252.0, true, 0.002));
        // The first failing rate ends the climb, with the crossing between
        // the highest pass and that failure.
        assert!(climb.rung(264.6, false, 0.5));
        let end = climb.max_rate();
        assert_eq!(end, Some(crossing_rate(252.0, 0.002, 264.6, 0.5)));
        assert!(end.is_some_and(|r| (252.0..264.6).contains(&r)));
    }

    #[test]
    fn climb_without_a_passing_rung_starts_from_the_base() {
        let mut climb = Climb::new(Some((60.0, 0.001)));
        assert!(climb.rung(240.0, false, 0.3));
        assert_eq!(
            climb.max_rate(),
            Some(crossing_rate(60.0, 0.001, 240.0, 0.3))
        );
        // Ladder exhausted with every rung passing: the last rung's rate.
        let mut climb = Climb::new(None);
        assert!(!climb.rung(240.0, true, 0.0));
        assert_eq!(climb.max_rate(), Some(240.0));
        // No base and nothing passed: no maximum rate.
        let mut climb = Climb::new(None);
        assert!(climb.rung(240.0, false, 0.3));
        assert_eq!(climb.max_rate(), None);
    }

    #[test]
    fn crossing_rate_interpolates_between_rungs() {
        // Fail rung misses 2 %: the 1 % crossing is half way (in log rate)
        // between a clean 100 and 400 when the pass rung missed nothing...
        let r = crossing_rate(100.0, 0.0, 400.0, 0.02);
        assert!((r - 200.0).abs() < 1e-9, "{r}");
        // ...at the passing rung when the failure was backlog growth alone...
        assert_eq!(crossing_rate(100.0, 0.0, 115.0, 0.005), 100.0);
        // ...and never beyond the failing rung.
        assert_eq!(crossing_rate(100.0, 0.01, 115.0, 1.0), 100.0);
        assert!(crossing_rate(100.0, 0.0, 115.0, 0.011) < 115.0);
    }
}
