//! The benchmark's own [`SolveObserver`]: it marks restart boundaries inside
//! `Solver::try_solve_observed` so the traced run can split a solve into
//! descent, snap + refine, and restart bookkeeping.
//!
//! Marks per restart: start, the last `on_iteration` (end of descent),
//! `on_refine` (end of snap + refine) and `on_restart_end`. Parallel
//! restarts all start when they are forked; serial restarts start when the
//! previous one ends.

use std::time::Instant;

use sfq_partition::telemetry::{
    IterationEvent, RecoveryEvent, RefineEvent, RestartEndEvent, RestartObserver, SolveObserver,
    SolveStartEvent,
};

use crate::spans::Tracer;

/// Boundaries and exact counts of one restart.
#[derive(Debug, Clone)]
pub struct RestartMarks {
    forked: Instant,
    last_iteration: Option<Instant>,
    refined: Option<Instant>,
    ended: Option<Instant>,
    /// Iterations the restart ran (from its end event).
    pub iterations: u64,
    /// Divergence recoveries.
    pub recoveries: u64,
    /// Projection clips summed over iterations.
    pub clipped: u64,
    /// Refinement moves.
    pub refine_moves: u64,
}

impl RestartMarks {
    fn new() -> Self {
        RestartMarks {
            forked: Instant::now(),
            last_iteration: None,
            refined: None,
            ended: None,
            iterations: 0,
            recoveries: 0,
            clipped: 0,
            refine_moves: 0,
        }
    }
}

impl RestartObserver for RestartMarks {
    fn on_iteration(&mut self, event: &IterationEvent<'_>) {
        self.last_iteration = Some(Instant::now());
        self.clipped += event.clipped as u64;
    }

    fn on_recovery(&mut self, _event: &RecoveryEvent) {
        self.recoveries += 1;
    }

    fn on_refine(&mut self, event: &RefineEvent) {
        self.refined = Some(Instant::now());
        self.refine_moves = event.moves as u64;
    }

    fn on_restart_end(&mut self, event: &RestartEndEvent) {
        self.ended = Some(Instant::now());
        self.iterations = event.iterations as u64;
    }
}

/// Solve-level observer collecting every restart's marks in index order.
#[derive(Debug, Default)]
pub struct SolveMarks {
    parallel: bool,
    /// Restarts in index order.
    pub restarts: Vec<RestartMarks>,
}

impl SolveObserver for SolveMarks {
    type Restart = RestartMarks;

    fn on_solve_start(&mut self, event: &SolveStartEvent) {
        self.parallel = event.parallel && event.restarts > 1;
    }

    fn begin_restart(&mut self, _restart: usize) -> RestartMarks {
        RestartMarks::new()
    }

    fn absorb_restart(&mut self, _restart: usize, observer: RestartMarks) {
        self.restarts.push(observer);
    }
}

impl SolveMarks {
    /// Each restart's `(start, end)`.
    fn intervals(&self) -> Vec<(Instant, Instant)> {
        let mut previous_end: Option<Instant> = None;
        self.restarts
            .iter()
            .map(|marks| {
                let start = match (self.parallel, previous_end) {
                    (false, Some(end)) => end,
                    _ => marks.forked,
                };
                let end = marks.ended.unwrap_or(start);
                previous_end = Some(end);
                (start, end)
            })
            .collect()
    }

    /// Records one `restart` span per restart under the innermost open
    /// span of `tracer`, each with a `descent` child (start → last
    /// iteration) and a `refine` child (last iteration → `on_refine`,
    /// i.e. snap plus refinement).
    pub fn record(&self, tracer: &mut Tracer, op: u64) {
        let parent = tracer.current();
        for (marks, (start, end)) in self.restarts.iter().zip(self.intervals()) {
            let restart = tracer.record("restart", op, parent, start, end);
            let descent_end = marks.last_iteration.unwrap_or(start);
            tracer.record("descent", op, restart, start, descent_end);
            if let Some(refined) = marks.refined {
                tracer.record("refine", op, restart, descent_end, refined);
            }
        }
    }

    /// Σ over restarts of their wall time, in nanoseconds.
    pub fn restart_wall_ns(&self) -> u64 {
        self.intervals()
            .into_iter()
            .map(|(start, end)| {
                u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(0)
            })
            .sum()
    }
}
