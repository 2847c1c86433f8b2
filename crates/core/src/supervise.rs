//! Supervised design-space evaluation and checkpointable sweeps.
//!
//! The framework-layer face of the execution-supervision substrate in
//! [`cordoba_par::supervise`]: every long-running pipeline here accepts a
//! [`Supervisor`] and, instead of running all-or-nothing, returns a
//! *partial result keyed by input index* when the supervisor stops it —
//! plus enough state to resume later and land on the exact bits an
//! uninterrupted run would have produced.
//!
//! * [`evaluate_space_supervised`] — design-space characterization with
//!   per-configuration outcomes (done / quarantined / pending) and
//!   in-place [`SupervisedEval::resume`];
//! * [`op_time_sweep_supervised`] — the Fig. 8 tCDP grid with row-level
//!   checkpointing: an interrupted sweep yields a [`PartialSweep`] whose
//!   [`SweepCheckpoint`] serializes to a deterministic text format
//!   ([`SweepCheckpoint::to_text`]) the CLI writes to disk and resumes
//!   from (`dse --deadline … --checkpoint …` / `dse --resume …`).
//!
//! # Determinism argument
//!
//! Every work unit (one configuration, one sweep row) is a pure function
//! of its input index; supervision only decides *whether* a unit runs now,
//! later, or never — never *how*. Completed units are stored by index and
//! merged in index order, and `f64`s cross the checkpoint boundary as
//! exact bit patterns (`f64::to_bits` hex), so
//! `interrupt-at-any-point + resume == uninterrupted` bit-for-bit at any
//! thread count. The property suite in `crates/robust` pins this.

use crate::dse::{EvalBatch, EvalFailure, OpTimeSweep, ResilientEval};
use crate::error::CoreError;
use crate::metrics::{DesignPoint, OperationalContext};
use cordoba_accel::config::AcceleratorConfig;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::units::{CarbonIntensity, Seconds};
use cordoba_carbon::CarbonError;
use cordoba_obs::Event;
use cordoba_par::supervise::{Outcome, StopReason, Supervisor};
use cordoba_store::{hex_f64, parse_hex_f64};
use cordoba_workloads::task::Task;
use std::fmt::Write as _;

/// Per-configuration state of a supervised space evaluation.
#[derive(Debug, Clone, PartialEq)]
enum EvalSlot {
    /// Characterized successfully.
    Done(DesignPoint),
    /// Quarantined: evaluation returned an error or panicked.
    Failed(EvalFailure),
    /// Not attempted yet (the run stopped first).
    Pending,
}

/// Outcome of [`evaluate_space_supervised`]: one slot per configuration,
/// resumable in place until every slot is resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedEval {
    slots: Vec<EvalSlot>,
    stop: Option<StopReason>,
}

impl SupervisedEval {
    /// Why the last run/resume stopped early, or `None` when every
    /// configuration has been attempted.
    #[must_use]
    pub fn stop(&self) -> Option<StopReason> {
        self.stop
    }

    /// `true` when every configuration was attempted (done or quarantined).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.stop.is_none()
    }

    /// Indices of configurations not yet attempted, ascending.
    #[must_use]
    pub fn pending_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, EvalSlot::Pending).then_some(i))
            .collect()
    }

    /// Configurations attempted so far (done + quarantined).
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, EvalSlot::Pending))
            .count()
    }

    /// Total configurations in the evaluation.
    #[must_use]
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// Attempted fraction in `[0, 1]` (1.0 for an empty space).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.slots.is_empty() {
            return 1.0;
        }
        self.attempted() as f64 / self.slots.len() as f64
    }

    /// The completed evaluation as a [`ResilientEval`] (points and
    /// quarantined failures, both in input order), or `None` while
    /// configurations are still pending.
    #[must_use]
    pub fn to_resilient(&self) -> Option<ResilientEval> {
        if !self.is_complete() {
            return None;
        }
        let mut result = ResilientEval::default();
        for slot in &self.slots {
            match slot {
                EvalSlot::Done(point) => result.points.push(point.clone()),
                EvalSlot::Failed(failure) => result.failures.push(failure.clone()),
                EvalSlot::Pending => return None,
            }
        }
        Some(result)
    }

    /// Attempts the still-pending configurations under `sup`, merging by
    /// input index. A fresh unbounded supervisor completes the evaluation;
    /// the merged result is bit-identical to an uninterrupted run at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Supervision`] when `configs` does not match the
    /// evaluation this state was created from (length mismatch).
    pub fn resume(
        &mut self,
        configs: &[AcceleratorConfig],
        task: &Task,
        embodied: &EmbodiedModel,
        sup: &Supervisor,
    ) -> Result<(), CoreError> {
        if configs.len() != self.slots.len() {
            return Err(CoreError::Supervision(format!(
                "resume got {} configs but the evaluation has {} slots",
                configs.len(),
                self.slots.len()
            )));
        }
        self.advance(configs, task, embodied, sup);
        Ok(())
    }

    /// Runs the supervised map over the pending indices and fills slots.
    fn advance(
        &mut self,
        configs: &[AcceleratorConfig],
        task: &Task,
        embodied: &EmbodiedModel,
        sup: &Supervisor,
    ) {
        let pending = self.pending_indices();
        if pending.is_empty() {
            self.stop = None;
            return;
        }
        // The batch state (SoA tuning arrays, task plan, embodied memo) is
        // built once per advance; the supervised map still isolates panics
        // and checks the stop flag per configuration, so interrupt/resume
        // semantics are unchanged from the scalar path.
        let batch = EvalBatch::new(configs, task, embodied);
        let run = cordoba_par::par_map_supervised_hinted(
            &pending,
            cordoba_par::CostHint::per_item_ns(crate::dse::EVAL_NS_PER_CONFIG),
            sup,
            |_, &idx| batch.design_point(idx),
        );
        for (&idx, outcome) in pending.iter().zip(run.outcomes) {
            match outcome {
                Outcome::Done(Ok(point)) => self.slots[idx] = EvalSlot::Done(point),
                Outcome::Done(Err(error)) => {
                    cordoba_obs::record(&Event::Quarantine);
                    self.slots[idx] = EvalSlot::Failed(EvalFailure {
                        name: configs[idx].name().to_string(),
                        error,
                    });
                }
                Outcome::Panicked(message) => {
                    cordoba_obs::record(&Event::Quarantine);
                    self.slots[idx] = EvalSlot::Failed(EvalFailure {
                        name: configs[idx].name().to_string(),
                        error: CoreError::Panicked(message),
                    });
                }
                Outcome::Skipped => {}
            }
        }
        self.stop = run.stop;
    }
}

/// Characterizes a configuration list under supervision: cooperative
/// cancellation and deadline checks before every configuration, and panic
/// isolation — a panicking evaluation is quarantined as an
/// [`EvalFailure`] with [`CoreError::Panicked`] instead of aborting the
/// process. Completed slots are bit-identical at every thread count.
#[must_use]
pub fn evaluate_space_supervised(
    configs: &[AcceleratorConfig],
    task: &Task,
    embodied: &EmbodiedModel,
    sup: &Supervisor,
) -> SupervisedEval {
    let _span = cordoba_obs::span_with(
        "core/evaluate_space_supervised",
        "configs",
        u64::try_from(configs.len()).unwrap_or(u64::MAX),
    );
    let mut eval = SupervisedEval {
        slots: vec![EvalSlot::Pending; configs.len()],
        stop: None,
    };
    eval.advance(configs, task, embodied, sup);
    eval
}

/// Outcome of a supervised operational-time sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisedSweep {
    /// Every row was computed; the sweep is bit-identical to
    /// [`OpTimeSweep::new`] on the same inputs.
    Complete(OpTimeSweep),
    /// The supervisor stopped the sweep; the partial result can be
    /// serialized and resumed.
    Partial(PartialSweep),
}

impl SupervisedSweep {
    /// The completed sweep, if the run finished.
    #[must_use]
    pub fn complete(self) -> Option<OpTimeSweep> {
        match self {
            Self::Complete(sweep) => Some(sweep),
            Self::Partial(_) => None,
        }
    }

    /// The partial result, if the run was interrupted.
    #[must_use]
    pub fn partial(self) -> Option<PartialSweep> {
        match self {
            Self::Complete(_) => None,
            Self::Partial(partial) => Some(partial),
        }
    }
}

/// An interrupted sweep: the checkpoint holding every computed row plus
/// the reason the run stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialSweep {
    /// Resumable sweep state (serialize with [`SweepCheckpoint::to_text`]).
    pub checkpoint: SweepCheckpoint,
    /// Why the sweep stopped.
    pub reason: StopReason,
}

impl PartialSweep {
    /// A one-paragraph human-readable coverage report for CLI output and
    /// logs.
    #[must_use]
    pub fn coverage_report(&self) -> String {
        self.checkpoint.coverage_report()
    }
}

/// Resumable state of an interrupted [`OpTimeSweep`]: the inputs plus
/// every tCDP row already computed, keyed by row index.
///
/// The serialized form ([`to_text`](Self::to_text) /
/// [`from_text`](Self::from_text)) is a line-oriented text format in which
/// every `f64` is stored as the 16-hex-digit big-endian rendering of its
/// IEEE-754 bit pattern, so a round-tripped checkpoint resumes to results
/// bit-identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    points: Vec<DesignPoint>,
    task_counts: Vec<f64>,
    ci_use: CarbonIntensity,
    /// `rows[n]` is the tCDP row for `task_counts[n]`, `None` while
    /// pending.
    rows: Vec<Option<Vec<f64>>>,
    /// Why the originating run stopped.
    reason: StopReason,
}

/// Magic first line of the checkpoint format (versioned).
const CHECKPOINT_HEADER: &str = "cordoba-sweep-checkpoint v1";

/// Parses one [`hex_f64`] token of field `what`, or names it in a typed
/// error.
fn parse_hex_field(token: &str, what: &str) -> Result<f64, CoreError> {
    parse_hex_f64(token)
        .ok_or_else(|| CoreError::Supervision(format!("checkpoint: bad {what} value `{token}`")))
}

impl SweepCheckpoint {
    /// The candidate designs.
    #[must_use]
    pub fn points(&self) -> &[DesignPoint] {
        &self.points
    }

    /// The operational-time axis.
    #[must_use]
    pub fn task_counts(&self) -> &[f64] {
        &self.task_counts
    }

    /// The use-phase carbon intensity.
    #[must_use]
    pub fn ci_use(&self) -> CarbonIntensity {
        self.ci_use
    }

    /// Why the originating run stopped.
    #[must_use]
    pub fn reason(&self) -> StopReason {
        self.reason
    }

    /// Rows already computed.
    #[must_use]
    pub fn completed_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// Total rows in the sweep.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.rows.len()
    }

    /// Completed fraction in `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        self.completed_rows() as f64 / self.rows.len() as f64
    }

    /// Indices of rows still pending, ascending.
    #[must_use]
    pub fn pending_rows(&self) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_none().then_some(i))
            .collect()
    }

    /// A one-paragraph human-readable coverage report.
    #[must_use]
    pub fn coverage_report(&self) -> String {
        format!(
            "sweep interrupted ({}): {}/{} rows complete ({:.1}%), {} designs",
            self.reason,
            self.completed_rows(),
            self.total_rows(),
            self.coverage() * 100.0,
            self.points.len(),
        )
    }

    /// Computes the still-pending rows under `sup` and merges by row
    /// index. With a fresh unbounded supervisor this always completes, and
    /// the resulting [`OpTimeSweep`] is bit-identical to an uninterrupted
    /// [`OpTimeSweep::new`] at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Carbon`] when a pending row's task count is
    /// invalid and [`CoreError::Panicked`] when a row computation panics
    /// (first failing row in input order, either way).
    pub fn resume(mut self, sup: &Supervisor) -> Result<SupervisedSweep, CoreError> {
        let advance = advance_rows(
            &mut self.rows,
            &self.points,
            &self.task_counts,
            self.ci_use,
            sup,
        )?;
        match advance {
            Advance::CompleteFlat(flat) => {
                // The streaming path fills exactly rows × points cells, so
                // the size check cannot fail; the error arm keeps this
                // total without a panic path.
                OpTimeSweep::from_flat(self.points, self.task_counts, self.ci_use, flat)
                    .map(SupervisedSweep::Complete)
                    .ok_or(CoreError::Carbon(CarbonError::Empty {
                        what: "tcdp matrix",
                    }))
            }
            Advance::Rows(None) => {
                let tcdp: Vec<Vec<f64>> = self.rows.into_iter().flatten().collect();
                Ok(SupervisedSweep::Complete(OpTimeSweep::from_rows(
                    self.points,
                    self.task_counts,
                    self.ci_use,
                    tcdp,
                )))
            }
            Advance::Rows(Some(reason)) => {
                self.reason = reason;
                Ok(SupervisedSweep::Partial(PartialSweep {
                    checkpoint: self,
                    reason,
                }))
            }
        }
    }

    /// Serializes the checkpoint to its deterministic text form and
    /// records a checkpoint-written supervision event.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        // Writing to a String cannot fail; the let-bindings keep clippy's
        // unused-result lint satisfied without unwraps.
        let _ = writeln!(out, "{CHECKPOINT_HEADER}");
        let _ = writeln!(out, "reason {}", self.reason.token());
        let _ = writeln!(out, "ci_use {}", hex_f64(self.ci_use.value()));
        let _ = writeln!(out, "task_counts {}", self.task_counts.len());
        for count in &self.task_counts {
            let _ = writeln!(out, "c {}", hex_f64(*count));
        }
        let _ = writeln!(out, "points {}", self.points.len());
        for p in &self.points {
            let _ = writeln!(
                out,
                "p {} {} {} {} {}",
                hex_f64(p.delay.value()),
                hex_f64(p.energy.value()),
                hex_f64(p.embodied.value()),
                hex_f64(p.area.value()),
                p.name,
            );
        }
        let _ = writeln!(out, "rows {}", self.completed_rows());
        for (idx, row) in self.rows.iter().enumerate() {
            if let Some(values) = row {
                let _ = write!(out, "r {idx}");
                for v in values {
                    let _ = write!(out, " {}", hex_f64(*v));
                }
                let _ = writeln!(out);
            }
        }
        let _ = writeln!(out, "end");
        cordoba_obs::record(&Event::CheckpointWritten {
            completed: u64::try_from(self.completed_rows()).unwrap_or(u64::MAX),
        });
        out
    }

    /// Parses and validates a checkpoint written by
    /// [`to_text`](Self::to_text), recording a checkpoint-restored
    /// supervision event on success.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Supervision`] for any structural problem —
    /// wrong header, truncated sections, malformed values, out-of-range or
    /// duplicate row indices, row width not matching the point count — and
    /// [`CoreError::Carbon`] when a restored design point fails
    /// [`DesignPoint::new`] validation.
    pub fn from_text(text: &str) -> Result<Self, CoreError> {
        let bad = |msg: String| CoreError::Supervision(format!("checkpoint: {msg}"));
        let mut lines = text.lines();
        let mut next = |what: &str| {
            lines
                .next()
                .ok_or_else(|| bad(format!("truncated before {what}")))
        };
        if next("header")? != CHECKPOINT_HEADER {
            return Err(bad("unrecognized header".to_string()));
        }
        let reason_line = next("reason")?;
        let reason = reason_line
            .strip_prefix("reason ")
            .and_then(StopReason::from_token)
            .ok_or_else(|| bad(format!("bad reason line `{reason_line}`")))?;
        let ci_line = next("ci_use")?;
        let ci_hex = ci_line
            .strip_prefix("ci_use ")
            .ok_or_else(|| bad(format!("bad ci_use line `{ci_line}`")))?;
        let ci_use = CarbonIntensity::new(parse_hex_field(ci_hex, "ci_use")?);

        let counts_line = next("task_counts")?;
        let n: usize = counts_line
            .strip_prefix("task_counts ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad task_counts line `{counts_line}`")))?;
        if n == 0 {
            return Err(bad("empty task-count axis".to_string()));
        }
        let mut task_counts = Vec::with_capacity(n);
        for _ in 0..n {
            let line = next("task count")?;
            let hex = line
                .strip_prefix("c ")
                .ok_or_else(|| bad(format!("bad count line `{line}`")))?;
            task_counts.push(parse_hex_field(hex, "task count")?);
        }

        let points_line = next("points")?;
        let m: usize = points_line
            .strip_prefix("points ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad points line `{points_line}`")))?;
        if m == 0 {
            return Err(bad("empty design-point list".to_string()));
        }
        let mut points = Vec::with_capacity(m);
        for _ in 0..m {
            let line = next("design point")?;
            // `p <delay> <energy> <embodied> <area> <name…>`; the name is
            // the verbatim rest of the line, so it may contain spaces.
            let mut tokens = line.splitn(6, ' ');
            let tag = tokens.next();
            let (Some("p"), Some(d), Some(e), Some(emb), Some(area), Some(name)) = (
                tag,
                tokens.next(),
                tokens.next(),
                tokens.next(),
                tokens.next(),
                tokens.next(),
            ) else {
                return Err(bad(format!("bad point line `{line}`")));
            };
            points.push(DesignPoint::new(
                name,
                Seconds::new(parse_hex_field(d, "delay")?),
                cordoba_carbon::units::Joules::new(parse_hex_field(e, "energy")?),
                cordoba_carbon::units::GramsCo2e::new(parse_hex_field(emb, "embodied")?),
                cordoba_carbon::units::SquareCentimeters::new(parse_hex_field(area, "area")?),
            )?);
        }

        let rows_line = next("rows")?;
        let done: usize = rows_line
            .strip_prefix("rows ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad rows line `{rows_line}`")))?;
        let mut rows: Vec<Option<Vec<f64>>> = vec![None; n];
        for _ in 0..done {
            let line = next("row")?;
            let mut tokens = line.split_whitespace();
            if tokens.next() != Some("r") {
                return Err(bad(format!("bad row line `{line}`")));
            }
            let idx: usize = tokens
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(format!("bad row index in `{line}`")))?;
            if idx >= n {
                return Err(bad(format!("row index {idx} out of range (rows: {n})")));
            }
            if rows[idx].is_some() {
                return Err(bad(format!("duplicate row index {idx}")));
            }
            let values = tokens
                .map(|tok| parse_hex_field(tok, "row"))
                .collect::<Result<Vec<f64>, CoreError>>()?;
            if values.len() != m {
                return Err(bad(format!(
                    "row {idx} has {} values, expected {m}",
                    values.len()
                )));
            }
            rows[idx] = Some(values);
        }
        if next("end")? != "end" {
            return Err(bad("missing end marker".to_string()));
        }
        cordoba_obs::record(&Event::CheckpointRestored {
            completed: u64::try_from(done).unwrap_or(u64::MAX),
        });
        Ok(Self {
            points,
            task_counts,
            ci_use,
            rows,
            reason,
        })
    }
}

/// Computes the pending rows of a tCDP matrix under supervision, filling
/// `rows` by index. Returns the stop reason when interrupted, or the first
/// (in input order) row error.
/// How [`advance_rows`] finished.
enum Advance {
    /// Clean finish on the sequential streaming path: the complete
    /// row-major tCDP matrix, never split into per-row vectors.
    CompleteFlat(Vec<f64>),
    /// `rows` was updated in place (the chunked path, resumed subsets, or
    /// an interrupted streaming run); `Some` carries the stop reason.
    Rows(Option<StopReason>),
}

/// Sequential fast path for a fresh sweep: streams every row straight into
/// one flat row-major matrix — no per-row allocation and no completion
/// merge copy, matching the unsupervised [`OpTimeSweep::new`]
/// sequential path. Supervision semantics are identical to the chunked
/// engine at one worker: a stop check before every row, per-row panic
/// isolation, per-attempt progress accounting, and work continuing past a
/// failed row so counters and events agree with the chunked path.
fn advance_rows_streaming(
    rows: &mut [Option<Vec<f64>>],
    points: &[DesignPoint],
    task_counts: &[f64],
    ci_use: CarbonIntensity,
    sup: &Supervisor,
) -> Result<Advance, CoreError> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let width = points.len();
    let mut flat: Vec<f64> = Vec::with_capacity(width.saturating_mul(task_counts.len()));
    let mut completed_rows = 0usize;
    let mut first_error: Option<CoreError> = None;
    let mut stopped = false;
    for &n in task_counts {
        if sup.should_stop().is_some() {
            stopped = true;
            break;
        }
        let base = flat.len();
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<(), CarbonError> {
            let ctx = OperationalContext::new(n, ci_use)?;
            flat.extend(points.iter().map(|p| p.tcdp(&ctx).value()));
            Ok(())
        }));
        match attempt {
            Ok(Ok(())) => {
                sup.note_completed(1);
                completed_rows += 1;
            }
            Ok(Err(error)) => {
                // An input-validation error still counts as an attempted
                // unit, exactly like the chunked path.
                sup.note_completed(1);
                if first_error.is_none() {
                    first_error = Some(CoreError::Carbon(error));
                }
            }
            Err(payload) => {
                sup.note_panicked();
                cordoba_obs::record(&Event::ChunkPanic);
                flat.truncate(base);
                if first_error.is_none() {
                    first_error = Some(CoreError::Panicked(panic_message(payload.as_ref())));
                }
            }
        }
    }
    if let Some(error) = first_error {
        return Err(error);
    }
    if !stopped {
        return Ok(Advance::CompleteFlat(flat));
    }
    // Interrupted: split the streamed prefix into per-row checkpoint slots
    // (every attempted row succeeded, so the prefix is densely packed).
    let reason = sup.record_stop(sup.should_stop().unwrap_or(StopReason::Cancelled));
    for (k, slot) in rows.iter_mut().take(completed_rows).enumerate() {
        *slot = Some(flat[k * width..(k + 1) * width].to_vec());
    }
    Ok(Advance::Rows(Some(reason)))
}

/// Renders a panic payload into a stable message (mirrors the rendering
/// in `cordoba_par::supervise` so both paths store identical text).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

fn advance_rows(
    rows: &mut [Option<Vec<f64>>],
    points: &[DesignPoint],
    task_counts: &[f64],
    ci_use: CarbonIntensity,
    sup: &Supervisor,
) -> Result<Advance, CoreError> {
    let pending: Vec<usize> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    if pending.is_empty() {
        return Ok(Advance::Rows(None));
    }
    let hint = cordoba_par::CostHint::per_item_ns(
        crate::dse::TCDP_NS_PER_POINT.saturating_mul(points.len() as u64),
    );
    if hint.workers(pending.len(), cordoba_par::effective_threads()) == 1
        && pending.len() == rows.len()
    {
        return advance_rows_streaming(rows, points, task_counts, ci_use, sup);
    }
    let run = cordoba_par::par_map_supervised_hinted(&pending, hint, sup, |_, &idx| {
        let ctx = OperationalContext::new(task_counts[idx], ci_use)?;
        Ok::<Vec<f64>, CarbonError>(points.iter().map(|p| p.tcdp(&ctx).value()).collect())
    });
    // `pending` ascends, so the first error seen here is the first in
    // input order — matching the unsupervised sweep's `try` contract.
    let mut first_error: Option<CoreError> = None;
    for (&idx, outcome) in pending.iter().zip(run.outcomes) {
        match outcome {
            Outcome::Done(Ok(row)) => rows[idx] = Some(row),
            Outcome::Done(Err(error)) => {
                if first_error.is_none() {
                    first_error = Some(CoreError::Carbon(error));
                }
            }
            Outcome::Panicked(message) => {
                if first_error.is_none() {
                    first_error = Some(CoreError::Panicked(message));
                }
            }
            Outcome::Skipped => {}
        }
    }
    if let Some(error) = first_error {
        return Err(error);
    }
    Ok(Advance::Rows(run.stop))
}

/// Evaluates the Fig. 8 tCDP grid under supervision. A completed run
/// returns [`SupervisedSweep::Complete`] with a sweep bit-identical to
/// [`OpTimeSweep::new`]; an interrupted run returns a resumable
/// [`PartialSweep`]. Completed rows are bit-identical at every thread
/// count.
///
/// # Errors
///
/// Same input validation as [`OpTimeSweep::new`], plus
/// [`CoreError::Panicked`] when a row computation panics.
pub fn op_time_sweep_supervised(
    points: Vec<DesignPoint>,
    task_counts: Vec<f64>,
    ci_use: CarbonIntensity,
    sup: &Supervisor,
) -> Result<SupervisedSweep, CoreError> {
    let _span = cordoba_obs::span_with(
        "core/op_time_sweep_supervised",
        "rows",
        u64::try_from(task_counts.len()).unwrap_or(u64::MAX),
    );
    if points.is_empty() {
        return Err(CoreError::Carbon(CarbonError::Empty {
            what: "design points",
        }));
    }
    if task_counts.is_empty() {
        return Err(CoreError::Carbon(CarbonError::Empty {
            what: "task counts",
        }));
    }
    let checkpoint = SweepCheckpoint {
        rows: vec![None; task_counts.len()],
        points,
        task_counts,
        ci_use,
        reason: StopReason::Cancelled,
    };
    checkpoint.resume(sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{evaluate_space, log_sweep};
    use cordoba_accel::space::design_space;
    use cordoba_carbon::intensity::grids;

    fn points() -> Vec<DesignPoint> {
        let configs = design_space();
        evaluate_space(&configs, &Task::ai_5_kernels(), &EmbodiedModel::default()).unwrap()
    }

    #[test]
    fn supervised_eval_matches_resilient_when_unbounded() {
        let configs = design_space();
        let task = Task::xr_5_kernels();
        let embodied = EmbodiedModel::default();
        let strict = evaluate_space(&configs, &task, &embodied).unwrap();
        for threads in [1, 2] {
            let sup = Supervisor::unbounded();
            let eval = cordoba_par::with_threads(threads, || {
                evaluate_space_supervised(&configs, &task, &embodied, &sup)
            });
            assert!(eval.is_complete());
            assert!((eval.coverage() - 1.0).abs() < 1e-12);
            let resilient = eval.to_resilient().unwrap();
            assert!(resilient.failures.is_empty());
            assert_eq!(resilient.points, strict);
        }
    }

    #[test]
    fn interrupted_eval_resumes_to_identical_bits() {
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let embodied = EmbodiedModel::default();
        let full = evaluate_space(&configs, &task, &embodied).unwrap();
        for trip in [0u64, 1, 40, 120] {
            let sup = Supervisor::tripping_after(trip);
            let mut eval = cordoba_par::with_threads(1, || {
                evaluate_space_supervised(&configs, &task, &embodied, &sup)
            });
            assert_eq!(eval.stop(), Some(StopReason::Cancelled), "trip {trip}");
            assert_eq!(eval.attempted(), trip as usize, "trip {trip}");
            let fresh = Supervisor::unbounded();
            cordoba_par::with_threads(2, || eval.resume(&configs, &task, &embodied, &fresh))
                .unwrap();
            assert!(eval.is_complete());
            assert_eq!(eval.to_resilient().unwrap().points, full);
        }
    }

    #[test]
    fn resume_rejects_mismatched_configs() {
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let embodied = EmbodiedModel::default();
        let sup = Supervisor::tripping_after(3);
        let err = cordoba_par::with_threads(1, || {
            let mut eval = evaluate_space_supervised(&configs, &task, &embodied, &sup);
            eval.resume(&configs[..5], &task, &embodied, &Supervisor::unbounded())
        })
        .unwrap_err();
        assert!(err.to_string().contains("supervision"));
    }

    #[test]
    fn supervised_sweep_completes_identically() {
        let pts = points();
        let counts = log_sweep(4, 9, 2);
        cordoba_par::with_threads(2, || {
            let direct = OpTimeSweep::new(pts.clone(), counts.clone(), grids::US_AVERAGE).unwrap();
            let sup = Supervisor::unbounded();
            let run = op_time_sweep_supervised(pts, counts, grids::US_AVERAGE, &sup)
                .unwrap()
                .complete()
                .unwrap();
            assert_eq!(run, direct);
        });
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly_and_resumes() {
        let pts = points();
        let counts = log_sweep(4, 9, 3);
        let direct = cordoba_par::with_threads(1, || {
            OpTimeSweep::new(pts.clone(), counts.clone(), grids::US_AVERAGE).unwrap()
        });
        for trip in [0u64, 1, 5, 10] {
            let sup = Supervisor::tripping_after(trip);
            let partial = cordoba_par::with_threads(1, || {
                op_time_sweep_supervised(pts.clone(), counts.clone(), grids::US_AVERAGE, &sup)
            })
            .unwrap()
            .partial()
            .unwrap();
            assert_eq!(partial.checkpoint.completed_rows(), trip as usize);
            assert!(partial.coverage_report().contains("rows complete"));
            let text = partial.checkpoint.to_text();
            let restored = SweepCheckpoint::from_text(&text).unwrap();
            assert_eq!(restored, partial.checkpoint);
            let resumed =
                cordoba_par::with_threads(2, || restored.resume(&Supervisor::unbounded()))
                    .unwrap()
                    .complete()
                    .unwrap();
            assert_eq!(resumed, direct, "trip {trip}");
            // The resumed sweep stores the flat row-major matrix; rows and
            // scalar lookups must agree with it bit-for-bit.
            let width = resumed.points.len();
            assert_eq!(
                resumed.tcdp_matrix().len(),
                width * resumed.task_counts.len()
            );
            for n in 0..resumed.task_counts.len() {
                assert_eq!(
                    resumed.row(n),
                    &resumed.tcdp_matrix()[n * width..(n + 1) * width]
                );
                for p in 0..width {
                    assert_eq!(
                        resumed.tcdp_at(n, p).to_bits(),
                        direct.tcdp_at(n, p).to_bits(),
                        "trip {trip} row {n} point {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let pts = points();
        let sup = Supervisor::tripping_after(2);
        let partial = cordoba_par::with_threads(1, || {
            op_time_sweep_supervised(pts, log_sweep(4, 8, 2), grids::US_AVERAGE, &sup)
        })
        .unwrap()
        .partial()
        .unwrap();
        let text = partial.checkpoint.to_text();
        assert!(SweepCheckpoint::from_text("").is_err());
        assert!(SweepCheckpoint::from_text("garbage\n").is_err());
        // Truncation mid-file.
        let cut: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        assert!(SweepCheckpoint::from_text(&cut).is_err());
        // A corrupted hex token.
        let broken = text.replacen("r 0 ", "r 999 ", 1);
        if broken != text {
            assert!(SweepCheckpoint::from_text(&broken).is_err());
        }
        // Hostile value tokens: only exactly 16 hex digits parse.
        let ci_line = text.lines().nth(2).unwrap();
        assert!(ci_line.starts_with("ci_use "));
        let hostile = [
            "+3ff000000000000",  // sign prefix
            "3ff00000000000",    // fewer than 16 digits
            "03ff0000000000000", // 17 digits
            "3ff000000000000g",  // non-hex digit
        ];
        for token in hostile {
            let broken = text.replacen(ci_line, &format!("ci_use {token}"), 1);
            match SweepCheckpoint::from_text(&broken) {
                Err(CoreError::Supervision(msg)) => {
                    assert!(msg.contains("bad ci_use value"), "{token}: {msg}");
                }
                other => panic!("{token}: expected a typed supervision error, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_trip_checkpoint_has_no_rows_but_full_inputs() {
        let pts = points();
        let counts = log_sweep(4, 8, 1);
        let sup = Supervisor::tripping_after(0);
        let partial = cordoba_par::with_threads(1, || {
            op_time_sweep_supervised(pts.clone(), counts.clone(), grids::US_AVERAGE, &sup)
        })
        .unwrap()
        .partial()
        .unwrap();
        assert_eq!(partial.checkpoint.completed_rows(), 0);
        assert_eq!(partial.checkpoint.total_rows(), counts.len());
        assert_eq!(partial.checkpoint.points().len(), pts.len());
        assert_eq!(partial.checkpoint.pending_rows().len(), counts.len());
        assert!(partial.checkpoint.coverage() < 1e-12);
    }

    #[test]
    fn supervised_sweep_validates_inputs() {
        let sup = Supervisor::unbounded();
        cordoba_par::with_threads(1, || {
            assert!(
                op_time_sweep_supervised(vec![], log_sweep(0, 1, 1), grids::US_AVERAGE, &sup)
                    .is_err()
            );
            assert!(op_time_sweep_supervised(points(), vec![], grids::US_AVERAGE, &sup).is_err());
            assert!(
                op_time_sweep_supervised(points(), vec![-3.0], grids::US_AVERAGE, &sup).is_err()
            );
        });
    }
}
