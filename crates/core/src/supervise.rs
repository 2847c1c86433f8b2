//! Supervised design-space evaluation and checkpointable sweeps.
//!
//! The framework-layer face of the execution-supervision substrate in
//! [`cordoba_par::supervise`]. Only the two stages the CLI's `dse` runs
//! under `--deadline` or `--lenient` accept a [`Supervisor`]; every other
//! pipeline (Monte Carlo, the β solver, SoC provisioning, the event
//! simulator) runs to completion. Instead of running all-or-nothing, each
//! supervised stage keeps a [`Slots`] table — a *partial result keyed by
//! input index* — that resumes later and lands on the exact bits an
//! uninterrupted run would have produced, and only adds its own failure
//! policy on top of [`Slots::advance`].
//!
//! * [`evaluate_space_supervised`] — design-space characterization with
//!   per-configuration slots (done / quarantined / pending) and in-place
//!   [`SupervisedEval::resume`]; failures are quarantined, not returned;
//! * [`op_time_sweep_supervised`] — the Fig. 8 tCDP grid with row-level
//!   checkpointing: an interrupted sweep yields a [`SweepCheckpoint`] that
//!   serializes to a deterministic text format
//!   ([`SweepCheckpoint::to_text`]) the CLI writes to disk and resumes
//!   from (`dse --deadline … --checkpoint …` / `dse --resume …`); the
//!   first failing row in input order aborts the sweep.
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

use crate::dse::{
    push_row, require_axes, EvalBatch, EvalFailure, OpTimeSweep, ResilientEval, RowBlock,
};
use crate::error::CoreError;
use crate::metrics::DesignPoint;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::units::{CarbonIntensity, Seconds};
use cordoba_obs::Event;
use cordoba_par::supervise::{panic_message, Failure, Slots, StopReason, Supervisor};
use cordoba_par::CostHint;
use cordoba_store::{hex_f64, parse_hex_f64};
use cordoba_workloads::task::Task;
use std::fmt::Write as _;

/// The first failure of a [`Slots::advance`] (failures come back in
/// ascending index order, so this is the first in input order) as an
/// error, with a panic becoming [`CoreError::Panicked`].
fn first_failure(failures: Vec<(usize, Failure<CoreError>)>) -> Result<(), CoreError> {
    match failures.into_iter().next() {
        Some((_, failure)) => Err(failure.into_error(CoreError::Panicked)),
        None => Ok(()),
    }
}

/// Outcome of [`evaluate_space_supervised`]: one slot per configuration —
/// a design point, or the quarantined failure — resumable in place until
/// every slot is resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedEval {
    slots: Slots<Result<DesignPoint, EvalFailure>>,
}

impl SupervisedEval {
    /// Per-configuration progress: a slot is filled once its
    /// configuration was characterized or quarantined.
    #[must_use]
    pub fn slots(&self) -> &Slots<Result<DesignPoint, EvalFailure>> {
        &self.slots
    }

    /// The completed evaluation as a [`ResilientEval`] (points and
    /// quarantined failures, both in input order), or `None` while
    /// configurations are still pending.
    #[must_use]
    pub fn to_resilient(&self) -> Option<ResilientEval> {
        let mut result = ResilientEval::default();
        for slot in self.slots.values()? {
            match slot {
                Ok(point) => result.points.push(point.clone()),
                Err(failure) => result.failures.push(failure.clone()),
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
        if configs.len() != self.slots.total() {
            return Err(CoreError::Supervision(format!(
                "resume got {} configs but the evaluation has {} slots",
                configs.len(),
                self.slots.total()
            )));
        }
        // The batch state (SoA tuning arrays, task plan) is built once per
        // resume; the supervised map still isolates panics and checks the
        // stop flag per configuration.
        let batch = EvalBatch::new(configs, task, embodied);
        let failures = self.slots.advance(
            CostHint::per_item_ns(crate::dse::EVAL_NS_PER_CONFIG),
            sup,
            |idx| batch.design_point(idx).map(Ok),
        );
        for (idx, failure) in failures {
            cordoba_obs::record(&Event::Quarantine);
            let name = configs[idx].name().to_string();
            let error = failure.into_error(CoreError::Panicked);
            self.slots.fill(idx, Err(EvalFailure { name, error }));
        }
        Ok(())
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
        slots: Slots::new(configs.len()),
    };
    // The slot count matches `configs` by construction.
    let _ = eval.resume(configs, task, embodied, sup);
    eval
}

/// Outcome of a supervised operational-time sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisedSweep {
    /// Every row was computed; the sweep is bit-identical to
    /// [`OpTimeSweep::new`] on the same inputs.
    Complete(OpTimeSweep),
    /// The supervisor stopped the sweep; the checkpoint holds every
    /// computed row and can be serialized and resumed.
    Partial(SweepCheckpoint),
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

    /// The checkpoint, if the run was interrupted.
    #[must_use]
    pub fn partial(self) -> Option<SweepCheckpoint> {
        match self {
            Self::Complete(_) => None,
            Self::Partial(checkpoint) => Some(checkpoint),
        }
    }
}

/// Resumable state of an interrupted [`OpTimeSweep`]: the inputs plus
/// every tCDP row already computed, keyed by row index, and the reason the
/// run stopped.
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
    /// Slot `n` holds the tCDP row for `task_counts[n]`.
    rows: Slots<Vec<f64>>,
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
        // A checkpoint only exists for a stopped run (an interrupted sweep
        // or a parsed file), so the fallback never fires.
        self.rows.stop().unwrap_or(StopReason::Cancelled)
    }

    /// Per-row progress: slot `n` is filled once the tCDP row for
    /// `task_counts()[n]` is computed.
    #[must_use]
    pub fn slots(&self) -> &Slots<Vec<f64>> {
        &self.rows
    }

    /// A one-paragraph human-readable coverage report.
    #[must_use]
    pub fn coverage_report(&self) -> String {
        format!(
            "sweep interrupted ({}): {}/{} rows complete ({:.1}%), {} designs",
            self.reason(),
            self.rows.completed(),
            self.rows.total(),
            self.rows.coverage() * 100.0,
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
        let hint = CostHint::per_item_ns(
            crate::dse::TCDP_NS_PER_POINT.saturating_mul(self.points.len() as u64),
        );
        if self.rows.completed() == 0
            && hint.workers(self.rows.total(), cordoba_par::effective_threads()) == 1
        {
            let streamed = advance_rows_streaming(
                &mut self.rows,
                &self.points,
                &self.task_counts,
                self.ci_use,
                sup,
            )?;
            return Ok(match streamed {
                Some(block) => SupervisedSweep::Complete(OpTimeSweep::from_summarized(
                    self.points,
                    self.task_counts,
                    self.ci_use,
                    block,
                )),
                None => SupervisedSweep::Partial(self),
            });
        }
        let (points, task_counts, ci_use) = (&self.points, &self.task_counts, self.ci_use);
        first_failure(self.rows.advance(hint, sup, |idx| {
            // A slot holds the bare row; the completed sweep summarizes
            // every row once, restored ones included.
            let mut row = Vec::with_capacity(points.len());
            push_row(points, task_counts[idx], ci_use, &mut row)?;
            Ok(row)
        }))?;
        let Some(flat) = self
            .rows
            .values()
            .map(|rows| rows.flatten().copied().collect())
        else {
            return Ok(SupervisedSweep::Partial(self));
        };
        // The flat matrix holds exactly rows × points cells of non-empty
        // inputs, so the shape check cannot fail.
        Ok(SupervisedSweep::Complete(OpTimeSweep::from_flat(
            self.points,
            self.task_counts,
            self.ci_use,
            flat,
        )?))
    }

    /// Serializes the checkpoint to its deterministic text form and
    /// records a checkpoint-written supervision event.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        // Writing to a String cannot fail; the let-bindings keep clippy's
        // unused-result lint satisfied without unwraps.
        let _ = writeln!(out, "{CHECKPOINT_HEADER}");
        let _ = writeln!(out, "reason {}", self.reason().token());
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
        let _ = writeln!(out, "rows {}", self.rows.completed());
        for (idx, values) in self.rows.filled() {
            let _ = write!(out, "r {idx}");
            for v in values {
                let _ = write!(out, " {}", hex_f64(*v));
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "end");
        cordoba_obs::record(&Event::CheckpointWritten {
            completed: u64::try_from(self.rows.completed()).unwrap_or(u64::MAX),
        });
        out
    }

    /// Parses and validates a checkpoint written by
    /// [`to_text`](Self::to_text), recording a checkpoint-restored
    /// supervision event on success.
    ///
    /// Header counts are never trusted for allocation: every section grows
    /// one parsed line at a time, so a hostile count fails as truncation
    /// once the file runs out of lines.
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
        let mut task_counts = Vec::new();
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
        let mut points = Vec::new();
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
        // `n` is backed by `n` parsed count lines by now, so it is safe to
        // size the slot table from it.
        let mut rows = Slots::new(n);
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
            let values = tokens
                .map(|tok| parse_hex_field(tok, "row"))
                .collect::<Result<Vec<f64>, CoreError>>()?;
            if values.len() != m {
                return Err(bad(format!(
                    "row {idx} has {} values, expected {m}",
                    values.len()
                )));
            }
            if rows.fill(idx, values).is_some() {
                return Err(bad(format!("duplicate row index {idx}")));
            }
        }
        if next("end")? != "end" {
            return Err(bad("missing end marker".to_string()));
        }
        rows.set_stop(Some(reason));
        cordoba_obs::record(&Event::CheckpointRestored {
            completed: u64::try_from(done).unwrap_or(u64::MAX),
        });
        Ok(Self {
            points,
            task_counts,
            ci_use,
            rows,
        })
    }
}

/// Sequential fast path for a fresh sweep: streams every row straight into
/// one flat row-major matrix, summarizing each as it is written — no
/// per-row allocation and no completion merge copy, matching the
/// unsupervised [`OpTimeSweep::new`] single-block path. Supervision
/// semantics are those of [`Slots::advance`] at one
/// worker: a stop check before every row, per-row panic isolation,
/// per-attempt progress accounting, and work continuing past a failed row
/// so counters and events agree.
///
/// Returns the complete matrix with its row summaries, or `None` after
/// filling the streamed prefix into `rows` and recording the stop when the
/// supervisor stopped the sweep.
fn advance_rows_streaming(
    rows: &mut Slots<Vec<f64>>,
    points: &[DesignPoint],
    task_counts: &[f64],
    ci_use: CarbonIntensity,
    sup: &Supervisor,
) -> Result<Option<RowBlock>, CoreError> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let width = points.len();
    let mut flat: Vec<f64> = Vec::with_capacity(width.saturating_mul(task_counts.len()));
    let mut summaries = Vec::with_capacity(task_counts.len());
    let mut first_error: Option<CoreError> = None;
    let mut stopped = false;
    for &n in task_counts {
        if sup.should_stop().is_some() {
            stopped = true;
            break;
        }
        let base = flat.len();
        let attempt = catch_unwind(AssertUnwindSafe(|| push_row(points, n, ci_use, &mut flat)));
        match attempt {
            Ok(Ok(summary)) => {
                sup.note_completed(1);
                summaries.push(summary);
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
        return Ok(Some((flat, summaries)));
    }
    // Interrupted: split the streamed prefix into per-row checkpoint slots
    // (every attempted row succeeded, so the prefix is densely packed).
    let reason = sup.record_stop(sup.should_stop().unwrap_or(StopReason::Cancelled));
    for (k, row) in flat.chunks_exact(width).take(summaries.len()).enumerate() {
        rows.fill(k, row.to_vec());
    }
    rows.set_stop(Some(reason));
    Ok(None)
}

/// Evaluates the Fig. 8 tCDP grid under supervision. A completed run
/// returns [`SupervisedSweep::Complete`] with a sweep bit-identical to
/// [`OpTimeSweep::new`]; an interrupted run returns a resumable
/// [`SweepCheckpoint`]. Completed rows are bit-identical at every thread
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
    require_axes(&points, &task_counts)?;
    let checkpoint = SweepCheckpoint {
        rows: Slots::new(task_counts.len()),
        points,
        task_counts,
        ci_use,
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
            assert!(eval.slots().is_complete());
            assert!((eval.slots().coverage() - 1.0).abs() < 1e-12);
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
            assert_eq!(
                eval.slots().stop(),
                Some(StopReason::Cancelled),
                "trip {trip}"
            );
            assert_eq!(eval.slots().completed(), trip as usize, "trip {trip}");
            let fresh = Supervisor::unbounded();
            cordoba_par::with_threads(2, || eval.resume(&configs, &task, &embodied, &fresh))
                .unwrap();
            assert!(eval.slots().is_complete());
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
            assert_eq!(partial.slots().completed(), trip as usize);
            assert!(partial.coverage_report().contains("rows complete"));
            let text = partial.to_text();
            let restored = SweepCheckpoint::from_text(&text).unwrap();
            assert_eq!(restored, partial);
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
        let text = partial.to_text();
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
        // Hostile tokens: only exactly 16 hex digits parse, and a header
        // count far beyond the file's lines fails on the first line that is
        // not an entry instead of pre-sizing an allocation.
        let hostile = [
            ("ci_use", "+3ff000000000000", "bad ci_use value"), // sign prefix
            ("ci_use", "3ff00000000000", "bad ci_use value"),   // fewer than 16 digits
            ("ci_use", "03ff0000000000000", "bad ci_use value"), // 17 digits
            ("ci_use", "3ff000000000000g", "bad ci_use value"), // non-hex digit
            ("task_counts", "18446744073709551615", "bad count line"),
            ("points", "100000000000", "bad point line"),
        ];
        for (key, token, expected) in hostile {
            let line = text.lines().find(|l| l.starts_with(key)).unwrap();
            let broken = text.replacen(line, &format!("{key} {token}"), 1);
            match SweepCheckpoint::from_text(&broken) {
                Err(CoreError::Supervision(msg)) => {
                    assert!(msg.contains(expected), "{token}: {msg}");
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
        assert_eq!(partial.slots().completed(), 0);
        assert_eq!(partial.slots().total(), counts.len());
        assert_eq!(partial.points().len(), pts.len());
        assert_eq!(partial.slots().pending().len(), counts.len());
        assert!(partial.slots().coverage() < 1e-12);
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
