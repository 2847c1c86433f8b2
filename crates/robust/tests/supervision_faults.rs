//! Supervision fault injection: interrupt long-running pipelines at
//! seeded trip points and prove the workspace's checkpoint/resume
//! invariant — a run interrupted at *any* point and resumed is
//! bit-identical to an uninterrupted run at any thread count — plus the
//! panic-isolation contract (a panicking work unit is quarantined in
//! input order; the process survives).
//!
//! Every interruption point is derived from a `FaultPlan` seed
//! ([`FaultPlan::trip_point`]), so any failure reproduces exactly from
//! the seed printed in the assertion message.

use cordoba::prelude::*;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::params::TechTuning;
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::prelude::{grids, GramsCo2e, Joules, Seconds, SquareCentimeters};
use cordoba_robust::prelude::*;
use cordoba_robust::supervise::{par_map_supervised, Outcome};
use cordoba_workloads::task::Task;
use std::time::Duration;

/// Marker that tells the filtering panic hook to swallow the report;
/// intentional panics in these tests would otherwise spam the log.
const QUIET: &str = "[quiet-test-panic]";

fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(QUIET))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(QUIET));
            if !quiet {
                default(info);
            }
        }));
    });
}

/// A small hand-built design set: cheap enough for thousand-seed loops,
/// and with a space in each name to exercise checkpoint name parsing.
fn synthetic_points() -> Vec<DesignPoint> {
    (1..=6)
        .map(|i| {
            let f = f64::from(i);
            DesignPoint::new(
                format!("design {i}"),
                Seconds::new(0.8 + 0.1 * f),
                Joules::new(30.0 + 3.0 * f),
                GramsCo2e::new(9000.0 - 400.0 * f),
                SquareCentimeters::new(0.4 + 0.05 * f),
            )
            .expect("synthetic design points are valid")
        })
        .collect()
}

/// The core invariant, at a thousand seeded interruption points: an
/// `OpTimeSweep` cancelled mid-flight, checkpointed through the text
/// format, and resumed lands on the exact bits of the uninterrupted run
/// — regardless of the thread count on either side of the cut.
#[test]
fn sweep_interrupted_at_a_thousand_seeded_points_resumes_bit_identically() {
    let pts = synthetic_points();
    let counts = log_sweep(3, 9, 2);
    let rows = counts.len() as u64;
    let baseline = OpTimeSweep::new(pts.clone(), counts.clone(), grids::US_AVERAGE)
        .expect("baseline sweep builds");
    for seed in 0..1000u64 {
        let plan = FaultPlan::new(seed);
        let trip = plan.trip_point(rows);
        // Even seeds interrupt on the exact sequential path (trip point is
        // then exact); odd seeds interrupt mid-parallel (the cut set is
        // scheduler-dependent, the merged result must not be).
        let interrupt_threads = if seed % 2 == 0 { 1 } else { 2 };
        let run = cordoba_par::with_threads(interrupt_threads, || {
            op_time_sweep_supervised(
                pts.clone(),
                counts.clone(),
                grids::US_AVERAGE,
                &Supervisor::tripping_after(trip),
            )
        })
        .expect("supervised sweep accepts valid inputs");
        let resumed = match run {
            SupervisedSweep::Complete(sweep) => {
                assert_eq!(
                    trip, rows,
                    "seed {seed}: completed despite trip {trip} < {rows}"
                );
                sweep
            }
            SupervisedSweep::Partial(partial) => {
                assert_eq!(partial.reason, StopReason::Cancelled, "seed {seed}");
                if interrupt_threads == 1 {
                    assert_eq!(
                        partial.checkpoint.completed_rows() as u64,
                        trip,
                        "seed {seed}: sequential trip point should be exact"
                    );
                }
                let text = partial.checkpoint.to_text();
                let restored = SweepCheckpoint::from_text(&text).expect("checkpoint round-trips");
                assert_eq!(
                    restored, partial.checkpoint,
                    "seed {seed}: lossy checkpoint"
                );
                let fresh = Supervisor::unbounded();
                match seed % 3 {
                    0 => cordoba_par::with_threads(1, || restored.resume(&fresh)),
                    1 => cordoba_par::with_threads(2, || restored.resume(&fresh)),
                    _ => restored.resume(&fresh),
                }
                .expect("resume accepts a valid checkpoint")
                .complete()
                .expect("a fresh unbounded supervisor completes the sweep")
            }
        };
        assert_eq!(
            resumed, baseline,
            "seed {seed}: resume diverged from baseline"
        );
    }
}

/// Deadline faults: a zero-budget deadline stops the sweep before any row,
/// the checkpoint records the deadline reason, and resume still completes
/// to the baseline bits.
#[test]
fn zero_deadline_interrupts_sweep_and_checkpoint_resumes() {
    let pts = synthetic_points();
    let counts = log_sweep(3, 9, 2);
    let baseline = OpTimeSweep::new(pts.clone(), counts.clone(), grids::US_AVERAGE)
        .expect("baseline sweep builds");
    for threads in [1, 2, 4] {
        let partial = cordoba_par::with_threads(threads, || {
            op_time_sweep_supervised(
                pts.clone(),
                counts.clone(),
                grids::US_AVERAGE,
                &Supervisor::with_deadline(Duration::ZERO),
            )
        })
        .expect("supervised sweep accepts valid inputs")
        .partial()
        .expect("a zero deadline must interrupt the sweep");
        assert_eq!(
            partial.reason,
            StopReason::DeadlineExceeded,
            "threads {threads}"
        );
        assert_eq!(partial.checkpoint.completed_rows(), 0, "threads {threads}");
        let text = partial.checkpoint.to_text();
        assert!(
            text.contains("deadline-exceeded"),
            "checkpoint should serialize the deadline reason"
        );
        let restored = SweepCheckpoint::from_text(&text).expect("checkpoint round-trips");
        let resumed =
            cordoba_par::with_threads(threads, || restored.resume(&Supervisor::unbounded()))
                .expect("resume accepts a valid checkpoint")
                .complete()
                .expect("resume completes");
        assert_eq!(resumed, baseline, "threads {threads}");
    }
}

/// Space evaluation under combined faults: one seeded-poisoned
/// configuration in the space *and* a seeded mid-run interruption. After
/// resume, the points and the quarantine list (order included) must match
/// the uninterrupted resilient evaluation exactly.
#[test]
fn interrupted_eval_with_poisoned_configs_resumes_and_quarantines_in_order() {
    let task = Task::ai_5_kernels();
    let embodied = EmbodiedModel::default();
    for seed in 0..40u64 {
        let plan = FaultPlan::new(seed);
        let mut configs: Vec<AcceleratorConfig> = design_space().into_iter().take(24).collect();
        let poison_at = (seed as usize).wrapping_mul(7) % configs.len();
        configs[poison_at] = AcceleratorConfig::with_tuning(
            "poisoned",
            16,
            cordoba_carbon::prelude::Bytes::from_mebibytes(8.0),
            cordoba_accel::config::MemoryIntegration::OnDie,
            plan.poison_tuning(&TechTuning::n7()),
        )
        .expect("poisoned tuning still constructs");
        let baseline = evaluate_space_resilient(&configs, &task, &embodied);
        let trip = plan.trip_point(configs.len() as u64);
        let sup = Supervisor::tripping_after(trip);
        let mut eval = cordoba_par::with_threads(1, || {
            evaluate_space_supervised(&configs, &task, &embodied, &sup)
        });
        if trip < configs.len() as u64 {
            assert_eq!(eval.stop(), Some(StopReason::Cancelled), "seed {seed}");
            assert_eq!(eval.attempted() as u64, trip, "seed {seed}");
        }
        let resume_threads = 1 + (seed as usize % 3);
        cordoba_par::with_threads(resume_threads, || {
            eval.resume(&configs, &task, &embodied, &Supervisor::unbounded())
        })
        .expect("resume with the original configs succeeds");
        assert!(eval.is_complete(), "seed {seed}");
        let resumed = eval.to_resilient().expect("complete eval converts");
        assert_eq!(
            resumed.points, baseline.points,
            "seed {seed}: points diverged"
        );
        assert_eq!(
            resumed
                .failures
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>(),
            baseline
                .failures
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>(),
            "seed {seed}: quarantine order diverged"
        );
    }
}

/// Panic isolation: work units that panic at seeded positions are
/// quarantined as `Outcome::Panicked` at exactly those input indices, and
/// the quarantine set is identical at 1, 2, and auto threads.
#[test]
fn seeded_panic_faults_are_quarantined_in_input_order_at_any_thread_count() {
    install_quiet_hook();
    let items: Vec<u64> = (0..120).collect();
    for seed in 0..200u64 {
        let plan = FaultPlan::new(seed);
        let modulus = 5 + plan.trip_point(20); // panic stride in [5, 25]
        let phase = seed % modulus;
        let classify = |threads: usize| -> Vec<Option<u64>> {
            let sup = Supervisor::unbounded();
            let run = cordoba_par::with_threads(threads, || {
                par_map_supervised(&items, &sup, |_, &x| {
                    assert!(x % modulus != phase, "{QUIET} poisoned item {x}");
                    x.wrapping_mul(31) ^ seed
                })
            });
            assert!(run.is_complete(), "seed {seed}: no unit skipped");
            run.outcomes
                .into_iter()
                .enumerate()
                .map(|(i, outcome)| match outcome {
                    Outcome::Done(v) => Some(v),
                    Outcome::Panicked(msg) => {
                        assert!(
                            msg.contains(&format!("poisoned item {i}")),
                            "seed {seed}: panic message lost its origin"
                        );
                        None
                    }
                    Outcome::Skipped => panic!("seed {seed}: unexpected skip at {i}"),
                })
                .collect()
        };
        let sequential = classify(1);
        for (i, slot) in sequential.iter().enumerate() {
            let should_panic = (i as u64) % modulus == phase;
            assert_eq!(
                slot.is_none(),
                should_panic,
                "seed {seed}: quarantine set wrong at index {i}"
            );
        }
        assert_eq!(
            sequential,
            classify(2),
            "seed {seed}: 2-thread run diverged"
        );
        assert_eq!(
            sequential,
            classify(cordoba_par::effective_threads()),
            "seed {seed}: auto-thread run diverged"
        );
    }
}
