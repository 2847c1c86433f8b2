//! Spec suite for the sweep survivor queries: `OpTimeSweep` answers
//! `optimal_at`, `ever_optimal`, `elimination_fraction`,
//! `robustness_scores`, `robust_choice`, `robustness_score`,
//! `normalized_at` and `optimal_vs_average_at` from per-row summaries
//! recorded as each row is written. Each answer must carry exactly the
//! bits of the original whole-matrix definitions, kept below as reference
//! functions over `tcdp_matrix()`.
//!
//! The seeded sweeps cover the cases where the fast scan could diverge
//! from the serial definitions: tied tCDP values (the *first* minimum
//! wins), duplicate names, rows holding `+inf`, rows holding NaN, and rows
//! mixing `-0.0` and `+0.0` (`ci_use = -0.0` with zero embodied carbon of
//! either sign). Every sweep is built five ways — `OpTimeSweep::new` at one
//! and two threads, `op_time_sweep_stored` cold and warm, and
//! `op_time_sweep_supervised` interrupted and resumed — and every build
//! must agree with the references.
//!
//! Like `prop_store.rs`, these are hand-rolled seeded generators driving
//! explicit case loops through `StdRng` streams. The last test pins the
//! paper's §IV-B theorem on the accelerator space itself: every design
//! the sweep ever finds optimal lies on the (`C_emb·D`, `E·D`) Pareto
//! front.

use cordoba::prelude::*;
use cordoba_carbon::units::{CarbonIntensity, GramsCo2e, Joules, Seconds, SquareCentimeters};
use cordoba_par::Supervisor;
use cordoba_store::Store;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

// ------------------------------------------------------------- references
// The query bodies as they were before the row summaries, over the flat
// matrix.

fn ref_row(s: &OpTimeSweep, n: usize) -> &[f64] {
    let width = s.points.len();
    &s.tcdp_matrix()[n * width..(n + 1) * width]
}

fn ref_optimal_at(s: &OpTimeSweep, n: usize) -> usize {
    ref_row(s, n)
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("points is non-empty")
        .0
}

fn ref_ever_optimal(s: &OpTimeSweep) -> BTreeSet<String> {
    (0..s.task_counts.len())
        .map(|n| s.points[ref_optimal_at(s, n)].name.clone())
        .collect()
}

fn ref_elimination_fraction(s: &OpTimeSweep) -> f64 {
    1.0 - ref_ever_optimal(s).len() as f64 / s.points.len() as f64
}

fn ref_normalized_at(s: &OpTimeSweep, n: usize) -> Vec<f64> {
    let row = ref_row(s, n);
    let best = row[ref_optimal_at(s, n)];
    row.iter().map(|v| v / best).collect()
}

fn ref_robustness_score(s: &OpTimeSweep, p: usize) -> f64 {
    let sum: f64 = (0..s.task_counts.len())
        .map(|n| ref_normalized_at(s, n)[p])
        .sum();
    sum / s.task_counts.len() as f64
}

fn ref_robustness_scores(s: &OpTimeSweep) -> Vec<f64> {
    let mut sums = vec![0.0; s.points.len()];
    for row in s.tcdp_matrix().chunks_exact(s.points.len()) {
        let best = row.iter().copied().fold(f64::INFINITY, f64::min);
        for (sum, v) in sums.iter_mut().zip(row) {
            *sum += v / best;
        }
    }
    let n = s.task_counts.len() as f64;
    sums.iter_mut().for_each(|s| *s /= n);
    sums
}

fn ref_robust_choice(s: &OpTimeSweep) -> usize {
    ref_robustness_scores(s)
        .into_iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("points is non-empty")
        .0
}

fn ref_optimal_vs_average_at(s: &OpTimeSweep, n: usize) -> f64 {
    let row = ref_row(s, n);
    row.iter().sum::<f64>() / s.points.len() as f64 / row[ref_optimal_at(s, n)]
}

// ------------------------------------------------------------- generators

/// What a seeded sweep stresses.
#[derive(Debug, Clone, Copy)]
enum Flavor {
    /// Plain random designs.
    Plain,
    /// Exact copies of designs under other names, and reused names: tied
    /// tCDP values and duplicate survivors.
    Ties,
    /// Task counts large enough that big-energy rows overflow to `+inf`.
    Infinite,
    /// `ci_use = 0` with overflowing task counts: `0 × inf` puts NaN in
    /// the rows.
    Nan,
    /// `ci_use = -0.0` with zero embodied carbon of both signs: rows mix
    /// `-0.0`, `+0.0` and positive values, with a zero minimum.
    SignedZeros,
}

const FLAVORS: [Flavor; 5] = [
    Flavor::Plain,
    Flavor::Ties,
    Flavor::Infinite,
    Flavor::Nan,
    Flavor::SignedZeros,
];

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp()
}

fn point(name: String, delay: f64, energy: f64, embodied: f64) -> DesignPoint {
    DesignPoint::new(
        name,
        Seconds::new(delay),
        Joules::new(energy),
        GramsCo2e::new(embodied),
        SquareCentimeters::new(1.0),
    )
    .unwrap()
}

/// A seeded sweep input of `width` designs and `rows` task counts.
fn sweep_input(
    rng: &mut StdRng,
    flavor: Flavor,
    width: usize,
    rows: usize,
) -> (Vec<DesignPoint>, Vec<f64>, CarbonIntensity) {
    let mut points: Vec<DesignPoint> = (0..width)
        .map(|i| {
            let embodied = match flavor {
                Flavor::SignedZeros => [0.0, -0.0, log_uniform(rng, 1.0, 1e4)][i % 3],
                _ => log_uniform(rng, 1.0, 1e4),
            };
            point(
                format!("d{i}"),
                log_uniform(rng, 1e-4, 1.0),
                log_uniform(rng, 1e-3, 1e6),
                embodied,
            )
        })
        .collect();
    if matches!(flavor, Flavor::Ties) {
        // Every design copies one of a few bases, so each row's optimum is
        // tied several times over; odd slots keep the base's name
        // (duplicate survivors), even ones take their own (tied values
        // under distinct names).
        let bases = points[..width.div_ceil(4)].to_vec();
        for (i, slot) in points.iter_mut().enumerate() {
            let base = &bases[rng.gen_range(0..bases.len())];
            let name = if i % 2 == 1 {
                base.name.clone()
            } else {
                format!("tie{i}")
            };
            *slot = point(
                name,
                base.delay.value(),
                base.energy.value(),
                base.embodied.value(),
            );
        }
    }
    let mut counts: Vec<f64> = (0..rows).map(|_| log_uniform(rng, 1.0, 1e12)).collect();
    if matches!(flavor, Flavor::Infinite | Flavor::Nan) {
        for count in counts.iter_mut().step_by(3) {
            *count = log_uniform(rng, 1e303, 1e307);
        }
    }
    let ci = match flavor {
        Flavor::Nan => CarbonIntensity::new(0.0),
        Flavor::SignedZeros => CarbonIntensity::new(-0.0),
        _ => CarbonIntensity::new(rng.gen_range(20.0..900.0)),
    };
    (points, counts, ci)
}

// ------------------------------------------------------------- assertions

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts every survivor query of `s` against its reference; the
/// per-design `robustness_score` is checked at `score_points`.
fn assert_queries(s: &OpTimeSweep, score_points: &[usize], what: &str) {
    for n in 0..s.task_counts.len() {
        assert_eq!(
            s.optimal_at(n),
            ref_optimal_at(s, n),
            "{what}: optimal_at({n})"
        );
        assert_eq!(
            bits(&s.normalized_at(n)),
            bits(&ref_normalized_at(s, n)),
            "{what}: normalized_at({n})"
        );
        assert_eq!(
            s.optimal_vs_average_at(n).to_bits(),
            ref_optimal_vs_average_at(s, n).to_bits(),
            "{what}: optimal_vs_average_at({n})"
        );
    }
    assert_eq!(
        s.ever_optimal(),
        ref_ever_optimal(s),
        "{what}: ever_optimal"
    );
    assert_eq!(
        s.elimination_fraction().to_bits(),
        ref_elimination_fraction(s).to_bits(),
        "{what}: elimination_fraction"
    );
    assert_eq!(
        bits(&s.robustness_scores()),
        bits(&ref_robustness_scores(s)),
        "{what}: robustness_scores"
    );
    assert_eq!(
        s.robust_choice(),
        ref_robust_choice(s),
        "{what}: robust_choice"
    );
    for &p in score_points {
        assert_eq!(
            s.robustness_score(p).to_bits(),
            ref_robustness_score(s, p).to_bits(),
            "{what}: robustness_score({p})"
        );
    }
}

/// Builds the sweep every way and checks each build's matrix against the
/// single-threaded one and its queries against the references.
fn check_every_build(
    points: &[DesignPoint],
    counts: &[f64],
    ci: CarbonIntensity,
    store: &Store,
    score_points: &[usize],
    what: &str,
) {
    let new_at = |threads| {
        cordoba_par::with_threads(threads, || {
            OpTimeSweep::new(points.to_vec(), counts.to_vec(), ci)
        })
        .unwrap()
    };
    let base = new_at(1);
    let mut builds = vec![("new, 2 threads".to_string(), new_at(2))];
    for label in ["stored cold", "stored warm"] {
        let sweep = op_time_sweep_stored(points.to_vec(), counts.to_vec(), ci, store).unwrap();
        builds.push((label.to_string(), sweep));
    }
    for trip in [0, 1, counts.len() / 2, counts.len() - 1] {
        let sup = Supervisor::tripping_after(trip as u64);
        let partial = cordoba_par::with_threads(1, || {
            op_time_sweep_supervised(points.to_vec(), counts.to_vec(), ci, &sup)
        })
        .unwrap()
        .partial()
        .expect("a tripped supervisor interrupts the sweep");
        for threads in [1, 2] {
            let resumed = cordoba_par::with_threads(threads, || {
                partial.clone().resume(&Supervisor::unbounded())
            })
            .unwrap()
            .complete()
            .unwrap();
            builds.push((
                format!("supervised, trip {trip}, resumed at {threads}"),
                resumed,
            ));
        }
    }
    let unbounded = cordoba_par::with_threads(1, || {
        op_time_sweep_supervised(
            points.to_vec(),
            counts.to_vec(),
            ci,
            &Supervisor::unbounded(),
        )
    })
    .unwrap()
    .complete()
    .unwrap();
    builds.push(("supervised, uninterrupted".to_string(), unbounded));

    assert_queries(&base, score_points, &format!("{what}, new at 1 thread"));
    for (label, sweep) in &builds {
        assert_eq!(
            bits(sweep.tcdp_matrix()),
            bits(base.tcdp_matrix()),
            "{what}, {label}: matrix"
        );
        assert_queries(sweep, score_points, &format!("{what}, {label}"));
    }
}

fn temp_store(tag: &str) -> (std::path::PathBuf, Store) {
    let dir = std::env::temp_dir().join(format!("cordoba-prop-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    (dir, store)
}

#[test]
fn seeded_sweeps_answer_every_query_like_the_references() {
    let (dir, store) = temp_store("seeded");
    for seed in 0..6u64 {
        for flavor in FLAVORS {
            let mut rng = StdRng::seed_from_u64(0x5EE9_0000 + seed);
            // Widths straddle the 8-entry lanes and 64-entry scan blocks.
            let width = [1, 7, 9, 64, 65, 130][usize::try_from(seed).unwrap()];
            let rows = rng.gen_range(4..24);
            let (points, counts, ci) = sweep_input(&mut rng, flavor, width, rows);
            let every_point: Vec<usize> = (0..width).collect();
            check_every_build(
                &points,
                &counts,
                ci,
                &store,
                &every_point,
                &format!("seed {seed}, {flavor:?}, {width}x{rows}"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flavors_reach_the_cases_they_name() {
    let mut rng = StdRng::seed_from_u64(0x5EE9_F1A7);
    let sweep_of = |rng: &mut StdRng, flavor| {
        let (points, counts, ci) = sweep_input(rng, flavor, 64, 12);
        OpTimeSweep::new(points, counts, ci).unwrap()
    };
    let ties = sweep_of(&mut rng, Flavor::Ties);
    let rows_with_ties = (0..ties.task_counts.len())
        .filter(|&n| {
            let row = ties.row(n);
            let best = row[ties.optimal_at(n)];
            row.iter().filter(|v| v.to_bits() == best.to_bits()).count() > 1
        })
        .count();
    assert!(rows_with_ties > 0, "no row has a tied optimum");
    let inf = sweep_of(&mut rng, Flavor::Infinite);
    assert!(inf.tcdp_matrix().contains(&f64::INFINITY));
    let nan = sweep_of(&mut rng, Flavor::Nan);
    assert!(nan.tcdp_matrix().iter().any(|v| v.is_nan()));
    let zeros = sweep_of(&mut rng, Flavor::SignedZeros);
    let m = zeros.tcdp_matrix();
    assert!(m.iter().any(|v| v.to_bits() == 0.0f64.to_bits()));
    assert!(m.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
}

#[test]
fn a_sweep_large_enough_to_fan_out_matches_the_references() {
    // 1,250 × 161 entries estimate past the 200 µs inline threshold, so
    // at two threads the rows are built as two blocks and merged.
    let (dir, store) = temp_store("large");
    let mut rng = StdRng::seed_from_u64(0x5EE9_1A26);
    for flavor in [Flavor::Ties, Flavor::SignedZeros] {
        let (points, counts, ci) = sweep_input(&mut rng, flavor, 1_250, 161);
        check_every_build(
            &points,
            &counts,
            ci,
            &store,
            &[0, 1, 624, 1_249],
            &format!("large {flavor:?}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_first_invalid_task_count_still_wins() {
    let mut rng = StdRng::seed_from_u64(0x5EE9_BAD0);
    let (points, mut counts, ci) = sweep_input(&mut rng, Flavor::Plain, 1_250, 161);
    counts[40] = -1.0;
    counts[150] = 0.0;
    for threads in [1, 2] {
        let err = cordoba_par::with_threads(threads, || {
            OpTimeSweep::new(points.clone(), counts.clone(), ci)
        })
        .unwrap_err();
        assert_eq!(
            format!("{err:?}"),
            format!("{:?}", OperationalContext::new(-1.0, ci).unwrap_err()),
            "threads={threads}"
        );
    }
}

#[test]
fn every_ever_optimal_design_lies_on_the_pareto_front() {
    // §IV-B: tCDP(n) = C_emb·D + n·CI_use·E·D is a nonnegative blend of the
    // two Fig. 12 objectives, so every row optimum of the operational-time
    // sweep is Pareto-optimal in (C_emb·D, E·D), and BetaSweep's front is
    // exactly that front. Checked over the accelerator space for every
    // task and every named CLI grid.
    use cordoba_accel::space::design_space;
    use cordoba_carbon::embodied::EmbodiedModel;
    use cordoba_carbon::intensity::grids;
    use cordoba_workloads::task::Task;

    let tasks = [
        Task::all_kernels(),
        Task::xr_10_kernels(),
        Task::ai_10_kernels(),
        Task::xr_5_kernels(),
        Task::ai_5_kernels(),
    ];
    let named_grids = [
        ("coal", grids::COAL),
        ("gas", grids::GAS),
        ("world", grids::WORLD_AVERAGE),
        ("us", grids::US_AVERAGE),
        ("solar", grids::SOLAR),
        ("wind", grids::WIND),
        ("hydro", grids::HYDRO),
        ("nuclear", grids::NUCLEAR),
    ];
    let configs = design_space();
    for task in &tasks {
        let points = evaluate_space(&configs, task, &EmbodiedModel::default()).unwrap();
        let objectives: Vec<Point2> = points.iter().map(cordoba::lagrange::objectives).collect();
        let front = pareto_indices(&objectives);
        let front_names: BTreeSet<&str> = front.iter().map(|&i| points[i].name.as_str()).collect();
        assert_eq!(
            BetaSweep::run(&points).pareto,
            front,
            "{task}: BetaSweep front"
        );
        for (grid, ci) in named_grids {
            let sweep = OpTimeSweep::new(points.clone(), log_sweep(2, 12, 4), ci).unwrap();
            for name in sweep.ever_optimal() {
                assert!(
                    front_names.contains(name.as_str()),
                    "{task} on {grid}: optimal design {name} is off the Pareto front"
                );
            }
        }
    }
}
