//! Determinism contract of the content-addressed result store
//! (`cordoba-store` + the warm paths in `cordoba::store`): a warm start
//! must be *bit-identical* to a fresh computation at every thread count,
//! and store damage must degrade to a graceful miss — never a panic,
//! never a wrong answer from a structurally invalid entry.
//!
//! Like `prop_parallel.rs`, these are hand-rolled seeded generators: the
//! vendored `proptest` stub caps its case count below the coverage this
//! suite wants, so each test drives its own `StdRng` stream through
//! explicit case loops over seeded config subsets.

use cordoba::prelude::*;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::units::CarbonIntensity;
use cordoba_store::Store;
use cordoba_workloads::task::Task;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// A fresh, test-unique store directory (removed by the caller).
fn store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cordoba-prop-store-{tag}-{}", std::process::id()))
}

/// A uniformly random index in `0..n`.
fn index(rng: &mut StdRng, n: usize) -> usize {
    ((rng.gen::<f64>() * n as f64) as usize).min(n - 1)
}

/// A random order-preserving, non-empty subset of the 121-config space.
fn random_configs(rng: &mut StdRng) -> Vec<AcceleratorConfig> {
    let space = design_space();
    let keep_probability = 0.1 + 0.9 * rng.gen::<f64>();
    let mut subset: Vec<AcceleratorConfig> = space
        .iter()
        .filter(|_| rng.gen::<f64>() < keep_probability)
        .cloned()
        .collect();
    if subset.is_empty() {
        subset.push(space[index(rng, space.len())].clone());
    }
    subset
}

fn random_task(rng: &mut StdRng) -> Task {
    match index(rng, 4) {
        0 => Task::all_kernels(),
        1 => Task::xr_10_kernels(),
        2 => Task::ai_10_kernels(),
        _ => Task::xr_5_kernels(),
    }
}

fn random_grid(rng: &mut StdRng) -> CarbonIntensity {
    let grids = [
        grids::COAL,
        grids::GAS,
        grids::US_AVERAGE,
        grids::SOLAR,
        grids::WIND,
        grids::NUCLEAR,
    ];
    grids[index(rng, grids.len())]
}

/// Every file currently in the store directory.
fn entry_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_file())
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

#[test]
fn warm_start_is_bit_identical_to_fresh_compute_at_every_thread_count() {
    let dir = store_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let model = EmbodiedModel::default();
    let mut rng = StdRng::seed_from_u64(0xC0DB_0B41);
    for case in 0..12 {
        let configs = random_configs(&mut rng);
        let task = random_task(&mut rng);
        let ci = random_grid(&mut rng);
        let lo = index(&mut rng, 4) as i32 + 3;
        let hi = lo + 2 + index(&mut rng, 4) as i32;
        // Space evaluation: cold fill, then warm hit, against the fresh
        // path at one, two, and auto worker threads.
        let cold = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        let fresh = evaluate_space(&configs, &task, &model).unwrap();
        assert_eq!(
            cold, fresh,
            "case {case}: cold fill must compute fresh bits"
        );
        let warm = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        assert_eq!(warm, fresh, "case {case}: warm hit must restore exact bits");
        for threads in [1, 2] {
            let threaded =
                cordoba_par::with_threads(threads, || evaluate_space(&configs, &task, &model))
                    .unwrap();
            assert_eq!(warm, threaded, "case {case}: threads={threads}");
        }
        // Sweep: the restored tCDP matrix must equal the computed one.
        let counts = log_sweep(lo, hi, 2);
        let cold_sweep = op_time_sweep_stored(fresh.clone(), counts.clone(), ci, &store).unwrap();
        let warm_sweep = op_time_sweep_stored(fresh.clone(), counts.clone(), ci, &store).unwrap();
        for threads in [1, 2, cordoba_par::effective_threads()] {
            let direct = cordoba_par::with_threads(threads, || {
                OpTimeSweep::new(fresh.clone(), counts.clone(), ci)
            })
            .unwrap();
            assert_eq!(cold_sweep, direct, "case {case}: sweep threads={threads}");
            assert_eq!(
                warm_sweep, direct,
                "case {case}: warm sweep threads={threads}"
            );
        }
        // Beta elimination round-trips through its stored form too.
        let cold_beta = beta_sweep_stored(&fresh, &store);
        assert_eq!(cold_beta, BetaSweep::run(&fresh), "case {case}: beta");
        assert_eq!(
            beta_sweep_stored(&fresh, &store),
            cold_beta,
            "case {case}: warm beta"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_entries_miss_gracefully_and_recompute_fresh_bits() {
    let dir = store_dir("damage");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let model = EmbodiedModel::default();
    let mut rng = StdRng::seed_from_u64(0x5EED_FA11);
    for case in 0..8 {
        let configs = random_configs(&mut rng);
        let task = random_task(&mut rng);
        let ci = random_grid(&mut rng);
        let counts = log_sweep(4, 7, 2);
        let fresh = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        let sweep = op_time_sweep_stored(fresh.clone(), counts.clone(), ci, &store).unwrap();
        for path in entry_files(&dir) {
            let original = std::fs::read(&path).unwrap();
            // Truncation at a random byte: a valid entry always ends in
            // `end\n`, so every strict prefix must read as a miss.
            let cut = index(&mut rng, original.len().max(1));
            std::fs::write(&path, &original[..cut]).unwrap();
            // Random garbage: structurally invalid (it cannot echo the
            // salt/kind/key header), so it must also read as a miss.
            let damaged_read = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
            assert_eq!(damaged_read, fresh, "case {case}: truncated {path:?}");
            let garbage: Vec<u8> = (0..index(&mut rng, 64)).map(|_| rng.gen::<u8>()).collect();
            std::fs::write(&path, garbage).unwrap();
            let damaged_sweep =
                op_time_sweep_stored(fresh.clone(), counts.clone(), ci, &store).unwrap();
            assert_eq!(damaged_sweep, sweep, "case {case}: garbage {path:?}");
            std::fs::write(&path, &original).unwrap();
        }
        // Heal check: after all that damage and recovery, a warm read
        // still restores the original bits.
        assert_eq!(
            evaluate_space_stored(&configs, &task, &model, &store).unwrap(),
            fresh,
            "case {case}: healed store must serve original bits"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_salt_mismatch_invalidates_without_recomputing_wrong_bits() {
    let dir = store_dir("salt");
    let _ = std::fs::remove_dir_all(&dir);
    let model = EmbodiedModel::default();
    let configs = design_space()[..7].to_vec();
    let task = Task::xr_5_kernels();
    let current = Store::open(&dir).unwrap();
    let fresh = evaluate_space_stored(&configs, &task, &model, &current).unwrap();
    // A future code version opens the same directory with a new salt:
    // every old entry is invisible to it, and its recompute is fresh.
    let next = Store::open_with_salt(&dir, "cordoba-core-vNEXT").unwrap();
    let recomputed = evaluate_space_stored(&configs, &task, &model, &next).unwrap();
    assert_eq!(recomputed, fresh);
    // The new version overwrote the entry under its own salt, so the old
    // version now misses too (and heals by recomputing).
    let old_again = Store::open(&dir).unwrap();
    let healed = evaluate_space_stored(&configs, &task, &model, &old_again).unwrap();
    assert_eq!(healed, fresh);
    let _ = std::fs::remove_dir_all(&dir);
}
