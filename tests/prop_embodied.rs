//! Bit-identity of the allocation-free embodied-carbon path:
//! `AcceleratorConfig::embodied_carbon` prices the die stack through
//! `EmbodiedModel::stack_carbon` without building an `Assembly`, and must
//! return exactly the bits of the retained reference
//! `model.assembly_carbon(&config.assembly()?)` — and the same error when
//! the configuration's die areas are invalid.
//!
//! Like `prop_batch`, these are hand-rolled seeded generators driving
//! explicit case loops through `StdRng` streams.

use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_accel::params::TechTuning;
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::fab::ProcessNode;
use cordoba_carbon::units::{Bytes, CarbonIntensity, GramsCo2e};
use cordoba_carbon::yield_model::YieldModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 48;

/// A log-uniform draw from `[lo, hi]`.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp()
}

/// One model per yield-model variant, each with a random fab grid and
/// packaging adder.
fn models(rng: &mut StdRng) -> Vec<EmbodiedModel> {
    let variants = [
        YieldModel::Murphy,
        YieldModel::Poisson,
        YieldModel::Seeds,
        YieldModel::BoseEinstein {
            layers: rng.gen_range(1..=12),
        },
        YieldModel::fixed(0.5 + 0.5 * rng.gen::<f64>()).unwrap(),
    ];
    variants
        .into_iter()
        .map(|yield_model| {
            EmbodiedModel::new(
                CarbonIntensity::new(rng.gen_range(20.0..900.0)),
                yield_model,
                GramsCo2e::new(rng.gen_range(0.0..100.0)),
            )
        })
        .collect()
}

/// Every integration style the hardware template supports, plus the
/// zero-die stack `with_tuning` accepts.
fn integrations() -> impl Iterator<Item = MemoryIntegration> {
    std::iter::once(MemoryIntegration::OnDie)
        .chain((0..=4).map(|dies| MemoryIntegration::Stacked3d { dies }))
}

/// Asserts the two embodied paths agree bit for bit, or fail alike.
fn assert_same_path(config: &AcceleratorConfig, model: &EmbodiedModel) {
    let fast = config.embodied_carbon(model);
    let reference = config.assembly().map(|a| model.assembly_carbon(&a));
    match (&fast, &reference) {
        (Ok(f), Ok(r)) => assert_eq!(
            f.value().to_bits(),
            r.value().to_bits(),
            "{config:?} under {model:?}: {f} vs reference {r}"
        ),
        // Debug rendering, so a NaN payload compares equal to itself.
        (Err(f), Err(r)) => assert_eq!(format!("{f:?}"), format!("{r:?}"), "{config:?}"),
        _ => panic!("{config:?} under {model:?}: {fast:?} vs reference {reference:?}"),
    }
}

#[test]
fn random_shapes_on_every_node_and_yield_model_are_bit_identical() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let models = models(&mut rng);
        for node in ProcessNode::ALL {
            for integration in integrations() {
                let config = AcceleratorConfig::with_tuning(
                    format!("s{seed}"),
                    log_uniform(&mut rng, 1.0, 4096.0) as u32,
                    Bytes::from_mebibytes(log_uniform(&mut rng, 0.25, 2048.0)),
                    integration,
                    TechTuning::for_node(node),
                )
                .unwrap();
                for model in &models {
                    assert_same_path(&config, model);
                }
            }
        }
    }
}

#[test]
fn seed_design_space_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut models = models(&mut rng);
    models.push(EmbodiedModel::default());
    for config in &design_space() {
        for model in &models {
            assert_same_path(config, model);
        }
    }
}

#[test]
fn invalid_die_areas_fail_with_the_reference_error() {
    type Poison = fn(&mut TechTuning);
    let poisons: [Poison; 4] = [
        |t| t.mac_unit_area_mm2 = f64::NAN,
        |t| t.sram_area_mm2_per_mib = f64::NAN,
        |t| t.base_area_mm2 = f64::INFINITY,
        |t| t.base_area_mm2 = -1.0e6,
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let models = models(&mut rng);
    let mut failures = 0;
    for poison in poisons {
        for node in ProcessNode::ALL {
            let mut tuning = TechTuning::for_node(node);
            poison(&mut tuning);
            for integration in integrations() {
                let config = AcceleratorConfig::with_tuning(
                    "poisoned",
                    16,
                    Bytes::from_mebibytes(8.0),
                    integration,
                    tuning,
                )
                .unwrap();
                for model in &models {
                    assert_same_path(&config, model);
                }
                failures += usize::from(config.embodied_carbon(&models[0]).is_err());
            }
        }
    }
    // Only a NaN SRAM area on a zero-die stack prices cleanly (there is
    // no memory die to carry it): every other poisoned config must fail.
    assert_eq!(
        failures,
        4 * ProcessNode::ALL.len() * 6 - ProcessNode::ALL.len()
    );
}
