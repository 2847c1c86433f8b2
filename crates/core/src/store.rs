//! Warm-start entry points: sweep results memoized through the
//! content-addressed [`cordoba_store::Store`].
//!
//! The DSE pipeline is deterministic and bit-reproducible at every thread
//! count (pinned by the `par`/`obs`/supervision property suites), so each
//! expensive result — [`evaluate_space`] and [`OpTimeSweep`] — is a pure
//! function of its typed inputs.
//! The `*_stored` wrappers below derive a canonical [`StoreKey`] over
//! *everything* the result depends on (config shapes including the full
//! `TechTuning`, task kernel mixes, the embodied model, the use-phase
//! carbon intensity, the sweep axis) and consult the store before
//! computing; misses compute through the ordinary path and write the
//! result behind.
//!
//! Three invariants make this safe:
//!
//! * **Canonical encoding** — every `f64` participates in the key and the
//!   payload as its raw IEEE-754 bits (the `SweepCheckpoint` convention),
//!   so a warm result is bit-identical to the cold compute, not merely
//!   close.
//! * **Versioned entries** — payloads carry their own framing and the
//!   store's code-version salt; any simulator change that bumps
//!   [`cordoba_store::CODE_VERSION_SALT`] invalidates every prior entry
//!   wholesale.
//! * **Graceful degradation** — a corrupt, truncated, or undecodable entry
//!   is a miss and a recompute, never an error and never a stale answer;
//!   store write failures are swallowed because persistence is an
//!   accelerant, not a correctness dependency.

use crate::dse::{evaluate_space, OpTimeSweep};
use crate::error::CoreError;
use crate::metrics::DesignPoint;
use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::units::{CarbonIntensity, GramsCo2e, Joules, Seconds, SquareCentimeters};
use cordoba_carbon::yield_model::YieldModel;
use cordoba_carbon::CarbonError;
use cordoba_store::{hex_f64, parse_hex_f64, KeyBuilder, Store, StoreKey};
use cordoba_workloads::task::Task;

/// Store kind for [`evaluate_space_stored`] entries.
pub const KIND_EVAL_SPACE: &str = "eval_space";
/// Store kind for [`op_time_sweep_stored`] entries.
pub const KIND_OP_TIME_SWEEP: &str = "op_time_sweep";

/// Feeds one configuration — name, geometry, and the *full* tech tuning —
/// into a key. Unlike the embodied-cache fingerprint, delay and energy
/// depend on every tuning field, and the name flows into the output
/// `DesignPoint`s, so everything participates.
fn push_config(k: &mut KeyBuilder, config: &AcceleratorConfig) {
    k.push_str(config.name());
    k.push_u64(u64::from(config.mac_units()));
    k.push_f64(config.sram().value());
    match config.integration() {
        MemoryIntegration::OnDie => k.push_u64(0),
        MemoryIntegration::Stacked3d { dies } => {
            k.push_u64(1);
            k.push_u64(u64::from(dies));
        }
    }
    let t = config.tuning();
    k.push_u64(u64::from(t.node.nanometers()));
    k.push_f64(t.clock.value());
    k.push_f64(t.utilization);
    k.push_f64(t.utilization_knee_units);
    k.push_f64(t.mac_energy.value());
    k.push_f64(t.sram_energy_per_byte_1mib.value());
    k.push_f64(t.sram_energy_exponent);
    k.push_f64(t.sram_bytes_per_mac);
    k.push_f64(t.dram_energy_per_byte.value());
    k.push_f64(t.stacked_sram_energy_factor);
    k.push_f64(t.dram_bandwidth.value());
    k.push_f64(t.leakage_per_sram_mib.value());
    k.push_f64(t.leakage_per_mac_unit.value());
    k.push_f64(t.leakage_base.value());
    k.push_f64(t.mac_unit_area_mm2);
    k.push_f64(t.sram_area_mm2_per_mib);
    k.push_f64(t.base_area_mm2);
    k.push_f64(t.io_traffic_fraction);
    k.push_f64(t.refetch_exponent);
    k.push_f64(t.refetch_scale);
}

/// Feeds a task's name and kernel mix into a key.
fn push_task(k: &mut KeyBuilder, task: &Task) {
    k.push_str(task.name());
    for kernel in task.kernels() {
        k.push_str(kernel.short_name());
        k.push_f64(task.calls_for(kernel));
    }
}

/// Feeds the embodied model's parameters into a key.
fn push_model(k: &mut KeyBuilder, model: &EmbodiedModel) {
    k.push_f64(model.ci_fab().value());
    match model.yield_model() {
        YieldModel::Murphy => k.push_u64(0),
        YieldModel::Poisson => k.push_u64(1),
        YieldModel::Seeds => k.push_u64(2),
        YieldModel::BoseEinstein { layers } => {
            k.push_u64(3);
            k.push_u64(u64::from(layers));
        }
        YieldModel::Fixed { fraction } => {
            k.push_u64(4);
            k.push_f64(fraction);
        }
        // `YieldModel` is non-exhaustive; key any future variant by its
        // debug rendering so it cannot collide with the tags above.
        other => {
            k.push_u64(u64::MAX);
            k.push_str(&format!("{other:?}"));
        }
    }
    k.push_f64(model.packaging_per_die().value());
}

/// Feeds a design point into a key (for results computed *from* points,
/// like [`OpTimeSweep`]).
fn push_point(k: &mut KeyBuilder, point: &DesignPoint) {
    k.push_str(&point.name);
    k.push_f64(point.delay.value());
    k.push_f64(point.energy.value());
    k.push_f64(point.embodied.value());
    k.push_f64(point.area.value());
}

/// The content-address of one [`evaluate_space`] call.
#[must_use]
pub fn evaluate_space_key(
    configs: &[AcceleratorConfig],
    task: &Task,
    embodied: &EmbodiedModel,
) -> StoreKey {
    let mut k = KeyBuilder::new(KIND_EVAL_SPACE);
    push_model(&mut k, embodied);
    push_task(&mut k, task);
    k.push_u64(configs.len() as u64);
    for config in configs {
        push_config(&mut k, config);
    }
    k.finish()
}

/// The content-address of one [`OpTimeSweep`] evaluation.
#[must_use]
pub fn op_time_sweep_key(
    points: &[DesignPoint],
    task_counts: &[f64],
    ci_use: CarbonIntensity,
) -> StoreKey {
    let mut k = KeyBuilder::new(KIND_OP_TIME_SWEEP);
    k.push_f64(ci_use.value());
    k.push_u64(task_counts.len() as u64);
    for &n in task_counts {
        k.push_f64(n);
    }
    k.push_u64(points.len() as u64);
    for point in points {
        push_point(&mut k, point);
    }
    k.finish()
}

fn encode_points(points: &[DesignPoint]) -> Vec<String> {
    let mut lines = Vec::with_capacity(points.len() + 1);
    lines.push(format!("points {}", points.len()));
    for p in points {
        lines.push(format!(
            "p {} {} {} {} {}",
            hex_f64(p.delay.value()),
            hex_f64(p.energy.value()),
            hex_f64(p.embodied.value()),
            hex_f64(p.area.value()),
            p.name
        ));
    }
    lines
}

/// Decodes one section written by [`encode_points`], consuming lines from
/// the iterator. Returns `None` on any structural damage.
fn decode_points<'a>(lines: &mut impl Iterator<Item = &'a String>) -> Option<Vec<DesignPoint>> {
    let count: usize = lines.next()?.strip_prefix("points ")?.parse().ok()?;
    // The count is untrusted: never reserve more than the lines left.
    let mut points = Vec::with_capacity(count.min(lines.size_hint().1.unwrap_or(0)));
    for _ in 0..count {
        let mut fields = lines.next()?.strip_prefix("p ")?.splitn(5, ' ');
        let delay = parse_hex_f64(fields.next()?)?;
        let energy = parse_hex_f64(fields.next()?)?;
        let embodied = parse_hex_f64(fields.next()?)?;
        let area = parse_hex_f64(fields.next()?)?;
        let name = fields.next()?;
        points.push(
            DesignPoint::new(
                name,
                Seconds::new(delay),
                Joules::new(energy),
                GramsCo2e::new(embodied),
                SquareCentimeters::new(area),
            )
            .ok()?,
        );
    }
    Some(points)
}

/// [`evaluate_space`] with a persistent warm path: a prior result for the
/// identical `(configs, task, model)` inputs is served from `store`
/// bit-identically; otherwise the space is evaluated normally and the
/// result written behind.
///
/// # Errors
///
/// Exactly the errors of [`evaluate_space`]; store damage never surfaces.
pub fn evaluate_space_stored(
    configs: &[AcceleratorConfig],
    task: &Task,
    embodied: &EmbodiedModel,
    store: &Store,
) -> Result<Vec<DesignPoint>, CoreError> {
    let key = evaluate_space_key(configs, task, embodied);
    if let Some(lines) = store.get(KIND_EVAL_SPACE, key) {
        let mut it = lines.iter();
        if let Some(points) = decode_points(&mut it).filter(|p| {
            p.len() == configs.len() && it.next().is_none() // fully consumed
        }) {
            return Ok(points);
        }
    }
    let points = evaluate_space(configs, task, embodied)?;
    let _ = store.put(KIND_EVAL_SPACE, key, &encode_points(&points));
    Ok(points)
}

/// [`OpTimeSweep::new`] with a persistent warm path: on a hit the tCDP
/// matrix is restored bit-for-bit from the store without calling the
/// simulator at all.
///
/// # Errors
///
/// Exactly the errors of [`OpTimeSweep::new`].
pub fn op_time_sweep_stored(
    points: Vec<DesignPoint>,
    task_counts: Vec<f64>,
    ci_use: CarbonIntensity,
    store: &Store,
) -> Result<OpTimeSweep, CarbonError> {
    let key = op_time_sweep_key(&points, &task_counts, ci_use);
    if let Some(lines) = store.get(KIND_OP_TIME_SWEEP, key) {
        if let Some(matrix) = decode_matrix(&lines, task_counts.len(), points.len()) {
            if let Ok(sweep) =
                OpTimeSweep::from_flat(points.clone(), task_counts.clone(), ci_use, matrix)
            {
                return Ok(sweep);
            }
        }
    }
    let sweep = OpTimeSweep::new(points, task_counts, ci_use)?;
    let _ = store.put(KIND_OP_TIME_SWEEP, key, &encode_matrix(&sweep));
    Ok(sweep)
}

fn encode_matrix(sweep: &OpTimeSweep) -> Vec<String> {
    let width = sweep.points.len();
    let mut lines = vec![format!("rows {} width {}", sweep.task_counts.len(), width)];
    for row in sweep.tcdp_matrix().chunks_exact(width.max(1)) {
        let mut line = String::with_capacity(2 + 17 * row.len());
        line.push('r');
        for &cell in row {
            line.push(' ');
            line.push_str(&hex_f64(cell));
        }
        lines.push(line);
    }
    lines
}

fn decode_matrix(lines: &[String], rows: usize, width: usize) -> Option<Vec<f64>> {
    let mut it = lines.iter();
    let header = it.next()?;
    if *header != format!("rows {rows} width {width}") {
        return None;
    }
    let mut matrix = Vec::with_capacity(rows * width);
    for _ in 0..rows {
        let mut cells = 0usize;
        for field in it.next()?.strip_prefix("r ")?.split(' ') {
            matrix.push(parse_hex_f64(field)?);
            cells += 1;
        }
        if cells != width {
            return None;
        }
    }
    it.next().is_none().then_some(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::log_sweep;
    use cordoba_accel::space::design_space;
    use cordoba_carbon::intensity::grids;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("cordoba-core-store-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).expect("temp store opens")
    }

    #[test]
    fn evaluate_space_round_trips_bit_exactly() {
        let store = temp_store("eval");
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let model = EmbodiedModel::default();
        let cold = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        let fresh = evaluate_space(&configs, &task, &model).unwrap();
        assert_eq!(cold, fresh);
        let warm = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        for (w, f) in warm.iter().zip(&fresh) {
            assert_eq!(w.name, f.name);
            assert_eq!(w.delay.value().to_bits(), f.delay.value().to_bits());
            assert_eq!(w.energy.value().to_bits(), f.energy.value().to_bits());
            assert_eq!(w.embodied.value().to_bits(), f.embodied.value().to_bits());
            assert_eq!(w.area.value().to_bits(), f.area.value().to_bits());
        }
    }

    #[test]
    fn op_time_sweep_round_trips_bit_exactly() {
        let store = temp_store("sweep");
        let configs = design_space();
        let task = Task::xr_5_kernels();
        let model = EmbodiedModel::default();
        let points = evaluate_space(&configs, &task, &model).unwrap();
        let counts = log_sweep(4, 9, 2);
        let cold = op_time_sweep_stored(points.clone(), counts.clone(), grids::US_AVERAGE, &store)
            .unwrap();
        let fresh = OpTimeSweep::new(points.clone(), counts.clone(), grids::US_AVERAGE).unwrap();
        assert_eq!(cold, fresh);
        let warm = op_time_sweep_stored(points, counts, grids::US_AVERAGE, &store).unwrap();
        let (a, b) = (warm.tcdp_matrix(), fresh.tcdp_matrix());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn keys_react_to_every_input() {
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let model = EmbodiedModel::default();
        let base = evaluate_space_key(&configs, &task, &model);
        assert_ne!(
            base,
            evaluate_space_key(&configs[..configs.len() - 1], &task, &model)
        );
        assert_ne!(
            base,
            evaluate_space_key(&configs, &Task::xr_5_kernels(), &model)
        );
        let hot = model
            .clone()
            .with_ci_fab(cordoba_carbon::units::CarbonIntensity::new(999.0));
        assert_ne!(base, evaluate_space_key(&configs, &task, &hot));

        let points = evaluate_space(&configs, &task, &model).unwrap();
        let counts = log_sweep(4, 6, 1);
        let sweep_base = op_time_sweep_key(&points, &counts, grids::US_AVERAGE);
        assert_ne!(
            sweep_base,
            op_time_sweep_key(&points, &counts, grids::SOLAR)
        );
        assert_ne!(
            sweep_base,
            op_time_sweep_key(&points, &log_sweep(4, 6, 2), grids::US_AVERAGE)
        );
    }

    #[test]
    fn corrupt_entries_recompute_instead_of_failing() {
        let store = temp_store("corrupt");
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let model = EmbodiedModel::default();
        let fresh = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        let key = evaluate_space_key(&configs, &task, &model);
        let entry_dir = store.root().join(KIND_EVAL_SPACE);
        // Damage the entry: a *structurally valid* store file whose payload
        // is semantically damaged or claims a hostile point count, then a
        // hostile `lines` count in the entry header on disk. Each time the
        // read is a miss, compute happens, and the entry heals.
        for damage in ["points 999", "points 18446744073709551615", "lines"] {
            if damage == "lines" {
                for file in std::fs::read_dir(&entry_dir).unwrap() {
                    let path = file.unwrap().path();
                    let text = std::fs::read_to_string(&path).unwrap();
                    let count = text.lines().find(|l| l.starts_with("lines ")).unwrap();
                    let hostile = text.replacen(count, "lines 18446744073709551615", 1);
                    std::fs::write(&path, hostile).unwrap();
                }
            } else {
                store
                    .put(KIND_EVAL_SPACE, key, &[damage.to_string()])
                    .unwrap();
            }
            let recovered = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
            assert_eq!(recovered, fresh, "{damage}");
            // The recompute healed the entry in place.
            let healed = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
            assert_eq!(healed, fresh, "{damage}");
        }
        assert!(store.contains(KIND_EVAL_SPACE, key));
    }
}
