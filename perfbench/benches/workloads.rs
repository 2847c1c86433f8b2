//! The three study workloads.
//!
//! A *study* is one whole question put to the program, timed end to end.
//! It calls only public entry points, each inside a span named after the
//! layer it enters. After the timer stops, `check` verifies the answers and
//! `replay` re-drives the study's evaluate step one layer at a time
//! (`ConfigBatch::slab_costs` → `task_cost` → `EmbodiedCache::embodied` →
//! `DesignPoint::new`), asserting it is bit-equal to the end-to-end call.

use crate::gen::{self, Digest, Rng};
use crate::trace::Tracer;
use cordoba::dse::{
    accel_design_point, evaluate_space, evaluate_space_multi, log_sweep, OpTimeSweep,
};
use cordoba::lagrange::{objectives, BetaSweep};
use cordoba::metrics::DesignPoint;
use cordoba::pareto::{pareto_indices, Point2};
use cordoba::store::{
    evaluate_space_key, evaluate_space_stored, op_time_sweep_key, op_time_sweep_stored,
    KIND_EVAL_SPACE, KIND_OP_TIME_SWEEP,
};
use cordoba::uncertainty::{monte_carlo_regret, MonteCarloSpec};
use cordoba_accel::cache::EmbodiedCache;
use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_accel::params::TechTuning;
use cordoba_accel::sim::{ConfigBatch, KernelSlab, SlabCosts, TaskPlan};
use cordoba_accel::space::SPACE_SIZE;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::integral::CiIntegral;
use cordoba_carbon::intensity::{ConstantCi, SeasonalCi, TrendCi};
use cordoba_carbon::units::{CarbonIntensity, Seconds};
use cordoba_store::{parse_hex_f64, Store};
use cordoba_workloads::task::Task;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;

/// Exact per-layer work counts, summed over the studies of a count pass.
pub type Counts = BTreeMap<&'static str, u64>;

/// Configurations per study re-evaluated through the scalar
/// `accel_design_point` path and compared bit for bit.
const SCALAR_SAMPLE: usize = 6;
/// RNG stream offset of the scalar sample, so it never shares draws with
/// the inputs (whose stream is the study index).
const SAMPLE_STREAM: u64 = 1 << 62;

pub trait Workload: Sized {
    type Input;
    type Output;

    /// Builds the generator state (and any store) for `seed`.
    fn setup(seed: u64, work: &Path) -> Result<Self, String>;
    /// The inputs of study `study`: a pure function of the seed and index.
    fn draw(&self, study: u64) -> Self::Input;
    /// Untimed per-study preparation (e.g. evicting the store).
    fn prepare(&self) {}
    /// One timed study.
    fn study(&self, input: &Self::Input, tr: &mut Tracer) -> Result<Self::Output, String>;
    /// Config x task design points the study answers.
    fn points(input: &Self::Input) -> u64;
    /// Verifies the study's answers.
    fn check(&self, input: &Self::Input, out: &Self::Output) -> Result<(), String>;
    /// Re-drives the study's layers one by one, asserting bit-equality
    /// with `out` and adding the exact work counts to `counts`.
    fn replay(
        &self,
        input: &Self::Input,
        out: &Self::Output,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(), String>;
    fn digest_input(input: &Self::Input, d: &mut Digest);
    fn digest_output(out: &Self::Output, d: &mut Digest);
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn same_point(a: &DesignPoint, b: &DesignPoint) -> bool {
    a.name == b.name
        && a.delay.value().to_bits() == b.delay.value().to_bits()
        && a.energy.value().to_bits() == b.energy.value().to_bits()
        && a.embodied.value().to_bits() == b.embodied.value().to_bits()
        && a.area.value().to_bits() == b.area.value().to_bits()
}

fn digest_points(points: &[DesignPoint], d: &mut Digest) {
    for p in points {
        d.str(&p.name);
        d.f64(p.delay.value());
        d.f64(p.energy.value());
        d.f64(p.embodied.value());
        d.f64(p.area.value());
    }
}

fn digest_sweep(sweep: &OpTimeSweep, d: &mut Digest) {
    digest_points(&sweep.points, d);
    d.f64(sweep.ci_use.value());
    sweep.tcdp_matrix().iter().for_each(|&v| d.f64(v));
}

/// A sample of configurations must match the scalar reference path bit for
/// bit, on every task.
fn check_scalar_sample(
    seed: u64,
    study: u64,
    configs: &[AcceleratorConfig],
    tasks: &[Task],
    model: &EmbodiedModel,
    results: &[&[DesignPoint]],
) -> Result<(), String> {
    let mut rng = Rng::new(seed, SAMPLE_STREAM ^ study);
    for _ in 0..SCALAR_SAMPLE {
        let c = rng.below(configs.len());
        for (task, points) in tasks.iter().zip(results) {
            let want = accel_design_point(&configs[c], task, model).map_err(err)?;
            if !same_point(&want, &points[c]) {
                return Err(format!(
                    "batch result for {} on {} differs from the scalar path",
                    configs[c].name(),
                    task.name()
                ));
            }
        }
    }
    Ok(())
}

/// Every tCDP-optimal design is on the Pareto front of the two
/// objectives, since tCDP is a positive combination of them.
fn check_optimal_on_front(
    ever: &BTreeSet<String>,
    points: &[DesignPoint],
    front: &[usize],
) -> Result<(), String> {
    let names: BTreeSet<&str> = front.iter().map(|&i| points[i].name.as_str()).collect();
    match ever.iter().find(|n| !names.contains(n.as_str())) {
        Some(n) => Err(format!(
            "ever-optimal design {n} is not on the Pareto front"
        )),
        None => Ok(()),
    }
}

fn front_of(points: &[DesignPoint]) -> Vec<usize> {
    pareto_indices(&points.iter().map(objectives).collect::<Vec<Point2>>())
}

/// Everything embodied carbon reads from a configuration.
fn shape_key(c: &AcceleratorConfig) -> (u32, u64, u32, u32, [u64; 3]) {
    let t = c.tuning();
    (
        c.mac_units(),
        c.sram().value().to_bits(),
        match c.integration() {
            MemoryIntegration::OnDie => 0,
            MemoryIntegration::Stacked3d { dies } => dies,
        },
        t.node.nanometers(),
        [
            t.mac_unit_area_mm2.to_bits(),
            t.sram_area_mm2_per_mib.to_bits(),
            t.base_area_mm2.to_bits(),
        ],
    )
}

/// The evaluate step re-driven through the public layer functions, one
/// span per layer over the whole space; `expect[t]` is the end-to-end
/// result for `tasks[t]`.
fn replay_evaluate(
    configs: &[AcceleratorConfig],
    tasks: &[Task],
    model: &EmbodiedModel,
    expect: &[&[DesignPoint]],
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let n = configs.len();
    let (slab, plans, batch) = tr.span("accel.sim.batch_build", |_| {
        let slab = KernelSlab::new(tasks.iter().flat_map(Task::kernels));
        let plans: Result<Vec<TaskPlan>, _> =
            tasks.iter().map(|t| TaskPlan::new(t, &slab)).collect();
        (slab, plans, ConfigBatch::new(configs))
    });
    let plans = plans.map_err(err)?;
    let costs: Vec<SlabCosts> = tr.span("accel.sim.slab_costs", |_| {
        (0..n).map(|c| batch.slab_costs(c, &slab)).collect()
    });
    let task_costs: Vec<_> = tr.span("accel.sim.task_cost", |_| {
        plans
            .iter()
            .flat_map(|plan| {
                let batch = &batch;
                costs
                    .iter()
                    .enumerate()
                    .map(move |(c, cost)| batch.task_cost(c, cost, plan))
            })
            .collect()
    });
    let cache = EmbodiedCache::new(model.clone());
    let embodied = tr
        .span("accel.cache.embodied", |_| {
            configs
                .iter()
                .map(|c| cache.embodied(c))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(err)?;
    let points = tr
        .span("core.metrics.design_point", |_| {
            task_costs
                .iter()
                .enumerate()
                .map(|(i, &(delay, energy))| {
                    let c = &configs[i % n];
                    DesignPoint::new(c.name(), delay, energy, embodied[i % n], c.total_area())
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(err)?;
    for (t, want) in expect.iter().enumerate() {
        let got = &points[t * n..(t + 1) * n];
        if let Some(c) = (0..n).find(|&c| !same_point(&got[c], &want[c])) {
            return Err(format!(
                "layer replay of {} on {} is not bit-equal to the end-to-end call",
                configs[c].name(),
                tasks[t].name()
            ));
        }
    }

    let mut seen = HashSet::with_capacity(n);
    let distinct: Vec<usize> = (0..n)
        .filter(|&c| seen.insert(shape_key(&configs[c])))
        .collect();
    let raw = tr
        .span("carbon.embodied.raw", |_| {
            distinct
                .iter()
                .map(|&c| configs[c].embodied_carbon(model))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(err)?;
    if raw.len() != cache.len()
        || distinct
            .iter()
            .zip(&raw)
            .any(|(&c, r)| r.value().to_bits() != embodied[c].value().to_bits())
    {
        return Err("embodied cache disagrees with the raw per-shape model".into());
    }

    let stats = cache.stats();
    *counts.entry("accel.sim.kernel_sims").or_default() += (n * slab.len()) as u64;
    *counts.entry("accel.cache.lookups").or_default() += stats.lookups();
    *counts.entry("accel.cache.hits").or_default() += stats.hits;
    *counts.entry("accel.cache.distinct_shapes").or_default() += cache.len() as u64;
    Ok(())
}

fn add_cells(counts: &mut Counts, sweep: &OpTimeSweep) {
    *counts.entry("core.dse.tcdp_cells").or_default() +=
        (sweep.points.len() * sweep.task_counts.len()) as u64;
}

/// State shared by every workload's generator.
struct Common {
    seed: u64,
    tunings: Vec<TechTuning>,
    tasks: Vec<Task>,
    model: EmbodiedModel,
}

impl Common {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            tunings: gen::node_tunings(),
            tasks: Task::evaluation_suite(),
            model: EmbodiedModel::default(),
        }
    }

    fn rng(&self, study: u64) -> Rng {
        Rng::new(self.seed, study)
    }
}

// ---------------------------------------------------------------- space_sweep

/// Fresh ~4,096-config spaces of unique die shapes over all five tasks.
pub struct SpaceSweep {
    common: Common,
    task_counts: Vec<f64>,
}

pub struct SpaceInput {
    study: u64,
    configs: Vec<AcceleratorConfig>,
    ci: CarbonIntensity,
}

pub struct TaskResult {
    sweep: OpTimeSweep,
    ever: BTreeSet<String>,
    robust: usize,
    eliminated: f64,
    front: Vec<usize>,
    beta: BetaSweep,
}

const SPACE_CONFIGS: usize = 4096;

impl Workload for SpaceSweep {
    type Input = SpaceInput;
    type Output = Vec<TaskResult>;

    fn setup(seed: u64, _work: &Path) -> Result<Self, String> {
        Ok(Self {
            common: Common::new(seed),
            task_counts: log_sweep(4, 11, 4),
        })
    }

    fn draw(&self, study: u64) -> SpaceInput {
        let mut rng = self.common.rng(study);
        SpaceInput {
            study,
            configs: gen::unique_space(&mut rng, &self.common.tunings, SPACE_CONFIGS),
            ci: CarbonIntensity::new(rng.range(20.0, 820.0)),
        }
    }

    fn study(&self, input: &SpaceInput, tr: &mut Tracer) -> Result<Vec<TaskResult>, String> {
        let c = &self.common;
        let per_task = tr
            .span("core.dse.evaluate", |_| {
                evaluate_space_multi(&input.configs, &c.tasks, &c.model)
            })
            .map_err(err)?;
        per_task
            .into_iter()
            .map(|points| {
                let sweep = tr
                    .span("core.dse.op_time_sweep", |_| {
                        OpTimeSweep::new(points, self.task_counts.clone(), input.ci)
                    })
                    .map_err(err)?;
                let (ever, robust, eliminated) = tr.span("core.dse.elimination", |_| {
                    (
                        sweep.ever_optimal(),
                        sweep.robust_choice(),
                        sweep.elimination_fraction(),
                    )
                });
                let front = tr.span("core.pareto.front", |_| front_of(&sweep.points));
                let beta = tr.span("core.lagrange.beta_run", |_| BetaSweep::run(&sweep.points));
                Ok(TaskResult {
                    sweep,
                    ever,
                    robust,
                    eliminated,
                    front,
                    beta,
                })
            })
            .collect()
    }

    fn points(input: &SpaceInput) -> u64 {
        (input.configs.len() * 5) as u64
    }

    fn check(&self, input: &SpaceInput, out: &Vec<TaskResult>) -> Result<(), String> {
        let c = &self.common;
        let results: Vec<&[DesignPoint]> = out.iter().map(|r| r.sweep.points.as_slice()).collect();
        check_scalar_sample(
            c.seed,
            input.study,
            &input.configs,
            &c.tasks,
            &c.model,
            &results,
        )?;
        for r in out {
            check_optimal_on_front(&r.ever, &r.sweep.points, &r.front)?;
            if r.beta.pareto != r.front {
                return Err("BetaSweep Pareto set differs from pareto_indices".into());
            }
        }
        Ok(())
    }

    fn replay(
        &self,
        input: &SpaceInput,
        out: &Vec<TaskResult>,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let c = &self.common;
        let expect: Vec<&[DesignPoint]> = out.iter().map(|r| r.sweep.points.as_slice()).collect();
        replay_evaluate(&input.configs, &c.tasks, &c.model, &expect, tr, counts)?;
        for r in out {
            add_cells(counts, &r.sweep);
            *counts.entry("core.pareto.front_size").or_default() += r.front.len() as u64;
            *counts.entry("core.lagrange.survivors").or_default() +=
                r.beta.surviving_names().len() as u64;
        }
        Ok(())
    }

    fn digest_input(input: &SpaceInput, d: &mut Digest) {
        input.configs.iter().for_each(|c| d.config(c));
        d.f64(input.ci.value());
    }

    fn digest_output(out: &Vec<TaskResult>, d: &mut Digest) {
        for r in out {
            digest_sweep(&r.sweep, d);
            r.ever.iter().for_each(|n| d.str(n));
            d.u64(r.robust as u64);
            d.f64(r.eliminated);
            r.front.iter().for_each(|&i| d.u64(i as u64));
            r.beta.support.iter().for_each(|&i| d.u64(i as u64));
        }
    }
}

// -------------------------------------------------------------- horizon_study

/// ~1,000 DVFS configs on 120 shapes, swept over a deep horizon under three
/// grid models, plus Monte Carlo regret.
pub struct HorizonStudy {
    common: Common,
    task_counts: Vec<f64>,
}

pub struct HorizonInput {
    study: u64,
    configs: Vec<AcceleratorConfig>,
    task: usize,
    lifetime: Seconds,
    sources: Vec<Box<dyn CiIntegral>>,
    mc: MonteCarloSpec,
}

pub struct HorizonOutput {
    points: Vec<DesignPoint>,
    sweeps: Vec<(OpTimeSweep, BTreeSet<String>, usize, f64)>,
    regrets: Vec<f64>,
}

const HORIZON_SHAPES: usize = 120;
const HORIZON_CLOCKS: usize = 8;
const MC_SCENARIOS: usize = 1024;

impl Workload for HorizonStudy {
    type Input = HorizonInput;
    type Output = HorizonOutput;

    fn setup(seed: u64, _work: &Path) -> Result<Self, String> {
        Ok(Self {
            common: Common::new(seed),
            task_counts: log_sweep(2, 12, 16),
        })
    }

    fn draw(&self, study: u64) -> HorizonInput {
        let mut rng = self.common.rng(study);
        let configs = gen::dvfs_space(
            &mut rng,
            &self.common.tunings,
            HORIZON_SHAPES,
            HORIZON_CLOCKS,
        );
        let mean = CarbonIntensity::new(rng.range(20.0, 820.0));
        let decline = rng.range(0.0, 0.1);
        let sources: Vec<Box<dyn CiIntegral>> = vec![
            Box::new(ConstantCi::new(mean)),
            Box::new(TrendCi::new(mean, decline).expect("decline is in [0, 0.1)")),
            Box::new(
                SeasonalCi::new(mean, rng.range(0.0, 0.5), rng.range(0.0, 0.5), decline)
                    .expect("amplitudes are in [0, 0.5)"),
            ),
        ];
        HorizonInput {
            study,
            task: rng.below(self.common.tasks.len()),
            lifetime: Seconds::from_years(rng.range(1.0, 6.0)),
            sources,
            mc: MonteCarloSpec::new(MC_SCENARIOS, rng.next_u64()),
            configs,
        }
    }

    fn study(&self, input: &HorizonInput, tr: &mut Tracer) -> Result<HorizonOutput, String> {
        let c = &self.common;
        let points = tr
            .span("core.dse.evaluate", |_| {
                evaluate_space(&input.configs, &c.tasks[input.task], &c.model)
            })
            .map_err(err)?;
        let mut sweeps = Vec::with_capacity(input.sources.len());
        for source in &input.sources {
            let sweep = tr
                .span("core.dse.op_time_sweep", |_| {
                    OpTimeSweep::under_source(
                        points.clone(),
                        self.task_counts.clone(),
                        source.as_ref(),
                        input.lifetime,
                    )
                })
                .map_err(err)?;
            let (ever, robust, eliminated) = tr.span("core.dse.elimination", |_| {
                (
                    sweep.ever_optimal(),
                    sweep.robust_choice(),
                    sweep.elimination_fraction(),
                )
            });
            sweeps.push((sweep, ever, robust, eliminated));
        }
        let regrets = tr
            .span("core.uncertainty.mc_regret", |_| {
                monte_carlo_regret(&points, &input.mc)
            })
            .map_err(err)?;
        Ok(HorizonOutput {
            points,
            sweeps,
            regrets,
        })
    }

    fn points(input: &HorizonInput) -> u64 {
        input.configs.len() as u64
    }

    fn check(&self, input: &HorizonInput, out: &HorizonOutput) -> Result<(), String> {
        let c = &self.common;
        let task = std::slice::from_ref(&c.tasks[input.task]);
        check_scalar_sample(
            c.seed,
            input.study,
            &input.configs,
            task,
            &c.model,
            &[&out.points],
        )?;
        let front = front_of(&out.points);
        for (_, ever, ..) in &out.sweeps {
            check_optimal_on_front(ever, &out.points, &front)?;
        }
        if out.regrets.len() != out.points.len()
            || out.regrets.iter().any(|r| !r.is_finite() || *r < 1.0)
        {
            return Err("Monte Carlo regrets must be finite and >= 1".into());
        }
        Ok(())
    }

    fn replay(
        &self,
        input: &HorizonInput,
        out: &HorizonOutput,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let c = &self.common;
        let task = std::slice::from_ref(&c.tasks[input.task]);
        replay_evaluate(&input.configs, task, &c.model, &[&out.points], tr, counts)?;
        let means: Vec<CarbonIntensity> = tr.span("carbon.integral.mean_exact", |_| {
            input
                .sources
                .iter()
                .map(|s| s.mean_exact(Seconds::ZERO, input.lifetime))
                .collect()
        });
        for ((sweep, ..), mean) in out.sweeps.iter().zip(means) {
            if sweep.ci_use.value().to_bits() != mean.value().to_bits() {
                return Err("sweep intensity differs from the exact lifetime mean".into());
            }
            add_cells(counts, sweep);
        }
        *counts.entry("core.uncertainty.scenarios").or_default() += input.mc.samples as u64;
        Ok(())
    }

    fn digest_input(input: &HorizonInput, d: &mut Digest) {
        input.configs.iter().for_each(|c| d.config(c));
        d.u64(input.task as u64);
        d.f64(input.lifetime.value());
        d.u64(input.mc.seed);
        for s in &input.sources {
            d.f64(s.mean_exact(Seconds::ZERO, input.lifetime).value());
        }
    }

    fn digest_output(out: &HorizonOutput, d: &mut Digest) {
        digest_points(&out.points, d);
        for (sweep, ever, robust, eliminated) in &out.sweeps {
            digest_sweep(sweep, d);
            ever.iter().for_each(|n| d.str(n));
            d.u64(*robust as u64);
            d.f64(*eliminated);
        }
        out.regrets.iter().for_each(|&r| d.f64(r));
    }
}

// -------------------------------------------------------------- store_session

/// A cold stored sweep, warm re-reads, and stored CLI requests, from an
/// evicted store each study.
pub struct StoreSession {
    common: Common,
    task_counts: Vec<f64>,
    store: Store,
    dir: String,
}

pub struct StoreInput {
    study: u64,
    configs: Vec<AcceleratorConfig>,
    task: usize,
    ci: CarbonIntensity,
    cli: Vec<String>,
}

pub struct StoreOutput {
    cold: OpTimeSweep,
    warm: Vec<OpTimeSweep>,
    cli_cold: String,
    cli_warm: Vec<String>,
    replay: String,
}

const STORE_CONFIGS: usize = 1000;
const WARM_READS: usize = 3;
const CLI_REPEATS: usize = 4;
const CLI_TASKS: [&str; 5] = ["all", "xr10", "ai10", "xr5", "ai5"];
const CLI_GRIDS: [&str; 8] = [
    "coal", "gas", "world", "us", "solar", "wind", "hydro", "nuclear",
];

impl StoreSession {
    fn stored_sweep(&self, input: &StoreInput) -> Result<OpTimeSweep, String> {
        let c = &self.common;
        let points =
            evaluate_space_stored(&input.configs, &c.tasks[input.task], &c.model, &self.store)
                .map_err(err)?;
        op_time_sweep_stored(points, self.task_counts.clone(), input.ci, &self.store).map_err(err)
    }
}

impl Workload for StoreSession {
    type Input = StoreInput;
    type Output = StoreOutput;

    fn setup(seed: u64, work: &Path) -> Result<Self, String> {
        let path = work.join("store");
        let store = Store::open(&path).map_err(err)?;
        store.evict(None);
        Ok(Self {
            common: Common::new(seed),
            task_counts: log_sweep(4, 11, 4),
            store,
            dir: path.to_str().ok_or("work path is not UTF-8")?.to_owned(),
        })
    }

    fn draw(&self, study: u64) -> StoreInput {
        let mut rng = self.common.rng(study);
        let configs = gen::unique_space(&mut rng, &self.common.tunings, STORE_CONFIGS);
        let cli = [
            "dse",
            "--task",
            CLI_TASKS[rng.below(CLI_TASKS.len())],
            "--grid",
            CLI_GRIDS[rng.below(CLI_GRIDS.len())],
            "--lo",
            ["2", "3", "4", "5", "6"][rng.below(5)],
            "--store",
            &self.dir,
        ]
        .map(str::to_owned)
        .to_vec();
        StoreInput {
            study,
            configs,
            task: rng.below(self.common.tasks.len()),
            ci: CarbonIntensity::new(rng.range(20.0, 820.0)),
            cli,
        }
    }

    fn prepare(&self) {
        self.store.evict(None);
    }

    fn study(&self, input: &StoreInput, tr: &mut Tracer) -> Result<StoreOutput, String> {
        let cold = tr.span("core.store.cold_sweep", |_| self.stored_sweep(input))?;
        let warm = (0..WARM_READS)
            .map(|_| tr.span("core.store.warm_sweep", |_| self.stored_sweep(input)))
            .collect::<Result<Vec<_>, _>>()?;
        let cli_cold = tr
            .span("cli.run_cold", |_| cordoba_cli::run(&input.cli))
            .map_err(err)?;
        let cli_warm = (0..CLI_REPEATS)
            .map(|_| tr.span("cli.run_warm", |_| cordoba_cli::run(&input.cli)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let hash = cli_cold
            .lines()
            .find_map(|l| l.strip_prefix("store: run "))
            .ok_or("dse --store printed no run hash")?;
        let replay_args = ["replay", hash, "--store", &self.dir].map(str::to_owned);
        let replay = tr
            .span("cli.replay", |_| cordoba_cli::run(&replay_args))
            .map_err(err)?;
        Ok(StoreOutput {
            cold,
            warm,
            cli_cold,
            cli_warm,
            replay,
        })
    }

    fn points(input: &StoreInput) -> u64 {
        (input.configs.len() * (1 + WARM_READS) + SPACE_SIZE * (2 + CLI_REPEATS)) as u64
    }

    fn check(&self, input: &StoreInput, out: &StoreOutput) -> Result<(), String> {
        let c = &self.common;
        let task = std::slice::from_ref(&c.tasks[input.task]);
        check_scalar_sample(
            c.seed,
            input.study,
            &input.configs,
            task,
            &c.model,
            &[&out.cold.points],
        )?;
        let bits =
            |s: &OpTimeSweep| -> Vec<u64> { s.tcdp_matrix().iter().map(|v| v.to_bits()).collect() };
        for warm in &out.warm {
            let same_points = warm.points.len() == out.cold.points.len()
                && warm
                    .points
                    .iter()
                    .zip(&out.cold.points)
                    .all(|(a, b)| same_point(a, b));
            if !same_points || bits(warm) != bits(&out.cold) {
                return Err("warm stored sweep is not bit-equal to the cold run".into());
            }
        }
        if out.cli_warm.iter().any(|w| *w != out.cli_cold) || out.replay != out.cli_cold {
            return Err("warm CLI or replay output differs from the cold response".into());
        }
        Ok(())
    }

    fn replay(
        &self,
        input: &StoreInput,
        out: &StoreOutput,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let c = &self.common;
        let task = std::slice::from_ref(&c.tasks[input.task]);
        replay_evaluate(
            &input.configs,
            task,
            &c.model,
            &[&out.cold.points],
            tr,
            counts,
        )?;
        add_cells(counts, &out.cold);
        let entries = [
            (
                KIND_EVAL_SPACE,
                evaluate_space_key(&input.configs, &c.tasks[input.task], &c.model),
            ),
            (
                KIND_OP_TIME_SWEEP,
                op_time_sweep_key(&out.cold.points, &out.cold.task_counts, out.cold.ci_use),
            ),
        ];
        for (kind, key) in entries {
            let lines = tr
                .span("store.get", |_| self.store.get(kind, key))
                .ok_or_else(|| format!("no {kind} entry after the cold run"))?;
            let decoded = tr.span("store.decode", |_| {
                lines
                    .iter()
                    .flat_map(|l| l.split(' '))
                    .filter_map(parse_hex_f64)
                    .count()
            });
            if decoded == 0 {
                return Err(format!("{kind} entry holds no encoded values"));
            }
            *counts.entry("store.entry_bytes").or_default() +=
                lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
            tr.span("store.put", |_| self.store.put(kind, key, &lines))
                .map_err(err)?;
        }
        Ok(())
    }

    fn digest_input(input: &StoreInput, d: &mut Digest) {
        input.configs.iter().for_each(|c| d.config(c));
        d.u64(input.task as u64);
        d.f64(input.ci.value());
        // The store path is the checkout's, not an input.
        input.cli[..7].iter().for_each(|a| d.str(a));
    }

    fn digest_output(out: &StoreOutput, d: &mut Digest) {
        digest_sweep(&out.cold, d);
        d.str(&out.cli_cold);
    }
}
