//! The CORDOBA study benchmark: one seeded, single-process, closed-loop
//! driver. One caller runs studies back to back, each waiting for the
//! previous one, through the public API of the `cordoba*` crates.
//!
//! ```text
//! perfbench --workload <space_sweep|horizon_study|store_session>
//!           --seed <n> --seconds <s> --trace <0|1> --work <dir>
//! ```
//!
//! The last stdout line is the result object; see `README.md`.

mod gen;
mod trace;
mod workloads;

use gen::Digest;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Counts, HorizonStudy, SpaceSweep, StoreSession, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u64 = 9;
/// Studies a timed phase runs at least, so p90 has ten samples beyond it.
const MIN_STUDIES: usize = 100;
/// Studies of the exact-count pass (the first ones of the seed).
const COUNT_STUDIES: u64 = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                map.insert(k[2..].to_owned(), v.clone());
            }
            _ => return Err(format!("expected `--key value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing --{k}"));
    let seed_text = get("seed")?;
    // Any seed is accepted: a non-numeric one is hashed.
    let seed = seed_text.parse().unwrap_or_else(|_| {
        let mut d = Digest::new();
        d.str(&seed_text);
        u64::from_str_radix(&d.hex(), 16).unwrap_or(0)
    });
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        work: PathBuf::from(get("work")?),
    })
}

/// Timings and verdicts of one phase of studies.
#[derive(Default)]
struct Tally {
    times_ns: Vec<u64>,
    /// User CPU time of every thread of the process, per study.
    user_ns: Vec<u64>,
    /// User + system CPU time, per study.
    cpu_ns: Vec<u64>,
    failed: u64,
    points: u64,
    first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds.
fn percentile_ms(samples: &[u64], q: f64) -> f64 {
    let mut t = samples.to_vec();
    t.sort_unstable();
    let rank = ((q * t.len() as f64).ceil() as usize).clamp(1, t.len());
    t[rank - 1] as f64 / 1e6
}

/// CPU time consumed so far by every thread of this process, past and
/// present, as `(user, user + system)` nanoseconds (`getrusage`; 64-bit
/// Linux). Time the hypervisor steals from the machine is not counted.
fn cpu_ns() -> (u64, u64) {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        counters: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux, and `RUSAGE_SELF` is a valid target.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return (0, 0);
    }
    let ns = |t: &Timeval| {
        u64::try_from(t.sec).unwrap_or(0) * 1_000_000_000
            + u64::try_from(t.usec).unwrap_or(0) * 1000
    };
    let user = ns(&ru.utime);
    (user, user + ns(&ru.stime))
}

/// Runs studies until `budget` has passed and at least `min` ran. With
/// `trace`, every second study is traced and followed by its traced layer
/// replay, so traced and untraced studies share the host's conditions.
/// Returns the untraced and the traced tallies.
fn run_studies<W: Workload>(
    w: &W,
    budget: Duration,
    min: usize,
    trace: bool,
    tr: &mut Tracer,
) -> (Tally, Tally) {
    let cap = budget * 3 + Duration::from_secs(20);
    let start = Instant::now();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut study = 0;
    while (study < min as u64 || start.elapsed() < budget) && start.elapsed() < cap {
        let on = trace && study % 2 == 1;
        tr.enable(on);
        let tally = if on { &mut traced } else { &mut plain };
        let input = w.draw(study);
        w.prepare();
        let (user0, cpu0) = cpu_ns();
        let t0 = Instant::now();
        let out = tr.span("study", |tr| w.study(&input, tr));
        tally
            .times_ns
            .push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let (user1, cpu1) = cpu_ns();
        tally.user_ns.push(user1 - user0);
        tally.cpu_ns.push(cpu1 - cpu0);
        let verdict = out.and_then(|out| {
            w.check(&input, &out)?;
            if on {
                tr.span("replay", |tr| {
                    w.replay(&input, &out, tr, &mut Counts::new())
                })?;
            }
            Ok(())
        });
        match verdict {
            Ok(()) => tally.points += W::points(&input),
            Err(why) => tally.fail(format!("study {study}: {why}")),
        }
        study += 1;
    }
    tr.enable(false);
    (plain, traced)
}

/// `store/ops` cells of the program's metrics registry: (gets, puts).
fn store_ops() -> (u64, u64) {
    let (mut gets, mut puts) = (0, 0);
    for (family, _, op, n) in cordoba_obs::labeled_counter_snapshot() {
        match (family, op) {
            ("store/ops", "hit" | "miss") => gets += n,
            ("store/ops", "write") => puts += n,
            _ => {}
        }
    }
    (gets, puts)
}

/// One exact-count pass over the seed's first studies at `threads` workers:
/// the summed layer counts plus input and output-bits digests.
fn count_pass<W: Workload>(w: &W, threads: usize) -> Result<(Counts, String, String), String> {
    cordoba_par::set_threads(NonZeroUsize::new(threads));
    cordoba_obs::set_metrics_enabled(true);
    let mut counts = Counts::new();
    let (mut inputs, mut outputs) = (Digest::new(), Digest::new());
    let mut pass = || -> Result<(), String> {
        for study in 0..COUNT_STUDIES {
            let input = w.draw(study);
            W::digest_input(&input, &mut inputs);
            w.prepare();
            let (gets, puts) = store_ops();
            let out = w.study(&input, &mut Tracer::off())?;
            w.replay(&input, &out, &mut Tracer::off(), &mut counts)?;
            let (gets_after, puts_after) = store_ops();
            *counts.entry("store.gets").or_default() += gets_after - gets;
            *counts.entry("store.puts").or_default() += puts_after - puts;
            W::digest_output(&out, &mut outputs);
        }
        Ok(())
    };
    let result = pass();
    cordoba_obs::set_metrics_enabled(false);
    cordoba_par::set_threads(None);
    result.map(|()| (counts, inputs.hex(), outputs.hex()))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Span self time per traced study, keyed by the `<span>_ns` metric name.
fn layer_times(trace_json: &str, studies: usize) -> Result<(BTreeMap<String, f64>, f64), String> {
    cordoba_obs::validate_chrome_trace(trace_json).map_err(|e| format!("trace: {e}"))?;
    let profile = cordoba_obs::profile_chrome_trace(trace_json)?;
    let mut times = BTreeMap::new();
    let mut coverage = 0.0;
    for e in &profile.entries {
        if e.name == "study" {
            coverage = 1.0 - ratio(e.self_ns as f64, e.total_ns as f64);
        }
        times.insert(format!("{}_ns", e.name), e.self_ns as f64 / studies as f64);
    }
    Ok((times, coverage))
}

const COUNT_METRICS: [&str; 10] = [
    "accel.sim.kernel_sims",
    "accel.cache.lookups",
    "accel.cache.distinct_shapes",
    "core.dse.tcdp_cells",
    "core.pareto.front_size",
    "core.lagrange.survivors",
    "core.uncertainty.scenarios",
    "store.gets",
    "store.puts",
    "store.entry_bytes",
];

const TIME_METRICS: [&str; 21] = [
    "accel.sim.batch_build_ns",
    "accel.sim.slab_costs_ns",
    "accel.sim.task_cost_ns",
    "accel.cache.embodied_ns",
    "carbon.embodied.raw_ns",
    "core.metrics.design_point_ns",
    "core.dse.evaluate_ns",
    "core.dse.op_time_sweep_ns",
    "core.dse.elimination_ns",
    "carbon.integral.mean_exact_ns",
    "core.pareto.front_ns",
    "core.lagrange.beta_run_ns",
    "core.uncertainty.mc_regret_ns",
    "core.store.cold_sweep_ns",
    "core.store.warm_sweep_ns",
    "store.get_ns",
    "store.put_ns",
    "store.decode_ns",
    "cli.run_cold_ns",
    "cli.run_warm_ns",
    "cli.replay_ns",
];

fn drive<W: Workload>(args: &Args) -> Result<(), String> {
    let work = args.work.join(&args.workload);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    // Set-up: generator state, store open, one warm-up study; repeated,
    // median CPU seconds reported, like the study times.
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        drop(ready.take());
        let (_, cpu0) = cpu_ns();
        let w = W::setup(args.seed, &work)?;
        let input = w.draw(u64::MAX - rep);
        w.prepare();
        let out = w.study(&input, &mut Tracer::off())?;
        setups.push((cpu_ns().1 - cpu0) as f64 / 1e9);
        w.check(&input, &out)
            .map_err(|e| format!("warm-up study: {e}"))?;
        ready = Some(w);
    }
    let w = ready.expect("at least one set-up ran");

    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::off();
    let (plain, traced) = run_studies(&w, budget, MIN_STUDIES, args.trace, &mut tracer);

    // Exact-count self-check: two passes at the default pool, one at a
    // single worker; counts and output bits must agree.
    let nproc = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let workers = cordoba_par::effective_threads();
    let mut self_check = Vec::new();
    let (counts, input_digest, output_digest) = count_pass(&w, workers).unwrap_or_else(|e| {
        self_check.push(format!("count pass: {e}"));
        Default::default()
    });
    for (label, threads) in [("repeat", workers), ("1 worker", 1)] {
        match count_pass(&w, threads) {
            Ok((c, i, o)) if c == counts && i == input_digest && o == output_digest => {}
            Ok(_) => self_check.push(format!("counts or output bits differ on the {label} pass")),
            Err(e) => self_check.push(format!("{label} count pass: {e}")),
        }
    }
    drop(w);
    if let Err(e) = std::fs::remove_dir_all(work.join("store")) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(format!("cannot clean the store: {e}"));
        }
    }

    let studies = plain.times_ns.len() + traced.times_ns.len();
    let failed = plain.failed + traced.failed;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut trace_ok = true;
    if args.trace {
        let json = tracer.chrome_json();
        let path = work.join("trace.json");
        std::fs::write(&path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
        let (times, coverage) = match layer_times(&json, traced.times_ns.len()) {
            Ok(t) => t,
            Err(e) => {
                trace_ok = false;
                self_check.push(e);
                (BTreeMap::new(), 0.0)
            }
        };
        let time = |m: &str| times.get(m).copied().unwrap_or(0.0);
        let per_study = |m: &str| counts.get(m).copied().unwrap_or(0) as f64 / COUNT_STUDIES as f64;
        for m in TIME_METRICS {
            metrics.push((m.to_owned(), time(m), "ns"));
        }
        for m in COUNT_METRICS {
            let unit = if m == "store.entry_bytes" {
                "bytes"
            } else {
                "count"
            };
            metrics.push((m.to_owned(), per_study(m), unit));
        }
        let derived = [
            (
                "accel.cache.hit_ratio",
                ratio(
                    per_study("accel.cache.hits"),
                    per_study("accel.cache.lookups"),
                ),
                "frac",
            ),
            (
                "accel.sim.ns_per_kernel_sim",
                ratio(
                    time("accel.sim.slab_costs_ns"),
                    per_study("accel.sim.kernel_sims"),
                ),
                "ns",
            ),
            (
                "core.dse.ns_per_tcdp_cell",
                ratio(
                    time("core.dse.op_time_sweep_ns"),
                    per_study("core.dse.tcdp_cells"),
                ),
                "ns",
            ),
            ("par.workers", workers as f64, "count"),
            (
                "obs.trace_overhead_frac",
                ratio(
                    percentile_ms(&traced.times_ns, 0.5),
                    percentile_ms(&plain.times_ns, 0.5),
                ) - 1.0,
                "frac",
            ),
            ("layers.coverage_frac", coverage, "frac"),
        ];
        for (m, v, unit) in derived {
            metrics.push((m.to_owned(), v, unit));
        }
        // Wall-clock figures of the untraced studies: reported, not
        // bounded, because host contention moves them run to run by more
        // than any allowed bound (see README).
        let wall_s = plain.times_ns.iter().sum::<u64>() as f64 / 1e9;
        let wall = [
            (
                "study.wall_p50_ms",
                percentile_ms(&plain.times_ns, 0.5),
                "ms",
            ),
            (
                "study.wall_p90_ms",
                percentile_ms(&plain.times_ns, 0.9),
                "ms",
            ),
            (
                "study.points_per_wall_s",
                ratio(plain.points as f64, wall_s),
                "1/s",
            ),
            ("study.cpu_p50_ms", percentile_ms(&plain.cpu_ns, 0.5), "ms"),
        ];
        for (m, v, unit) in wall {
            metrics.push((m.to_owned(), v, unit));
        }
    } else {
        let user_s = plain.user_ns.iter().sum::<u64>() as f64 / 1e9;
        metrics.push(("setup_s".into(), median(setups), "s"));
        metrics.push((
            "study_user_cpu_p50_ms".into(),
            percentile_ms(&plain.user_ns, 0.5),
            "ms",
        ));
        metrics.push((
            "study_user_cpu_p90_ms".into(),
            percentile_ms(&plain.user_ns, 0.9),
            "ms",
        ));
        metrics.push((
            "design_points_per_user_cpu_s".into(),
            ratio(plain.points as f64, user_s),
            "1/s",
        ));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        metrics.push((
            "study_ok_frac".into(),
            1.0 - ratio(failed as f64, studies as f64),
            "frac",
        ));
    }

    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let source = std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".into());
    println!(
        "perfbench env: workload={} seed={} trace={} nproc={nproc} workers={workers} studies={studies} rustc=\"{rustc}\" commit={commit} source_digest={source}",
        args.workload, args.seed, u8::from(args.trace)
    );
    let pct: Vec<String> = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&q| {
            format!(
                "p{}={:.3}",
                (q * 100.0) as u32,
                percentile_ms(&plain.times_ns, q)
            )
        })
        .collect();
    println!(
        "perfbench study ms (untraced, n={}): wall {} | user cpu p50={:.3} p90={:.3} | user+sys cpu p50={:.3}",
        plain.times_ns.len(),
        pct.join(" "),
        percentile_ms(&plain.user_ns, 0.5),
        percentile_ms(&plain.user_ns, 0.9),
        percentile_ms(&plain.cpu_ns, 0.5)
    );
    println!("perfbench inputs: digest={input_digest} (first {COUNT_STUDIES} studies)");
    println!("perfbench output bits: digest={output_digest}");
    let counts_line: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("perfbench counts: {}", counts_line.join(" "));
    for why in plain
        .first_error
        .iter()
        .chain(&traced.first_error)
        .chain(&self_check)
    {
        println!("perfbench FAILED: {why}");
    }

    let correct = failed == 0 && self_check.is_empty() && trace_ok;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {studies}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "space_sweep" => drive::<SpaceSweep>(&args),
        "horizon_study" => drive::<HorizonStudy>(&args),
        "store_session" => drive::<StoreSession>(&args),
        other => Err(format!(
            "unknown workload `{other}` (space_sweep | horizon_study | store_session)"
        )),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
