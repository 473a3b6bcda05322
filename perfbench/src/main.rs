//! The workspace benchmark: end-to-end and per-layer metrics for three
//! workloads, measured in one process on one thread. See `README.md` for
//! the workloads, the metrics and what moves what.
//!
//! ```text
//! perfbench --workload <suite-paper|repro-small|oracle-gen> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Passes over the workload repeat while at least half of the next one,
//! judged by the last, fits in `--seconds`. Each works on a workload
//! freshly set up five times (the median of all set-ups is `setup_s`).
//! With `--trace 0` every pass is untraced and the end-to-end metrics
//! are printed. With `--trace 1` untraced and traced passes alternate and
//! the per-layer metrics are printed. Values that must repeat exactly are
//! compared across passes, and the run fails if they drift. The last line
//! of stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod oracle_gen;
mod repro_small;
mod suite_paper;
mod trace;

use rmt_kernels::Benchmark;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Set-ups timed before every pass; `setup_s` is the median over all.
const SETUP_REPS: usize = 5;
/// The share of a container span (`bench.pass` and the workload's cell
/// span) its children may leave uncovered, or `SPAN_FLOOR_S` seconds if
/// that is more, before a traced run reports itself incorrect.
const SPAN_EPSILON: f64 = 0.01;
const SPAN_FLOOR_S: f64 = 1e-4;

const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
];

/// Every per-layer metric, printed for every workload (0 where the
/// workload does not exercise it). Metrics ending in `_s` are span self
/// times per traced pass.
const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.build_s", "s"),
    ("kernels.plan_s", "s"),
    ("kernels.verify_s", "s"),
    ("ir.generate_s", "s"),
    ("ir.validate_s", "s"),
    ("ir.lint_s", "s"),
    ("ir.harden_s", "s"),
    ("core.transform_s", "s"),
    ("core.verify_rmt_s", "s"),
    ("core.tv_s", "s"),
    ("core.coverage_s", "s"),
    ("core.check_case_s", "s"),
    ("core.oracle_remainder_s", "s"),
    ("core.code_growth", "ratio"),
    ("core.tv_obligations", "count"),
    ("sim.compile_s", "s"),
    ("sim.launch_s", "s"),
    ("sim.readback_s", "s"),
    ("sim.ns_per_inst", "ns"),
    ("sim.minsts_per_s", "Minst/s"),
    ("sim.launches", "count"),
    ("sim.insts", "count"),
    ("sim.cycles", "cycles"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.dram_transactions", "count"),
    ("sim.injections", "count"),
    ("sim.rmt_slowdown_geomean", "ratio"),
    ("fault.detected", "count"),
    ("fault.sdc", "count"),
    ("fault.masked", "count"),
    ("fault.due", "count"),
    ("bench.cells", "count"),
    ("bench.case_ms_p50", "ms"),
    ("bench.case_ms_p95", "ms"),
    ("bench.self_s", "s"),
    ("bench.fail_ratio", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.exp_s.table1", "s"),
    ("bench.exp_s.table2", "s"),
    ("bench.exp_s.table3", "s"),
    ("bench.exp_s.fig2", "s"),
    ("bench.exp_s.fig3", "s"),
    ("bench.exp_s.fig4", "s"),
    ("bench.exp_s.fig5", "s"),
    ("bench.exp_s.fig6", "s"),
    ("bench.exp_s.fig7", "s"),
    ("bench.exp_s.fig8", "s"),
    ("bench.exp_s.fig9", "s"),
    ("bench.exp_s.coverage", "s"),
    ("bench.exp_s.coverage-static", "s"),
    ("bench.exp_s.staleness", "s"),
    ("bench.exp_s.baseline", "s"),
    ("bench.exp_s.ablation", "s"),
    ("bench.exp_s.lint", "s"),
    ("bench.exp_s.tv", "s"),
    ("bench.exp_s.pareto", "s"),
    ("bench.exp_s.other", "s"),
    ("obs.overhead_frac", "ratio"),
];

/// Span names that only group the layer calls beneath them; their self
/// time is the benchmark's own overhead (`bench.self_s`).
const CONTAINERS: [&str; 4] = ["bench.pass", "bench.cell", "bench.case", "bench.replay"];

/// What one pass over a workload reports.
#[derive(Default)]
pub struct PassReport {
    /// Latency of each operation: a suite cell, an experiment or an
    /// oracle case.
    pub op_s: Vec<f64>,
    /// Failures that are the benchmark's own output checks (as opposed
    /// to verdicts the program reaches about itself).
    pub wrong: Vec<String>,
    /// Outputs the program itself rejected.
    pub rejected: Vec<String>,
    /// Values that must repeat exactly in every pass.
    pub fixed: Vec<(&'static str, String)>,
}

impl PassReport {
    fn time_op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.op_s.push(t.elapsed().as_secs_f64());
        out
    }

    fn failed(&self) -> u64 {
        (self.wrong.len() + self.rejected.len()) as u64
    }
}

pub trait Workload {
    /// One pass over the workload's inputs; `tr` records spans only in a
    /// traced pass.
    fn pass(&mut self, tr: &mut Tracer) -> PassReport;
    /// Extra attribution work after a traced pass, outside its timing.
    fn replay(&mut self, _tr: &mut Tracer) {}
    /// Per-layer values the workload computes itself.
    fn layer_extras(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// The span whose children must tile it, besides `bench.pass`.
    fn container(&self) -> &'static str;
}

/// Builds the kernel registry and validates every kernel in it.
pub fn registry() -> Result<Vec<Box<dyn Benchmark>>, String> {
    let all = rmt_kernels::all();
    for b in &all {
        rmt_ir::validate(&b.kernel()).map_err(|e| format!("{}: {e:?}", b.abbrev()))?;
    }
    Ok(all)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn digest(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h ^ 0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `items` in an order drawn from `seed`.
pub fn seeded_order<T>(seed: u64, items: Vec<T>) -> Vec<T> {
    let mut keyed: Vec<(u64, T)> = items
        .into_iter()
        .enumerate()
        .map(|(i, x)| (rmt_ir::fuzz::child_seed(seed, i as u64), x))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    keyed.into_iter().map(|(_, x)| x).collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<f64, String> {
        let v = get(k)?;
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("{k}: bad value `{v}`"))
    };
    let seed = get("--seed")?;
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: seed
            .parse()
            .map_err(|_| format!("--seed: bad value `{seed}`"))?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            v => return Err(format!("--trace: bad value `{v}`")),
        },
    })
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear interpolation between order statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

fn counter(snap: &rmt_obs::MetricsSnapshot, name: &str, label: Option<(&str, &str)>) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.name == name)
        .filter(|c| label.is_none_or(|(k, v)| c.labels.iter().any(|(a, b)| a == k && b == v)))
        .map(|c| c.value)
        .sum()
}

/// The deterministic counters the program publishes through `rmt-obs`.
fn obs_fixed(snap: &rmt_obs::MetricsSnapshot) -> Vec<(&'static str, u64)> {
    let c = |name| counter(snap, name, None);
    let mut out = vec![
        ("sim.launches", c("sim.launches")),
        ("sim.insts", c("sim.insts")),
        ("sim.cycles", c("sim.cycles")),
        ("sim.dram_transactions", c("sim.dram_transactions")),
        ("sim.l1.read_hits", c("sim.l1.read_hits")),
        ("sim.l1.read_misses", c("sim.l1.read_misses")),
        ("sim.l2.read_hits", c("sim.l2.read_hits")),
        ("sim.l2.read_misses", c("sim.l2.read_misses")),
        (
            "core.tv_obligations",
            c("tv.obligations.exits") + c("tv.obligations.compares") + c("tv.obligations.loops"),
        ),
        ("bench.cells", c("pool.cells")),
    ];
    for (name, outcome) in [
        ("fault.detected", "detected"),
        ("fault.sdc", "sdc"),
        ("fault.masked", "masked"),
        ("fault.due", "due"),
    ] {
        out.push((
            name,
            counter(snap, "fault.outcome", Some(("outcome", outcome))),
        ));
    }
    out
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Everything a run gathers over its passes.
#[derive(Default)]
struct Tally {
    setup_s: Vec<f64>,
    plain_wall: Vec<f64>,
    traced_wall: Vec<f64>,
    /// Median and 95th-percentile operation latency of each untraced
    /// pass. Every pass runs the same operations, so percentiles are
    /// taken per pass and then their median over passes.
    op_p50: Vec<f64>,
    op_p95: Vec<f64>,
    /// The first pass; every later pass must repeat its fixed values.
    first: Option<PassReport>,
    /// Program counters of the first traced pass.
    obs: Vec<(&'static str, u64)>,
    /// Span self times summed over the traced passes.
    self_times: BTreeMap<String, f64>,
    coverage: f64,
    gaps: usize,
    extras: Vec<(&'static str, f64)>,
}

fn drive<W: Workload>(args: &Args, setup: fn(u64) -> Result<W, String>) -> Result<Run, String> {
    let mut t = Tally {
        coverage: 1.0,
        ..Tally::default()
    };
    let start = Instant::now();
    // A round is an untraced pass with its set-ups, and in a traced run
    // the traced pass that follows it.
    let mut round = start;
    loop {
        let traced = args.trace && t.traced_wall.len() < t.plain_wall.len();
        if !traced {
            let last = round.elapsed().as_secs_f64();
            round = Instant::now();
            // Another round starts only if at least half of it, judged by
            // the last one, fits in `--seconds`.
            let late = start.elapsed().as_secs_f64() + last / 2.0 > args.seconds;
            if !t.plain_wall.is_empty() && late {
                break;
            }
        }
        // A fresh set-up before every pass, so no pass reuses what an
        // earlier one built, and `setup_s` samples the whole run.
        let mut w = None;
        for _ in 0..SETUP_REPS {
            let s = Instant::now();
            w = Some(setup(args.seed)?);
            t.setup_s.push(s.elapsed().as_secs_f64());
        }
        let mut w = w.expect("at least one set-up");
        if traced {
            rmt_obs::enable(rmt_obs::Clock::Wall);
        }
        let mut tr = Tracer::new(traced);
        let clock = Instant::now();
        let rep = tr.span("bench.pass", |tr| w.pass(tr));
        let wall = clock.elapsed().as_secs_f64();
        let kind = if traced { "traced" } else { "untraced" };
        eprintln!("perfbench: {} {kind} pass {wall:.3} s", args.workload);
        if traced {
            let fixed = obs_fixed(&rmt_obs::metrics_snapshot());
            w.replay(&mut tr);
            if t.traced_wall.is_empty() {
                write_trace(args, &tr)?;
                t.obs = fixed;
            } else {
                check_same(&t.obs, &fixed)?;
            }
            rmt_obs::disable();
            t.traced_wall.push(wall);
            for (name, s) in tr.self_times() {
                *t.self_times.entry(name.to_string()).or_default() += s;
            }
            for name in ["bench.pass", w.container()] {
                t.coverage = t.coverage.min(tr.coverage(name));
                t.gaps += tr.gaps(name, SPAN_EPSILON, SPAN_FLOOR_S);
            }
            t.extras = w.layer_extras();
        } else {
            t.plain_wall.push(wall);
            t.op_p50.push(median(&rep.op_s));
            t.op_p95.push(quantile(&rep.op_s, 0.95));
        }
        match &t.first {
            None => {
                for m in rep.wrong.iter().chain(&rep.rejected) {
                    eprintln!("perfbench: failed: {m}");
                }
                t.first = Some(rep);
            }
            Some(f0) => {
                check_same(&f0.fixed, &rep.fixed)?;
                if (&f0.wrong, &f0.rejected) != (&rep.wrong, &rep.rejected) {
                    return Err("determinism: passes fail different operations".into());
                }
            }
        }
    }
    // Every pass makes the same operations and, by the guard above, fails
    // the same ones, so each operation counts once however many passes
    // timed it.
    let first = t.first.take().expect("at least one pass");
    let attempted = first.op_s.len() as u64;
    let fail_ratio = ratio(first.failed() as f64, attempted as f64);
    for (k, v) in &first.fixed {
        println!("fixed {k} = {v}");
    }
    let metrics = if args.trace {
        println!(
            "passes {} untraced, {} traced | {attempted} ops a pass",
            t.plain_wall.len(),
            t.traced_wall.len(),
        );
        layer_metrics(&t, attempted, fail_ratio)
    } else {
        println!("passes {} | {attempted} ops a pass", t.plain_wall.len());
        let values = [
            median(&t.setup_s),
            median(&t.plain_wall),
            peak_rss_mb()?,
            1.0 - fail_ratio,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    if t.gaps > 0 {
        eprintln!(
            "perfbench: {} spans leave more than {SPAN_EPSILON} of their time (or {SPAN_FLOOR_S} s) \
             outside their children",
            t.gaps
        );
    }
    Ok(Run {
        correct: first.wrong.is_empty() && t.gaps == 0,
        attempted,
        failed: first.failed(),
        metrics,
    })
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order.
fn layer_metrics(
    t: &Tally,
    ops_per_pass: u64,
    fail_ratio: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let passes = t.traced_wall.len() as f64;
    let plain = median(&t.plain_wall);
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, s) in &t.self_times {
        let key = if CONTAINERS.contains(&name.as_str()) {
            "bench.self_s"
        } else {
            PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n == name)
                .unwrap_or("bench.exp_s.other")
        };
        *v.entry(key).or_default() += s / passes;
    }
    for &(name, x) in &t.obs {
        v.insert(name, x as f64);
    }
    let hit_rate = |l: &str| {
        let hits = v[format!("sim.{l}.read_hits").as_str()];
        ratio(hits, hits + v[format!("sim.{l}.read_misses").as_str()])
    };
    let (l1, l2) = (hit_rate("l1"), hit_rate("l2"));
    v.insert("sim.l1_hit_rate", l1);
    v.insert("sim.l2_hit_rate", l2);
    let injections = ["fault.detected", "fault.sdc", "fault.masked", "fault.due"]
        .iter()
        .map(|n| v[n])
        .sum();
    v.insert("sim.injections", injections);
    if v["bench.cells"] == 0.0 {
        v.insert("bench.cells", ops_per_pass as f64);
    }
    for &(name, x) in &t.extras {
        v.insert(name, x);
    }
    let launch_s = v.get("sim.launch_s").copied().unwrap_or(0.0);
    let launch_insts = v.remove("launch_insts").unwrap_or(0.0);
    v.insert("sim.ns_per_inst", ratio(launch_s * 1e9, launch_insts));
    v.insert("sim.minsts_per_s", v["sim.insts"] / plain / 1e6);
    if let Some(&check) = v.get("core.check_case_s") {
        let replayed: f64 = REPLAYED.iter().filter_map(|n| v.get(n)).sum();
        v.insert("core.oracle_remainder_s", check - replayed);
    }
    v.insert("bench.fail_ratio", fail_ratio);
    v.insert("bench.span_coverage", t.coverage);
    v.insert("bench.case_ms_p50", median(&t.op_p50) * 1e3);
    v.insert("bench.case_ms_p95", median(&t.op_p95) * 1e3);
    v.insert("obs.overhead_frac", median(&t.traced_wall) / plain - 1.0);
    print_layer_table(&v, plain);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The stages an oracle-gen replay times that `check_case` also runs.
const REPLAYED: [&str; 9] = [
    "ir.validate_s",
    "ir.lint_s",
    "core.transform_s",
    "core.verify_rmt_s",
    "core.tv_s",
    "core.coverage_s",
    "sim.compile_s",
    "sim.launch_s",
    "sim.readback_s",
];

fn check_same<V: PartialEq + std::fmt::Debug>(
    a: &[(&str, V)],
    b: &[(&str, V)],
) -> Result<(), String> {
    if a.len() != b.len() {
        return Err("determinism: passes report different value sets".into());
    }
    for ((k, x), (_, y)) in a.iter().zip(b) {
        if x != y {
            return Err(format!(
                "determinism: {k} drifted from {x:?} to {y:?} between passes"
            ));
        }
    }
    Ok(())
}

/// Host time per layer in one traced pass: span self times summed by
/// the metric name's prefix, with each layer's share. An oracle case
/// shows through its replayed stages plus the remainder, and `obs` is
/// the tracing overhead.
fn print_layer_table(v: &BTreeMap<&str, f64>, plain: f64) {
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        if *unit == "s" && !["core.check_case_s", "ir.generate_s"].contains(name) {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_default() += v.get(name).copied().unwrap_or(0.0).max(0.0);
        }
    }
    layers.insert("obs", (v["obs.overhead_frac"] * plain).max(0.0));
    let total: f64 = layers.values().sum();
    println!("layer      self s/pass   share");
    for (layer, s) in &layers {
        println!(
            "{layer:<10} {s:>11.4}   {:>5.1}%",
            100.0 * s / total.max(1e-12)
        );
    }
}

fn write_trace(args: &Args, tr: &Tracer) -> Result<(), String> {
    rmt_obs::add_chrome_events(&tr.chrome_events());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, rmt_obs::chrome_trace_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    Ok(())
}

fn json(run: &Run) -> Result<String, String> {
    let mut m = Vec::new();
    for (name, value, unit) in &run.metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        m.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        m.join(", ")
    ))
}

fn main() {
    let result = parse_args().and_then(|args| {
        let run = match args.workload.as_str() {
            "suite-paper" => drive(&args, suite_paper::SuitePaper::setup),
            "repro-small" => drive(&args, repro_small::ReproSmall::setup),
            "oracle-gen" => drive(&args, oracle_gen::OracleGen::setup),
            other => Err(format!("unknown workload `{other}`")),
        }?;
        for (name, value, unit) in &run.metrics {
            println!("metric {name} = {value} {unit}");
        }
        json(&run)
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
