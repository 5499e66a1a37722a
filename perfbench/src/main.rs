//! The repository benchmark: one seeded run over the three user paths
//! (`slpc batch`, an open-loop `slpd`, VM execution) plus the exact
//! packer, on one simulated machine per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload intel --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics of `BENCHMARK.json`; `--trace 1` replays the same work
//! through a span-recording mirror of each layer's public calls and
//! prints the per-layer metrics instead. Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; progress goes to standard error. Wrong
//! outputs are counted as failed operations, never as a crash.

mod batch;
mod gen;
mod optimal;
mod serve;
mod stats;
mod trace;
mod vm;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use slp::driver::json::{self, Json};
use slp::prelude::MachineConfig;

use stats::median;
use trace::Tracer;

/// Named accumulators (seconds, counts) for one pass or one run.
#[derive(Debug, Default, Clone)]
pub struct Tally(BTreeMap<String, f64>);

impl Tally {
    pub fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += v;
    }

    pub fn set(&mut self, key: &str, v: f64) {
        self.0.insert(key.to_string(), v);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// A workload is one simulated machine; every path runs on it.
fn machine_of(workload: &str) -> Result<(&'static str, MachineConfig), String> {
    match workload {
        "intel" => Ok(("intel", MachineConfig::intel_dunnington())),
        "amd" => Ok(("amd", MachineConfig::amd_phenom_ii())),
        other => Err(format!("unknown workload {other:?} (intel, amd)")),
    }
}

/// Everything the timed phases consume, built before any timing.
struct Inputs {
    batch: batch::BatchInputs,
    serve: serve::ServeInputs,
    vm: vm::VmInputs,
    opt: optimal::OptInputs,
}

/// Seconds each part of one set-up took: batch, serve, VM, optimal.
type SetUpTimes = [f64; 4];

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn set_up(
    root: &Path,
    name: &'static str,
    machine: &MachineConfig,
) -> Result<(Inputs, SetUpTimes), String> {
    let (batch, b) = timed(|| {
        let sources =
            gen::batch_sources(root).map_err(|e| format!("reading examples/kernels: {e}"))?;
        batch::prepare(&sources, machine)
    });
    let (serve, s) = timed(|| serve::prepare(name, machine));
    let (vm, v) = timed(|| vm::prepare(machine));
    let (opt, o) = timed(|| optimal::prepare(machine));
    let inputs = Inputs {
        batch: batch?,
        serve: serve?,
        vm: vm?,
        opt: opt?,
    };
    Ok((inputs, [b, s, v, o]))
}

/// The metric names and units a mode must emit, from `BENCHMARK.json`.
fn declared_metrics(root: &Path, trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::string);
            let unit = m.get("unit").and_then(Json::string);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: malformed {key} entry")),
            }
        })
        .collect()
}

/// One run's verdict and numbers.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Tally,
}

/// Test hooks that damage one output, to prove the checks count it.
#[derive(Debug, Default, Clone, Copy)]
struct Faults {
    corrupt_kernel: bool,
    corrupt_response: bool,
}

fn run(root: &Path, args: &Args, faults: Faults) -> Result<Report, String> {
    let (name, machine) = machine_of(&args.workload)?;
    let declared = declared_metrics(root, args.trace)?;
    // Unique per run, so that concurrent runs (the self-tests) never share it.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let work =
        root.join(".bench_tmp")
            .join(format!("{}-{}-{run}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = run_in(root, &work, name, &machine, args, faults);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using it.
    let _ = std::fs::remove_dir(root.join(".bench_tmp"));
    let mut report = result?;

    for (metric, _) in &declared {
        if !report.metrics.0.contains_key(metric) {
            return Err(format!("metric {metric} was not measured"));
        }
    }
    report
        .metrics
        .0
        .retain(|k, _| declared.iter().any(|(n, _)| n == k));
    Ok(report)
}

fn run_in(
    root: &Path,
    work: &Path,
    name: &'static str,
    machine: &MachineConfig,
    args: &Args,
    faults: Faults,
) -> Result<Report, String> {
    let (inputs, first) = set_up(root, name, machine)?;
    let mut setups = vec![first];

    let mut report = Report::default();
    // Set-up gates: every batch kernel against its scalar program, both
    // VM engines on every configuration, the mirror against the driver.
    report.attempted += (inputs.batch.requests.len() + inputs.vm.cases.len()) as u64;
    report.failed += batch::gate(&inputs.batch) + vm::gate(&inputs.vm);
    let (attempted, failed) = batch::mirror_gate(&inputs.batch, work);
    report.attempted += attempted;
    report.failed += failed;

    if args.trace {
        traced(root, work, &inputs, args, &mut report)?;
    } else {
        let mut set_up_again = || -> Result<(), String> {
            setups.push(set_up(root, name, machine)?.1);
            Ok(())
        };
        untraced(work, &inputs, args, faults, &mut set_up_again, &mut report)?;
        // Each part at its best over the run's set-ups, summed.
        let best: f64 = (0..4)
            .map(|k| setups.iter().map(|t| t[k]).fold(f64::INFINITY, f64::min))
            .sum();
        let whole: Vec<f64> = setups.iter().map(|t| t.iter().sum()).collect();
        eprintln!("set-up: {best:.3} s (parts at their best; whole set-ups {whole:.3?})");
        report.metrics.set("setup_s", best);
    }
    report.metrics.set(
        "peak_rss_mb",
        stats::peak_rss_mb().ok_or("no /proc/self/status")?,
    );
    Ok(report)
}

/// Minimum measurement cycles per run.
const MIN_CYCLES: usize = 2;
/// VM sweeps per cycle.
const VM_SWEEPS: usize = 6;
/// Batch rounds (one cold and several warm phases each) per cycle.
const BATCH_ROUNDS: usize = 3;
/// Capacity probes per cycle.
const PROBES: usize = 3;

/// The end-to-end run. The host's co-tenants slow it down in bursts
/// lasting seconds, so the paths are not measured one after another:
/// each cycle runs a slice of every path and the cycles repeat for the
/// whole run, so every metric samples the same stretch of time. The cold
/// batch rate is the median over rounds and the warm one (phases of a
/// few milliseconds) the 90th percentile over phases; serve quantiles are
/// taken over every request of every window (warm and cold apart); the
/// VM and optimal rates are the item count over the sum of per-item best
/// times, which reads the quiet periods. The set-up is repeated once per
/// cycle too; `setup_s` sums its parts' best times, for the same reason.
fn untraced(
    work: &Path,
    inputs: &Inputs,
    args: &Args,
    faults: Faults,
    set_up_again: &mut dyn FnMut() -> Result<(), String>,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let dir = work.join("serve");
    let mut b = batch::BatchResult::default();
    let mut v = vm::VmResult::new(&inputs.vm);
    let mut o = optimal::OptResult::new(&inputs.opt);
    let mut warm_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let mut capacity = serve::Capacity::new();
    let mut cycle = 0;
    let mut cycle_s: f64 = 0.0;
    // Stop before a cycle would overrun `--seconds`.
    while cycle < MIN_CYCLES || start.elapsed().as_secs_f64() + cycle_s <= args.seconds {
        let cycle_start = Instant::now();
        set_up_again()?;
        for r in 0..BATCH_ROUNDS {
            let first = cycle == 0 && r == 0;
            batch::round(
                &inputs.batch,
                work,
                first,
                faults.corrupt_kernel && first,
                &mut b,
            );
        }

        let plan = serve::plan(
            &inputs.serve,
            args.seed,
            cycle as u64,
            serve::RATE,
            serve::WINDOW_S,
        );
        let w = serve::window(
            &inputs.serve,
            &dir,
            &plan,
            faults.corrupt_response && cycle == 0,
        )?;
        warm_ms.extend(w.latencies_ms(&plan, Some(serve::Class::Warm)));
        cold_ms.extend(w.latencies_ms(&plan, Some(serve::Class::Cold)));
        report.attempted += plan.len() as u64;
        report.failed += w.count(serve::Verdict::Wrong) + w.count(serve::Verdict::Refused);
        for _ in 0..PROBES {
            report.failed += capacity.step(&inputs.serve, &dir, args.seed)?;
        }

        for _ in 0..VM_SWEEPS {
            vm::sweep(&inputs.vm, &mut v);
        }
        optimal::sweep(&inputs.opt, &mut o);
        cycle += 1;
        cycle_s = cycle_s.max(cycle_start.elapsed().as_secs_f64());
    }
    let max_rps = capacity.rate();
    let probes = capacity.probes;

    report.attempted += b.attempted + v.attempted + o.attempted + capacity.attempted;
    report.failed += b.failed + v.failed + o.failed;
    let m = &mut report.metrics;
    m.set("batch_cold_kps", median(&b.cold_kps));
    m.set("batch_warm_kps", stats::percentile(&b.warm_kps, 90.0));
    m.set("serve_warm_p50_ms", stats::percentile(&warm_ms, 50.0));
    m.set("serve_cold_p50_ms", stats::percentile(&cold_ms, 50.0));
    m.set("serve_max_rps", max_rps);
    m.set("vm_runs_per_s", v.runs_per_s());
    m.set("sim_speedup_geomean", inputs.vm.sim_speedup);
    m.set("opt_kps", o.kps());
    m.set("opt_speedup_geomean", o.speedup());
    eprintln!(
        "{cycle} cycles: batch cold {:.0} k/s, warm {:.0} k/s; serve {} warm, {} cold, warm p50 {:.3} ms, \
         cold p50 {:.3} ms, max {:.0} req/s ({} probes); vm {:.0} runs/s; optimal {:.2} k/s",
        m.get("batch_cold_kps"),
        m.get("batch_warm_kps"),
        warm_ms.len(),
        cold_ms.len(),
        m.get("serve_warm_p50_ms"),
        m.get("serve_cold_p50_ms"),
        max_rps,
        probes,
        v.runs_per_s(),
        o.kps()
    );
    Ok(())
}

/// One pass of the single-threaded mirrors; returns its wall seconds.
fn mirror_pass(
    tr: &Tracer,
    work: &Path,
    inputs: &Inputs,
    replay_plan: &[serve::Planned],
    first: bool,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<f64, String> {
    let start = Instant::now();
    let ops = [
        batch::mirror_pass(tr, &inputs.batch, &work.join("mirror-batch"), first, tally),
        vm::mirror_sweep(tr, &inputs.vm, tally),
        optimal::mirror_sweep(tr, &inputs.opt, &work.join("mirror-opt"), tally),
        serve::replay(
            tr,
            &inputs.serve,
            &work.join("mirror-serve"),
            replay_plan,
            tally,
        )?,
    ];
    let wall = start.elapsed().as_secs_f64();
    for (a, f) in ops {
        report.attempted += a;
        report.failed += f;
    }
    Ok(wall)
}

fn traced(
    root: &Path,
    work: &Path,
    inputs: &Inputs,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let s = args.seconds;
    let replay_plan = serve::plan(&inputs.serve, args.seed, 1, serve::RATE, 1.0);
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let mut per_pass: Vec<Tally> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut kept_spans = None;
    let phase = Instant::now();
    while plain_walls.is_empty()
        || traced_walls.len() < 2
        || phase.elapsed().as_secs_f64() < 0.7 * s
    {
        let tracing = traced_walls.len() <= plain_walls.len();
        let mut tally = Tally::default();
        let tr = if tracing { &on } else { &off };
        let wall = mirror_pass(
            tr,
            work,
            inputs,
            &replay_plan,
            per_pass.is_empty() && tracing,
            &mut tally,
            report,
        )?;
        if !tracing {
            plain_walls.push(wall);
            continue;
        }
        traced_walls.push(wall);
        let spans = on.take();
        let (self_ns, covered_ns) = trace::self_times(&spans);
        let self_s: BTreeMap<&'static str, f64> = self_ns
            .into_iter()
            .map(|(k, v)| (k, v as f64 / 1e9))
            .collect();
        let mut out = Tally::default();
        batch::layer_metrics(&self_s, &tally, &mut out);
        pass_metrics(&self_s, &tally, &mut out);
        out.set(
            "trace.uncovered_ratio",
            (1.0 - covered_ns as f64 / 1e9 / wall).max(0.0),
        );
        per_pass.push(out);
        if kept_spans.is_none() {
            kept_spans = Some(spans);
        }
    }
    eprintln!(
        "trace: {} traced and {} untraced passes, {:.3} s vs {:.3} s",
        traced_walls.len(),
        plain_walls.len(),
        median(&traced_walls),
        median(&plain_walls)
    );

    let m = &mut report.metrics;
    let keys: Vec<String> = per_pass[0].0.keys().cloned().collect();
    for key in keys {
        let values: Vec<f64> = per_pass.iter().map(|p| p.get(&key)).collect();
        m.set(&key, median(&values));
    }
    m.set(
        "trace.overhead_ratio",
        median(&traced_walls) / median(&plain_walls),
    );

    // Batch busy share from one real two-thread cold phase.
    let mut b = batch::BatchResult::default();
    batch::round(&inputs.batch, work, false, false, &mut b);
    report.attempted += b.attempted;
    report.failed += b.failed;
    report.metrics.set("batch.busy_ratio", median(&b.busy));

    // Serve over the wire: idle round trips, then one fixed-rate window.
    let dir = work.join("serve");
    let wire = serve::wire_seconds(&inputs.serve, &dir)?;
    let handle = |c: serve::Class| report.metrics.get(&format!("serve.handle_{}_s", c.name()));
    let plan = serve::plan(
        &inputs.serve,
        args.seed,
        0,
        serve::RATE,
        (0.15 * s).max(1.0),
    );
    let w = serve::window(&inputs.serve, &dir, &plan, false)?;
    let waits: Vec<f64> = plan
        .iter()
        .zip(&w.observed)
        .map(|(p, o)| (o.latency_s - handle(p.class) - wire).max(0.0))
        .collect();
    let lags: Vec<f64> = w.observed.iter().map(|o| o.lag_s * 1e3).collect();
    let warm_ms = w.latencies_ms(&plan, Some(serve::Class::Warm));
    let cold_ms = w.latencies_ms(&plan, Some(serve::Class::Cold));
    report.attempted += plan.len() as u64;
    report.failed += w.count(serve::Verdict::Wrong) + w.count(serve::Verdict::Refused);
    let m = &mut report.metrics;
    m.set("serve.wire_s", wire);
    m.set("serve.queue_wait_s", stats::mean(&waits));
    m.set("serve.gen_lag_ms", stats::mean(&lags));
    m.set("serve.warm_p99_ms", stats::percentile(&warm_ms, 99.0));
    m.set("serve.cold_p99_ms", stats::percentile(&cold_ms, 99.0));
    m.set("serve.compiled", w.summary.compiled as f64);
    m.set("serve.cache_hits", w.summary.cache_hits as f64);
    m.set("serve.coalesced", w.summary.coalesced as f64);
    m.set("serve.rejected_quota", w.summary.rejected_quota as f64);
    let expected_errors = plan
        .iter()
        .zip(&w.verdicts)
        .filter(|(p, v)| {
            matches!(p.class, serve::Class::Malformed | serve::Class::Quota)
                && **v == serve::Verdict::Right
        })
        .count();
    m.set("serve.expected_errors", expected_errors as f64);
    m.set("driver.cache_hit_ratio", w.hit_ratio);

    if let Some(spans) = kept_spans {
        let path = root
            .join(".bench_out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "trace: {} spans of the first traced pass in {}",
            spans.len(),
            path.display()
        );
    }
    Ok(())
}

/// Per-layer numbers of the VM, optimal and serve mirrors of one pass.
fn pass_metrics(self_s: &BTreeMap<&'static str, f64>, tally: &Tally, out: &mut Tally) {
    let s = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    out.set("opt.compile_s", s("opt.compile"));
    let solve = tally.get("opt.compile.phase.solve");
    out.set("opt.solve_s", solve);
    out.set("opt.nodes", tally.get("opt.compile.opt_nodes"));
    out.set(
        "opt.nodes_per_s",
        tally.get("opt.compile.opt_nodes") / solve.max(1e-12),
    );
    out.set("opt.blocks", tally.get("opt.blocks"));
    out.set("opt.capped_blocks", tally.get("opt.capped_blocks"));
    out.set("vm.codegen_s", s("vm.codegen"));
    out.set("vm.translate_s", s("vm.translate"));
    out.set("vm.exec_s", s("vm.exec"));
    out.set("vm.ops", tally.get("vm.ops"));
    out.set("vm.fused_ops", tally.get("vm.fused_ops"));
    out.set("vm.sim_insts", tally.get("vm.sim_insts"));
    out.set(
        "vm.sim_insts_per_s",
        tally.get("vm.sim_insts") / s("vm.exec").max(1e-12),
    );
    out.set(
        "vm.unchecked_ratio",
        tally.get("vm.accesses_unchecked") / tally.get("vm.accesses").max(1.0),
    );
    for class in serve::Class::ALL {
        let n = tally.get(&format!("serve.n.{}", class.name())).max(1.0);
        out.set(
            &format!("serve.handle_{}_s", class.name()),
            s(&format!("serve.handle.{}", class.name())) / n,
        );
    }
}

fn render(report: &Report, declared: &[(String, String)]) -> String {
    let metrics = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                Json::float(report.metrics.get(name)).to_compact()
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload intel|amd --seed N --seconds S [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let declared = match declared_metrics(&root, args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&root, &args, Faults::default()) {
        Ok(report) => {
            println!("{}", render(&report, &declared));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("repo root")
            .to_path_buf()
    }

    fn args(trace: bool) -> Args {
        Args {
            workload: "intel".into(),
            seed: 7,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn every_declared_metric_is_emitted_with_a_unit() {
        for trace in [false, true] {
            let declared = declared_metrics(&root(), trace).unwrap();
            assert!(!declared.is_empty());
            let report = run(&root(), &args(trace), Faults::default()).unwrap();
            assert_eq!(report.failed, 0, "trace {trace}");
            let line = render(&report, &declared);
            let doc = json::parse(&line).unwrap();
            let metrics = doc.get("metrics").unwrap();
            for (name, unit) in &declared {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::string), Some(unit.as_str()));
                assert!(!unit.is_empty());
                assert!(
                    m.get("value")
                        .and_then(Json::f64)
                        .is_some_and(f64::is_finite),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn a_corrupted_decoded_kernel_is_a_failed_operation() {
        let faults = Faults {
            corrupt_kernel: true,
            ..Faults::default()
        };
        let report = run(&root(), &args(false), faults).unwrap();
        assert!(report.failed >= 1);
    }

    #[test]
    fn a_wrong_serve_response_is_a_failed_operation() {
        let faults = Faults {
            corrupt_response: true,
            ..Faults::default()
        };
        let report = run(&root(), &args(false), faults).unwrap();
        assert!(report.failed >= 1);
    }

    #[test]
    fn the_mirror_agrees_with_the_driver_cache() {
        let (_, machine) = machine_of("amd").unwrap();
        let sources = gen::batch_sources(&root()).unwrap();
        let inputs = batch::prepare(&sources[..1], &machine).unwrap();
        let work = root()
            .join(".bench_tmp")
            .join(format!("mirror-gate-{}", std::process::id()));
        assert_eq!(batch::mirror_gate(&inputs, &work), (4, 0));
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(root().join(".bench_tmp"));
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload intel --seed 1 --seconds 10 --trace 1")).is_ok());
        assert!(parse_args(&argv("--workload intel --seed x --seconds 10")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 10")).is_err());
        assert!(machine_of("sparc").is_err());
    }
}
