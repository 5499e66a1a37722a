//! The `slpc batch` path: `compile_batch` over a fresh disk cache (cold)
//! and again over the same directory through a new cache (warm), plus
//! the traced single-threaded mirror of `compile_source` that the
//! per-layer run times call by call.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use slp::core::{compile_timed, CompileStats, CompiledKernel, Phase, PhaseTimings, Strategy};
use slp::driver::json::{self, Json};
use slp::driver::{
    compile_batch, decode_kernel, decode_report, decode_timings, encode_kernel, encode_report,
    encode_timings, BatchConfig, CacheDisposition, CacheTier, CachedCompile, CompileCache,
    CompileRequest, Fingerprint, VerifyLevel, DEFAULT_MEMORY_CAPACITY, FORMAT_VERSION,
};
use slp::prelude::{MachineConfig, SlpConfig};

use crate::gen::{token_count, Source};
use crate::optimal::{BlockCounts, CountingPacker};
use crate::trace::Tracer;
use crate::Tally;

/// Worker threads of the measured batch (the host has two cores).
pub const THREADS: usize = 2;
/// Warm phases per round: each opens a new cache over the same
/// directory, so each one reads and decodes every entry from disk.
const WARM_REPEATS: usize = 6;

/// The four strategy columns every batch source is compiled under.
pub fn strategy_configs(machine: &MachineConfig) -> Vec<(&'static str, SlpConfig)> {
    let cfg = |s| SlpConfig::for_machine(machine.clone(), s);
    vec![
        ("native", cfg(Strategy::Native)),
        ("slp", cfg(Strategy::Baseline)),
        ("global", cfg(Strategy::Holistic)),
        ("global+layout", cfg(Strategy::Holistic).with_layout()),
    ]
}

/// What a correct compile of one request looks like.
#[derive(Debug, Clone)]
pub struct Expect {
    pub fingerprint: Fingerprint,
    pub stats: CompileStats,
}

pub struct BatchInputs {
    pub requests: Vec<CompileRequest>,
    pub expect: Vec<Expect>,
    pub tokens: Vec<usize>,
    /// The set-up compile of each request (kept for the differential gate).
    kernels: Vec<CompiledKernel>,
}

pub fn prepare(sources: &[Source], machine: &MachineConfig) -> Result<BatchInputs, String> {
    let mut requests = Vec::new();
    let mut tokens = Vec::new();
    for src in sources {
        for (label, config) in strategy_configs(machine) {
            requests.push(CompileRequest {
                name: format!("{}/{label}", src.name),
                source: src.text.clone(),
                config,
                verify: VerifyLevel::Static,
            });
            tokens.push(token_count(&src.text));
        }
    }
    let mut expect = Vec::new();
    let mut kernels = Vec::new();
    for req in &requests {
        let out = slp::driver::compile_source(req, None)
            .map_err(|e| format!("set-up compile of {}: {e}", req.name))?;
        expect.push(Expect {
            fingerprint: out.fingerprint,
            stats: out.kernel.stats,
        });
        kernels.push(out.kernel);
    }
    Ok(BatchInputs {
        requests,
        expect,
        tokens,
        kernels,
    })
}

/// The set-up gate: every compiled kernel matches its scalar program.
/// Returns the number of failing kernels.
pub fn gate(inputs: &BatchInputs) -> u64 {
    let mut failed = 0;
    for (req, kernel) in inputs.requests.iter().zip(&inputs.kernels) {
        let ok = slp::lang::compile(&req.source)
            .map(|program| slp::verify::check_differential(&program, kernel).is_empty())
            .unwrap_or(false);
        if !ok {
            eprintln!("batch gate: {} differs from its scalar program", req.name);
            failed += 1;
        }
    }
    failed
}

/// Two kernels execute to the same final state and the same cycles.
pub fn same_execution(a: &CompiledKernel, b: &CompiledKernel) -> bool {
    let machine = &a.config.machine;
    match (slp::vm::execute(a, machine), slp::vm::execute(b, machine)) {
        (Ok(x), Ok(y)) => {
            x.state.bitwise_eq(&y.state)
                && x.stats.metrics.cycles.to_bits() == y.stats.metrics.cycles.to_bits()
        }
        _ => false,
    }
}

#[derive(Debug, Default)]
pub struct BatchResult {
    pub cold_kps: Vec<f64>,
    pub warm_kps: Vec<f64>,
    /// Summed per-request wall over (pass wall × threads), cold phases.
    pub busy: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

fn check(outcome: &slp::driver::KernelOutcome, expect: &Expect, want: CacheDisposition) -> bool {
    match &outcome.result {
        Ok(out) => {
            outcome.degraded.is_none()
                && out.cache == want
                && out.fingerprint == expect.fingerprint
                && out.kernel.stats == expect.stats
                && out.report.as_ref().is_some_and(|r| r.error_count() == 0)
        }
        Err(_) => false,
    }
}

/// One round: a cold phase into a fresh directory under `work`, then
/// [`WARM_REPEATS`] warm phases over it. `execute_check` additionally
/// runs every warm kernel against its cold twin on the VM.
pub fn round(
    inputs: &BatchInputs,
    work: &Path,
    execute_check: bool,
    corrupt: bool,
    res: &mut BatchResult,
) {
    let dir = work.join("batch");
    let _ = std::fs::remove_dir_all(&dir);
    let config = BatchConfig {
        threads: THREADS,
        budget_ms: None,
        degrade: true,
    };
    let n = inputs.requests.len() as f64;

    let cache = CompileCache::with_disk(DEFAULT_MEMORY_CAPACITY, &dir);
    let start = Instant::now();
    let cold = compile_batch(&inputs.requests, Some(&cache), &config);
    let wall = start.elapsed().as_secs_f64();
    res.cold_kps.push(n / wall);
    let busy: u64 = cold
        .iter()
        .filter_map(|o| o.result.as_ref().ok().map(|r| r.wall_nanos))
        .sum();
    res.busy.push(busy as f64 / 1e9 / (wall * THREADS as f64));

    for (o, e) in cold.iter().zip(&inputs.expect) {
        res.attempted += 1;
        if !check(o, e, CacheDisposition::Compiled) {
            eprintln!("batch: cold {} is wrong", o.name);
            res.failed += 1;
        }
    }

    for _ in 0..WARM_REPEATS {
        let cache = CompileCache::with_disk(DEFAULT_MEMORY_CAPACITY, &dir);
        let start = Instant::now();
        let mut warm = compile_batch(&inputs.requests, Some(&cache), &config);
        res.warm_kps.push(n / start.elapsed().as_secs_f64());
        if corrupt {
            corrupt_first(&mut warm);
        }
        for ((w, c), e) in warm.iter().zip(&cold).zip(&inputs.expect) {
            res.attempted += 1;
            let mut ok = check(w, e, CacheDisposition::DiskHit);
            if ok && execute_check {
                if let (Ok(w), Ok(c)) = (&w.result, &c.result) {
                    ok = same_execution(&w.kernel, &c.kernel);
                }
            }
            if !ok {
                eprintln!("batch: warm {} is wrong", w.name);
                res.failed += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Self-test hook: damages the first decoded kernel the way a codec bug
/// would (one superword statement dropped from the statistics).
fn corrupt_first(outcomes: &mut [slp::driver::KernelOutcome]) {
    if let Some(Ok(out)) = outcomes.first_mut().map(|o| &mut o.result) {
        out.kernel.stats.superwords += 1;
    }
}

// ---------------------------------------------------------------------
// The traced mirror of `compile_source`. The cache's entry codec and
// file layout are private to the driver, so the mirror carries a copy of
// them; `mirror_gate` checks the copy against the real cache each run.

/// Where a mirrored compile was answered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Memory,
    Disk,
    Compiled,
}

fn entry_path(dir: &Path, fp: Fingerprint) -> std::path::PathBuf {
    dir.join(format!("{}.json", fp.to_hex()))
}

fn encode_entry(fp: Fingerprint, entry: &CachedCompile) -> String {
    Json::obj([
        ("format", Json::num(FORMAT_VERSION)),
        ("fingerprint", Json::str(fp.to_hex())),
        ("kernel", encode_kernel(&entry.kernel)),
        (
            "report",
            entry.report.as_ref().map_or(Json::Null, encode_report),
        ),
        ("prove", Json::Null),
        ("timings", encode_timings(&entry.timings)),
    ])
    .to_compact()
}

fn decode_entry(text: &str, fp: Fingerprint) -> Option<CachedCompile> {
    let v = json::parse(text).ok()?;
    if v.get("format").and_then(Json::u64) != Some(FORMAT_VERSION)
        || v.get("fingerprint").and_then(Json::string) != Some(fp.to_hex().as_str())
    {
        return None;
    }
    let kernel = decode_kernel(v.get("kernel")?).ok()?;
    let report = match v.get("report")? {
        Json::Null => None,
        r => Some(decode_report(r).ok()?),
    };
    let timings = decode_timings(v.get("timings")?).ok()?;
    Some(CachedCompile {
        kernel,
        report,
        prove: None,
        timings,
    })
}

/// `CompileCache::disk_put`'s file handling: write a temporary file,
/// then rename it over the entry.
fn disk_put(dir: &Path, fp: Fingerprint, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{}.tmp.{}", fp.to_hex(), std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, entry_path(dir, fp)).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

fn disk_get(tr: &Tracer, id: u64, dir: &Path, fp: Fingerprint) -> Option<CachedCompile> {
    let text = tr.span("driver.disk_read", id, || {
        std::fs::read_to_string(entry_path(dir, fp)).ok()
    })?;
    tr.span("driver.decode", id, || decode_entry(&text, fp))
}

/// `compile_source` step by step, one span per public call: fingerprint,
/// memory tier, disk tier (read, decode), parse (lexing included),
/// if-conversion, lowering, validation, the compile itself (named
/// `compile_span`), static verification, and the store (encode, write).
#[allow(clippy::too_many_arguments)]
pub fn mirror_compile(
    tr: &Tracer,
    id: u64,
    req: &CompileRequest,
    tokens: usize,
    mem: &CompileCache,
    dir: &Path,
    compile_span: &'static str,
    tally: &mut Tally,
) -> Result<(CompiledKernel, Tier), String> {
    tr.span("driver.compile_source", id, || {
        let fp = tr.span("driver.fingerprint", id, || req.fingerprint());
        if let Some((entry, _)) = tr.span("driver.cache_get.memory", id, || mem.get(fp)) {
            return Ok((entry.kernel, Tier::Memory));
        }
        if let Some(entry) = tr.span("driver.cache_get.disk", id, || {
            let entry = disk_get(tr, id, dir, fp)?;
            mem.put(fp, &entry);
            Some(entry)
        }) {
            return Ok((entry.kernel, Tier::Disk));
        }
        let mut ast = tr
            .span("lang.parse", id, || slp::lang::parse(&req.source))
            .map_err(|e| e.to_string())?;
        tr.span("lang.if_convert", id, || slp::lang::if_convert(&mut ast));
        let program = tr
            .span("lang.lower", id, || slp::lang::lower(&ast))
            .map_err(|e| e.to_string())?;
        tr.span("ir.validate", id, || program.validate())
            .map_err(|_| "invalid program".to_string())?;
        // The driver installs `slp-opt`'s packer for `Strategy::Optimal`;
        // the mirror installs the same solver wrapped to count its blocks.
        let blocks = Arc::new(BlockCounts::default());
        let config;
        let config = if req.config.strategy == Strategy::Optimal && req.config.packer.is_none() {
            config = req
                .config
                .clone()
                .with_packer(CountingPacker(Arc::clone(&blocks)));
            &config
        } else {
            &req.config
        };
        let (kernel, mut timings) = tr.span(compile_span, id, || compile_timed(&program, config));
        tally.add("opt.blocks", blocks.blocks.load(Ordering::Relaxed) as f64);
        tally.add(
            "opt.capped_blocks",
            blocks.capped.load(Ordering::Relaxed) as f64,
        );
        let report = match req.verify {
            VerifyLevel::None => None,
            VerifyLevel::Static => Some(tr.span("verify.static", id, || {
                timings.time(Phase::Verify, || slp::verify::verify_kernel(&kernel))
            })),
            other => return Err(format!("the mirror has no verify level {}", other.name())),
        };
        let entry = CachedCompile {
            kernel,
            report,
            prove: None,
            timings,
        };
        let bytes = tr.span("driver.cache_put", id, || {
            mem.put(fp, &entry);
            let text = tr.span("driver.encode", id, || encode_entry(fp, &entry));
            tr.span("driver.disk_write", id, || disk_put(dir, fp, &text))
                .map_err(|e| e.to_string())
                .map(|()| text.len())
        })?;

        tally.add("lang.tokens", tokens as f64);
        tally.add("driver.entry_bytes_total", bytes as f64);
        tally.add("driver.entries", 1.0);
        let stats = &entry.kernel.stats;
        tally.add(&format!("{compile_span}.stmts"), stats.stmts as f64);
        tally.add(
            &format!("{compile_span}.superwords"),
            stats.superwords as f64,
        );
        tally.add(
            &format!("{compile_span}.vectorized_stmts"),
            stats.vectorized_stmts as f64,
        );
        tally.add(&format!("{compile_span}.opt_nodes"), stats.opt_nodes as f64);
        for (phase, nanos) in entry.timings.iter() {
            tally.add(
                &format!("{compile_span}.phase.{}", phase.name()),
                nanos as f64 / 1e9,
            );
        }
        Ok((entry.kernel, Tier::Compiled))
    })
}

/// Checks the mirror against the real `CompileCache`, both ways, for one
/// source under every strategy column: an entry the cache wrote decodes
/// through the mirror to the same kernel and timings and re-encodes to
/// the same bytes, and an entry the mirror wrote is a disk hit for a new
/// cache, with the same kernel and the same timed phases as
/// `compile_source`. Returns (attempted, failed).
pub fn mirror_gate(inputs: &BatchInputs, work: &Path) -> (u64, u64) {
    let real_dir = work.join("gate-real");
    let mirror_dir = work.join("gate-mirror");
    let real = CompileCache::with_disk(DEFAULT_MEMORY_CAPACITY, &real_dir);
    let phases = |t: &PhaseTimings| -> Vec<Phase> {
        t.iter().filter(|&(_, ns)| ns > 0).map(|(p, _)| p).collect()
    };
    let agrees = |req: &CompileRequest| -> Option<bool> {
        let out = slp::driver::compile_source(req, Some(&real)).ok()?;
        let fp = out.fingerprint;
        let text = std::fs::read_to_string(entry_path(&real_dir, fp)).ok()?;
        let entry = decode_entry(&text, fp)?;
        let decodes = encode_entry(fp, &entry) == text
            && entry.kernel.stats == out.kernel.stats
            && entry.timings == out.timings;
        let mem = CompileCache::in_memory(DEFAULT_MEMORY_CAPACITY);
        let (kernel, tier) = mirror_compile(
            &Tracer::new(false),
            0,
            req,
            0,
            &mem,
            &mirror_dir,
            "core.compile",
            &mut Tally::default(),
        )
        .ok()?;
        let (back, from) = CompileCache::with_disk(DEFAULT_MEMORY_CAPACITY, &mirror_dir).get(fp)?;
        Some(
            decodes
                && tier == Tier::Compiled
                && from == CacheTier::Disk
                && back.kernel.stats == kernel.stats
                && phases(&back.timings) == phases(&out.timings),
        )
    };
    // The requests of the first source, one per strategy column.
    let first = &inputs.requests[0].source;
    let mut attempted = 0;
    let mut failed = 0;
    for req in inputs.requests.iter().take_while(|r| &r.source == first) {
        attempted += 1;
        if agrees(req) != Some(true) {
            eprintln!(
                "mirror gate: the mirror disagrees with the driver's cache on {}",
                req.name
            );
            failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&real_dir);
    let _ = std::fs::remove_dir_all(&mirror_dir);
    (attempted, failed)
}

/// One traced batch pass: every request cold into a fresh directory,
/// then warm from disk through a new memory tier, then warm again from
/// that memory tier. Returns the number of failed requests.
pub fn mirror_pass(
    tr: &Tracer,
    inputs: &BatchInputs,
    dir: &Path,
    execute_check: bool,
    tally: &mut Tally,
) -> (u64, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let mut attempted = 0;
    let mut failed = 0;
    let cold_mem = CompileCache::in_memory(DEFAULT_MEMORY_CAPACITY);
    let mut cold = Vec::new();
    for (i, (req, e)) in inputs.requests.iter().zip(&inputs.expect).enumerate() {
        attempted += 1;
        let id = i as u64;
        match mirror_compile(
            tr,
            id,
            req,
            inputs.tokens[i],
            &cold_mem,
            dir,
            "core.compile",
            tally,
        ) {
            Ok((k, Tier::Compiled)) if k.stats == e.stats => cold.push(Some(k)),
            _ => {
                failed += 1;
                cold.push(None);
            }
        }
    }
    let warm_mem = CompileCache::in_memory(DEFAULT_MEMORY_CAPACITY);
    for want in [Tier::Disk, Tier::Memory] {
        for (i, (req, e)) in inputs.requests.iter().zip(&inputs.expect).enumerate() {
            attempted += 1;
            let id = i as u64;
            let got = mirror_compile(tr, id, req, 0, &warm_mem, dir, "core.compile", tally);
            let ok = match (&got, &cold[i]) {
                (Ok((k, tier)), Some(c)) => {
                    *tier == want
                        && k.stats == e.stats
                        && (!execute_check || want != Tier::Disk || same_execution(k, c))
                }
                _ => false,
            };
            if !ok {
                failed += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    (attempted, failed)
}

/// Per-layer numbers of the batch mirror from one pass's tally.
pub fn layer_metrics(self_s: &BTreeMap<&'static str, f64>, tally: &Tally, out: &mut Tally) {
    let s = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    out.set("lang.parse_s", s("lang.parse"));
    out.set("lang.if_convert_s", s("lang.if_convert"));
    out.set("lang.lower_s", s("lang.lower"));
    out.set("lang.tokens", tally.get("lang.tokens"));
    out.set(
        "lang.tokens_per_s",
        tally.get("lang.tokens") / s("lang.parse").max(1e-12),
    );
    out.set("ir.validate_s", s("ir.validate"));
    let compile = s("core.compile");
    let mut phases = 0.0;
    for phase in [
        "unroll",
        "alignment",
        "grouping",
        "scheduling",
        "layout",
        "safety",
    ] {
        let v = tally.get(&format!("core.compile.phase.{phase}"));
        phases += v;
        out.set(&format!("core.{phase}_s"), v);
    }
    phases += tally.get("core.compile.phase.solve");
    out.set("core.compile_s", compile);
    out.set("core.unattributed_s", (compile - phases).max(0.0));
    out.set("core.stmts", tally.get("core.compile.stmts"));
    out.set("core.superwords", tally.get("core.compile.superwords"));
    out.set(
        "core.vectorized_stmts",
        tally.get("core.compile.vectorized_stmts"),
    );
    out.set("verify.static_s", s("verify.static"));
    out.set("driver.fingerprint_s", s("driver.fingerprint"));
    out.set("driver.cache_get_memory_s", s("driver.cache_get.memory"));
    out.set("driver.cache_get_disk_s", s("driver.cache_get.disk"));
    out.set("driver.disk_read_s", s("driver.disk_read"));
    out.set("driver.decode_s", s("driver.decode"));
    out.set("driver.encode_s", s("driver.encode"));
    out.set("driver.disk_write_s", s("driver.disk_write"));
    out.set(
        "driver.entry_bytes",
        tally.get("driver.entry_bytes_total") / tally.get("driver.entries").max(1.0),
    );
}
