//! The exact packer: `Strategy::Optimal` over the suite with a fixed
//! per-block node cap and no deadline, so the solver's work is the same
//! on every run.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use slp::core::{
    compile, CompileStats, CompiledKernel, PackOutcome, PackRequest, Packer, SlpConfig, Strategy,
};
use slp::driver::{CompileCache, CompileRequest, VerifyLevel};
use slp::prelude::MachineConfig;

use crate::batch::{mirror_compile, Tier};
use crate::gen::{suite_sources, token_count};
use crate::stats::geomean;
use crate::trace::Tracer;
use crate::Tally;

/// Branch-and-bound nodes expanded per block before the solver settles
/// for its incumbent.
pub const MAX_NODES: u64 = 250;

pub struct OptInputs {
    pub requests: Vec<CompileRequest>,
    pub tokens: Vec<usize>,
    programs: Vec<slp::ir::Program>,
    /// VM cycles of the heuristic (`Strategy::Holistic`) compile.
    global_cycles: Vec<f64>,
}

pub fn prepare(machine: &MachineConfig) -> Result<OptInputs, String> {
    let mut requests = Vec::new();
    let mut tokens = Vec::new();
    let mut programs = Vec::new();
    let mut global_cycles = Vec::new();
    for src in suite_sources(1) {
        let program = slp::lang::compile(&src.text).map_err(|e| e.to_string())?;
        let global = compile(
            &program,
            &SlpConfig::for_machine(machine.clone(), Strategy::Holistic),
        );
        let run = slp::vm::execute(&global, machine).map_err(|e| e.to_string())?;
        global_cycles.push(run.stats.metrics.cycles);
        programs.push(program);
        tokens.push(token_count(&src.text));
        requests.push(CompileRequest {
            name: src.name,
            source: src.text,
            config: SlpConfig::for_machine(machine.clone(), Strategy::Optimal)
                .with_opt_budget(0, MAX_NODES),
            verify: VerifyLevel::None,
        });
    }
    Ok(OptInputs {
        requests,
        tokens,
        programs,
        global_cycles,
    })
}

pub struct OptResult {
    /// Best compile time per kernel.
    best: Vec<f64>,
    /// Statistics of each kernel's first compile; later ones must repeat them.
    first: Vec<Option<CompileStats>>,
    /// Global ÷ Optimal VM cycles per kernel, from its first compile.
    ratios: Vec<Option<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl OptResult {
    pub fn new(inputs: &OptInputs) -> OptResult {
        let n = inputs.requests.len();
        OptResult {
            best: vec![f64::INFINITY; n],
            first: vec![None; n],
            ratios: vec![None; n],
            attempted: 0,
            failed: 0,
        }
    }

    /// Kernels per second of the best times: one sweep on a quiet host.
    pub fn kps(&self) -> f64 {
        self.best.len() as f64 / self.best.iter().sum::<f64>()
    }

    /// Geometric mean of Global ÷ Optimal cycles (0 until every kernel ran).
    pub fn speedup(&self) -> f64 {
        let ratios: Option<Vec<f64>> = self.ratios.iter().copied().collect();
        ratios.map_or(0.0, |r| geomean(&r))
    }
}

fn cycles(kernel: &CompiledKernel) -> Option<f64> {
    slp::vm::execute(kernel, &kernel.config.machine)
        .ok()
        .map(|o| o.stats.metrics.cycles)
}

/// Compiles every kernel once, timing each. A kernel's first compile is
/// checked against its scalar program and run on the VM; later compiles
/// must repeat its statistics exactly.
pub fn sweep(inputs: &OptInputs, res: &mut OptResult) {
    for i in 0..inputs.requests.len() {
        let start = Instant::now();
        let kernel = slp::driver::compile_source(&inputs.requests[i], None).map(|o| o.kernel);
        res.best[i] = res.best[i].min(start.elapsed().as_secs_f64());
        res.attempted += 1;
        let ok = match (&kernel, res.first[i]) {
            (Ok(k), None) => {
                res.first[i] = Some(k.stats);
                res.ratios[i] = cycles(k).map(|c| inputs.global_cycles[i] / c);
                res.ratios[i].is_some()
                    && slp::verify::check_differential(&inputs.programs[i], k).is_empty()
            }
            (Ok(k), Some(first)) => k.stats == first,
            (Err(_), _) => false,
        };
        if !ok {
            eprintln!("optimal: {} is wrong", inputs.requests[i].name);
            res.failed += 1;
        }
    }
}

/// Blocks the exact packer was asked to pack, and how many of them hit
/// the node cap.
#[derive(Debug, Default)]
pub struct BlockCounts {
    pub blocks: AtomicU64,
    pub capped: AtomicU64,
}

/// `slp-opt`'s packer, counting its per-block outcomes for the traced run.
pub struct CountingPacker(pub Arc<BlockCounts>);

impl Packer for CountingPacker {
    fn pack(&self, req: &PackRequest<'_>) -> PackOutcome {
        let out = slp::opt::OptimalPacker.pack(req);
        self.0.blocks.fetch_add(1, Ordering::Relaxed);
        if out.degraded {
            self.0.capped.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn name(&self) -> &str {
        slp::opt::OptimalPacker.name()
    }
}

/// The traced sweep, through the same `compile_source` mirror as the
/// batch (the compile span is `opt.compile`).
pub fn mirror_sweep(tr: &Tracer, inputs: &OptInputs, dir: &Path, tally: &mut Tally) -> (u64, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let mem = CompileCache::in_memory(slp::driver::DEFAULT_MEMORY_CAPACITY);
    let mut failed = 0;
    for (i, req) in inputs.requests.iter().enumerate() {
        let id = 10_000 + i as u64;
        match mirror_compile(
            tr,
            id,
            req,
            inputs.tokens[i],
            &mem,
            dir,
            "opt.compile",
            tally,
        ) {
            Ok((_, Tier::Compiled)) => {}
            _ => failed += 1,
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    (inputs.requests.len() as u64, failed)
}
