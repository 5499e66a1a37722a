//! The kernel → simulated result path: `execute` over the suite under
//! the four paper schemes, compiled once in set-up.

use std::time::Instant;

use slp::core::{compile, CompiledKernel, SlpConfig, Strategy};
use slp::prelude::MachineConfig;
use slp::vm::{lower_kernel, BytecodeKernel};

use crate::stats::geomean;
use crate::trace::Tracer;
use crate::Tally;

/// Problem scale of the executed kernels (loop extents 64 × scale).
pub const SCALE: usize = 4;

pub struct VmCase {
    pub name: String,
    pub kernel: CompiledKernel,
    /// Simulated cycles of the set-up run; every timed run must repeat
    /// them exactly.
    pub cycles: f64,
}

pub struct VmInputs {
    pub cases: Vec<VmCase>,
    /// Geometric mean over the suite of scalar ÷ Global+Layout cycles.
    pub sim_speedup: f64,
}

pub fn prepare(machine: &MachineConfig) -> Result<VmInputs, String> {
    let schemes = [
        (
            "scalar",
            SlpConfig::for_machine(machine.clone(), Strategy::Scalar),
        ),
        (
            "slp",
            SlpConfig::for_machine(machine.clone(), Strategy::Baseline),
        ),
        (
            "global",
            SlpConfig::for_machine(machine.clone(), Strategy::Holistic),
        ),
        (
            "global+layout",
            SlpConfig::for_machine(machine.clone(), Strategy::Holistic).with_layout(),
        ),
    ];
    let mut cases = Vec::new();
    let mut ratios = Vec::new();
    for (spec, program) in slp::suite::all(SCALE) {
        let mut cycles = Vec::new();
        for (label, config) in &schemes {
            let kernel = compile(&program, config);
            let outcome = slp::vm::execute(&kernel, machine)
                .map_err(|e| format!("set-up run of {}/{label}: {e}", spec.name))?;
            cycles.push(outcome.stats.metrics.cycles);
            cases.push(VmCase {
                name: format!("{}/{label}", spec.name),
                kernel,
                cycles: outcome.stats.metrics.cycles,
            });
        }
        ratios.push(cycles[0] / cycles[3]);
    }
    Ok(VmInputs {
        cases,
        sim_speedup: geomean(&ratios),
    })
}

/// The set-up gate: both engines agree on every configuration.
pub fn gate(inputs: &VmInputs) -> u64 {
    let mut failed = 0;
    for case in &inputs.cases {
        if !slp::verify::check_engine_agreement(&case.kernel).is_empty() {
            eprintln!("vm gate: engines disagree on {}", case.name);
            failed += 1;
        }
    }
    failed
}

/// Best observed `execute` time per configuration.
pub struct VmResult {
    best: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl VmResult {
    pub fn new(inputs: &VmInputs) -> VmResult {
        VmResult {
            best: vec![f64::INFINITY; inputs.cases.len()],
            attempted: 0,
            failed: 0,
        }
    }

    /// Configurations per second of the best times: one sweep on a quiet host.
    pub fn runs_per_s(&self) -> f64 {
        self.best.len() as f64 / self.best.iter().sum::<f64>()
    }
}

/// One timed sweep of `execute` over every configuration; a run whose
/// cycles differ from set-up counts as failed.
pub fn sweep(inputs: &VmInputs, res: &mut VmResult) {
    for (i, case) in inputs.cases.iter().enumerate() {
        let machine = &case.kernel.config.machine;
        let start = Instant::now();
        let outcome = slp::vm::execute(&case.kernel, machine);
        res.best[i] = res.best[i].min(start.elapsed().as_secs_f64());
        res.attempted += 1;
        if !matches!(outcome, Ok(o) if o.stats.metrics.cycles.to_bits() == case.cycles.to_bits()) {
            eprintln!("vm: {} ran differently from set-up", case.name);
            res.failed += 1;
        }
    }
}

/// The traced sweep: `execute` split into codegen (`lower_kernel`),
/// translation (`BytecodeKernel::from_codes`) and execution (`run`).
pub fn mirror_sweep(tr: &Tracer, inputs: &VmInputs, tally: &mut Tally) -> (u64, u64) {
    let mut failed = 0;
    for (i, case) in inputs.cases.iter().enumerate() {
        let id = i as u64;
        let machine = &case.kernel.config.machine;
        let ok = tr.span("vm.execute", id, || {
            if slp::vm::check_memory_budget(&case.kernel.program).is_err() {
                return false;
            }
            let codes = tr.span("vm.codegen", id, || {
                lower_kernel(&case.kernel, machine, true)
            });
            let Ok(bc) = tr.span("vm.translate", id, || {
                BytecodeKernel::from_codes(&case.kernel, machine, &codes)
            }) else {
                return false;
            };
            let Ok(outcome) = tr.span("vm.exec", id, || bc.run()) else {
                return false;
            };
            let (unchecked, total) = bc.unchecked_accesses();
            tally.add("vm.ops", bc.op_count() as f64);
            tally.add("vm.fused_ops", bc.fused_count() as f64);
            tally.add("vm.accesses_unchecked", unchecked as f64);
            tally.add("vm.accesses", total as f64);
            tally.add(
                "vm.sim_insts",
                outcome.stats.metrics.dynamic_instructions as f64,
            );
            outcome.stats.metrics.cycles.to_bits() == case.cycles.to_bits()
        });
        if !ok {
            failed += 1;
        }
    }
    (inputs.cases.len() as u64, failed)
}
