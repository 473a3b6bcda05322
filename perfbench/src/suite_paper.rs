//! `suite-paper`: five SDK kernels at paper scale under Original,
//! Intra+LDS and Inter — a few large launches, the paper's Fig. 2 cells.
//!
//! Each cell makes the calls `rmt_kernels::run_original` / `run_rmt`
//! make, in their order, with a span around each, then reads every plan
//! buffer back (the output digest) and verifies against the CPU
//! reference.

use crate::trace::Tracer;
use crate::{digest, seeded_order, PassReport, Workload};
use gcn_sim::{Device, DeviceConfig};
use rmt_core::{transform, RmtLauncher, TransformOptions};
use rmt_kernels::{Benchmark, Scale};

const KERNELS: [&str; 5] = ["R", "MM", "PS", "BlkSch", "FWT"];
/// Flavor columns; `None` is the untransformed kernel.
const FLAVORS: [Option<&str>; 3] = [None, Some("Intra+LDS"), Some("Inter")];

fn options(flavor: &str) -> TransformOptions {
    match flavor {
        "Intra+LDS" => TransformOptions::intra_plus_lds(),
        _ => TransformOptions::inter(),
    }
}

struct CellResult {
    cycles: u64,
    insts: u64,
    launches: u64,
    detections: u32,
    out_digest: u64,
    /// Static instruction counts (original, transformed) of RMT cells.
    static_insts: Option<(usize, usize)>,
}

pub struct SuitePaper {
    benches: Vec<Box<dyn Benchmark>>,
    /// `(kernel index, flavor index)` in the seeded run order.
    order: Vec<(usize, usize)>,
    device: DeviceConfig,
    /// Layer values of the last pass.
    extras: Vec<(&'static str, f64)>,
}

impl SuitePaper {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let benches: Vec<Box<dyn Benchmark>> = crate::registry()?
            .into_iter()
            .filter(|b| KERNELS.contains(&b.abbrev()))
            .collect();
        if benches.len() != KERNELS.len() {
            return Err(format!("registry lacks one of {KERNELS:?}"));
        }
        let cells: Vec<(usize, usize)> = (0..benches.len())
            .flat_map(|k| (0..FLAVORS.len()).map(move |f| (k, f)))
            .collect();
        Ok(SuitePaper {
            benches,
            order: seeded_order(seed, cells),
            device: DeviceConfig::radeon_hd_7790(),
            extras: Vec::new(),
        })
    }

    fn cell(&self, tr: &mut Tracer, k: usize, f: usize) -> Result<CellResult, String> {
        let bench = self.benches[k].as_ref();
        let mut launches = 0;
        let mut cycles = 0;
        let mut insts = 0;
        let mut detections = 0;
        let mut static_insts = None;
        let (dev, plan) = match FLAVORS[f] {
            None => {
                let mut dev = Device::new(self.device.clone());
                let plan = tr.span("kernels.plan_s", |_| bench.plan(Scale::Paper, &mut dev));
                let kernel = tr.span("kernels.build_s", |_| bench.kernel());
                let compiled = tr
                    .span("sim.compile_s", |_| dev.compile(&kernel))
                    .map_err(|e| e.to_string())?;
                for pass in &plan.passes {
                    let stats = tr
                        .span("sim.launch_s", |_| dev.launch_compiled(&compiled, pass))
                        .map_err(|e| e.to_string())?;
                    launches += 1;
                    cycles += stats.cycles;
                    insts += stats.counters.dyn_insts;
                }
                (dev, plan)
            }
            Some(flavor) => {
                let kernel = tr.span("kernels.build_s", |_| bench.kernel());
                let rk = tr
                    .span("core.transform_s", |_| transform(&kernel, &options(flavor)))
                    .map_err(|e| e.to_string())?;
                static_insts = Some((kernel.total_insts(), rk.kernel.total_insts()));
                let mut dev = Device::new(self.device.clone());
                let plan = tr.span("kernels.plan_s", |_| bench.plan(Scale::Paper, &mut dev));
                let mut launcher = RmtLauncher::new();
                for pass in &plan.passes {
                    let run = tr
                        .span("sim.launch_s", |_| launcher.launch(&mut dev, &rk, pass))
                        .map_err(|e| e.to_string())?;
                    launches += 1;
                    cycles += run.stats.cycles;
                    insts += run.stats.counters.dyn_insts;
                    detections += run.detections;
                }
                (dev, plan)
            }
        };
        let out_digest = tr.span("sim.readback_s", |_| {
            plan.buffers
                .iter()
                .fold(0, |h, b| digest(h, &dev.read_buffer(*b)))
        });
        tr.span("kernels.verify_s", |_| {
            bench.verify(Scale::Paper, &dev, &plan)
        })?;
        Ok(CellResult {
            cycles,
            insts,
            launches,
            detections,
            out_digest,
            static_insts,
        })
    }
}

impl Workload for SuitePaper {
    fn pass(&mut self, tr: &mut Tracer) -> PassReport {
        let mut rep = PassReport::default();
        let mut results: Vec<Vec<Option<CellResult>>> = self
            .benches
            .iter()
            .map(|_| FLAVORS.iter().map(|_| None).collect())
            .collect();
        for &(k, f) in &self.order {
            let res = rep.time_op(|| tr.span("bench.cell", |tr| self.cell(tr, k, f)));
            let label = format!(
                "{}/{}",
                self.benches[k].abbrev(),
                FLAVORS[f].unwrap_or("Original")
            );
            match res {
                Ok(r) if r.detections == 0 => results[k][f] = Some(r),
                Ok(r) => rep.wrong.push(format!(
                    "{label}: {} detections in a fault-free run",
                    r.detections
                )),
                Err(e) => rep.wrong.push(format!("{label}: {e}")),
            }
        }
        // Totals in canonical cell order, so they do not depend on the
        // seeded run order.
        let (mut cycles, mut insts, mut launches, mut out) = (0, 0, 0, 0);
        let (mut orig_static, mut rmt_static) = (0, 0);
        let mut log_sum = 0.0;
        for row in &results {
            for r in row.iter().flatten() {
                cycles += r.cycles;
                insts += r.insts;
                launches += r.launches;
                out = digest(out, &r.out_digest.to_le_bytes());
                if let Some((o, t)) = r.static_insts {
                    orig_static += o;
                    rmt_static += t;
                }
            }
            if let [Some(base), rmt @ ..] = row.as_slice() {
                for r in rmt.iter().flatten() {
                    log_sum += (r.cycles as f64 / base.cycles as f64).ln();
                }
            }
        }
        let pairs = KERNELS.len() * (FLAVORS.len() - 1);
        let geomean = (log_sum / pairs as f64).exp();
        let growth = rmt_static as f64 / orig_static.max(1) as f64;
        rep.fixed = vec![
            ("sim_cycles", cycles.to_string()),
            ("sim_insts", insts.to_string()),
            ("sim_launches", launches.to_string()),
            ("rmt_slowdown_geomean", geomean.to_string()),
            ("code_growth", growth.to_string()),
            ("output_digest", format!("{out:016x}")),
        ];
        self.extras = vec![
            ("sim.rmt_slowdown_geomean", geomean),
            ("core.code_growth", growth),
            ("launch_insts", insts as f64),
        ];
        rep
    }

    fn layer_extras(&self) -> Vec<(&'static str, f64)> {
        self.extras.clone()
    }

    fn container(&self) -> &'static str {
        "bench.cell"
    }
}
