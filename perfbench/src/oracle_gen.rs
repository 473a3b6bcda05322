//! `oracle-gen`: seeded generated kernels through
//! `rmt_core::oracle::check_case` — held-out inputs, and the one
//! workload where the compile/check stack (validate, transform,
//! `verify_rmt`, `tv`, coverage) is a real share of host time.
//!
//! Only `check_case` runs: it neither shrinks failing cases nor writes
//! to the corpus, unlike `run_case` and `repro fuzz`. A rejection counts
//! as a failed operation.
//!
//! `check_case` makes its stage calls internally, so after each traced
//! pass, outside its timing, the run replays each case's stages through
//! the same public functions, each in its own span. What `check_case` spends beyond the replayed stages —
//! mostly the injection campaign — is reported as
//! `core.oracle_remainder_s`.

use crate::trace::Tracer;
use crate::{PassReport, Workload};
use gcn_sim::{Arg, BufferId, Device, LaunchConfig};
use rmt_bench::experiments::fuzz::oracle_config;
use rmt_core::oracle::{check_case, flavors, OracleConfig};
use rmt_core::{transform, validate_transform, verify_rmt, RmtFlavor, RmtKernel, RmtLauncher};
use rmt_ir::analysis::harden::{harden, HardenConfig};
use rmt_ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig};
use rmt_ir::fuzz::{child_seed, generate, ArgSpec, FuzzCase, GenConfig};
use rmt_ir::{validate, ParamKind, Ty};
use rmt_kernels::Scale;
use std::time::Instant;

/// Generated cases checked per pass.
const CASES: u64 = 500;

pub struct OracleGen {
    cases: Vec<FuzzCase>,
    cfg: OracleConfig,
    generate_s: f64,
    /// Static instruction counts (original, transformed) over the last
    /// replay, and the dynamic instructions its launches ran.
    replay_static: (usize, usize),
    replay_insts: u64,
}

impl OracleGen {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let gen_cfg = GenConfig::default();
        let t = Instant::now();
        let cases = (0..CASES)
            .map(|i| generate(child_seed(seed, i), &gen_cfg))
            .collect();
        Ok(OracleGen {
            cases,
            cfg: oracle_config(Scale::Small, seed),
            generate_s: t.elapsed().as_secs_f64(),
            replay_static: (0, 0),
            replay_insts: 0,
        })
    }

    /// Replays the stages `check_case` runs before its injection
    /// campaign, in its order, stopping where it would reject.
    fn replay_case(&mut self, tr: &mut Tracer, case: &FuzzCase) -> Result<(), String> {
        tr.span("ir.validate_s", |_| validate(&case.kernel))
            .map_err(|e| format!("{e:?}"))?;
        if tr.span("ir.lint_s", |_| lint_at(&case.kernel, case.local)) > 0 {
            return Err("lint".into());
        }
        let golden = self.run(tr, case, None)?;
        for (_, opts) in flavors() {
            let rk = tr
                .span("core.transform_s", |_| transform(&case.kernel, &opts))
                .map_err(|e| e.to_string())?;
            if let RmtFlavor::Selective { budget } = opts.flavor {
                // Also inside `transform`; timed alone to attribute it.
                tr.span("ir.harden_s", |_| {
                    harden(&case.kernel, &HardenConfig::with_budget(budget))
                });
            }
            self.replay_static.0 += case.kernel.total_insts();
            self.replay_static.1 += rk.kernel.total_insts();
            tr.span("ir.validate_s", |_| validate(&rk.kernel))
                .map_err(|e| format!("{e:?}"))?;
            if !tr
                .span("core.verify_rmt_s", |_| verify_rmt(&case.kernel, &rk))
                .is_empty()
            {
                return Err("verify_rmt".into());
            }
            if !tr
                .span("core.tv_s", |_| validate_transform(&case.kernel, &rk))
                .proved()
            {
                return Err("tv".into());
            }
            let local = if rk.meta.doubles_workgroup() {
                case.local * 2
            } else {
                case.local
            };
            if tr.span("ir.lint_s", |_| lint_at(&rk.kernel, local)) > 0 {
                return Err("lint".into());
            }
            if self.run(tr, case, Some(&rk))? != golden {
                return Err("fault-free output differs".into());
            }
            if self.cfg.max_injections > 0 {
                tr.span("core.coverage_s", |_| rmt_core::coverage::analyze(&rk));
            }
        }
        Ok(())
    }

    /// One fault-free launch on a fresh device: compile, launch, read
    /// back the user buffers.
    fn run(
        &mut self,
        tr: &mut Tracer,
        case: &FuzzCase,
        rk: Option<&RmtKernel>,
    ) -> Result<Vec<Vec<u8>>, String> {
        let mut dev = Device::new(self.cfg.device.clone());
        let (args, bufs) = materialize(&mut dev, case);
        let base = LaunchConfig::new_1d(case.global as usize, case.local as usize).args(args);
        let (kernel, launch) = match rk {
            None => (&case.kernel, base),
            Some(rk) => (&rk.kernel, rmt_launch(&mut dev, rk, &base)?),
        };
        let compiled = tr
            .span("sim.compile_s", |_| dev.compile(kernel))
            .map_err(|e| e.to_string())?;
        let stats = tr
            .span("sim.launch_s", |_| dev.launch_compiled(&compiled, &launch))
            .map_err(|e| e.to_string())?;
        self.replay_insts += stats.counters.dyn_insts;
        Ok(tr.span("sim.readback_s", |_| {
            bufs.iter().map(|b| dev.read_buffer(*b)).collect()
        }))
    }
}

fn lint_at(kernel: &rmt_ir::Kernel, local: u32) -> usize {
    let cfg = LintConfig::with_assumptions(LintAssumptions::one_dim(local));
    lint_kernel(kernel, &cfg).len()
}

/// The case's launch arguments, created on `dev` as the oracle creates
/// them; returns the arguments and the buffer handles.
fn materialize(dev: &mut Device, case: &FuzzCase) -> (Vec<Arg>, Vec<BufferId>) {
    let mut args = Vec::new();
    let mut bufs = Vec::new();
    for (spec, param) in case.args.iter().zip(&case.kernel.params) {
        match spec {
            ArgSpec::Buffer { .. } => {
                let words = spec.buffer_words().expect("buffer spec");
                let b = dev.create_buffer(words.len() as u32 * 4);
                dev.write_u32s(b, &words);
                bufs.push(b);
                args.push(Arg::Buffer(b));
            }
            ArgSpec::Scalar { bits } => args.push(match param.kind {
                ParamKind::Scalar(Ty::F32) => Arg::F32(f32::from_bits(*bits)),
                ParamKind::Scalar(Ty::I32) => Arg::I32(*bits as i32),
                _ => Arg::U32(*bits),
            }),
        }
    }
    (args, bufs)
}

/// The launch `RmtLauncher::launch` makes for `rk`: its geometry plus
/// zeroed detection, ticket and communication buffers. Built here so the
/// replay can time compilation apart from the launch.
fn rmt_launch(
    dev: &mut Device,
    rk: &RmtKernel,
    base: &LaunchConfig,
) -> Result<LaunchConfig, String> {
    let (global, local) = RmtLauncher::rmt_geometry(dev, rk, base).map_err(|e| e.to_string())?;
    let mut cfg = base.clone();
    cfg.global = global;
    cfg.local = local;
    cfg.args.push(Arg::Buffer(dev.create_buffer(4)));
    if rk.meta.ticket_param.is_some() {
        cfg.args.push(Arg::Buffer(dev.create_buffer(4)));
    }
    if rk.meta.comm_param.is_some() {
        let bytes = (base.num_groups() * base.group_size()) as u32 * rk.meta.comm_bytes_per_item;
        cfg.args.push(Arg::Buffer(dev.create_buffer(bytes.max(4))));
    }
    Ok(cfg)
}

impl Workload for OracleGen {
    fn pass(&mut self, tr: &mut Tracer) -> PassReport {
        let mut rep = PassReport::default();
        let (mut launches, mut injections) = (0, 0);
        let mut verdicts = 0;
        for case in &self.cases {
            let res = rep.time_op(|| {
                tr.span("bench.case", |tr| {
                    tr.span("core.check_case_s", |_| check_case(case, &self.cfg))
                })
            });
            let verdict = match res {
                Ok(r) => {
                    launches += r.launches;
                    injections += r.injections;
                    "ok".to_string()
                }
                Err(f) => {
                    let v = f.to_string();
                    rep.rejected.push(format!("{}: {v}", case.kernel.name));
                    v
                }
            };
            verdicts = crate::digest(verdicts, verdict.as_bytes());
        }
        rep.fixed = vec![
            ("oracle_launches", launches.to_string()),
            ("oracle_injections", injections.to_string()),
            ("oracle_rejections", rep.rejected.len().to_string()),
            ("verdict_digest", format!("{verdicts:016x}")),
        ];
        rep
    }

    fn replay(&mut self, tr: &mut Tracer) {
        self.replay_static = (0, 0);
        self.replay_insts = 0;
        let cases = std::mem::take(&mut self.cases);
        for case in &cases {
            // A case the replay stops early on is one `check_case`
            // rejects; its verdict is counted by the pass.
            let _ = tr.span("bench.replay", |tr| self.replay_case(tr, case));
        }
        self.cases = cases;
    }

    fn layer_extras(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ir.generate_s", self.generate_s),
            (
                "core.code_growth",
                self.replay_static.1 as f64 / self.replay_static.0.max(1) as f64,
            ),
            ("launch_insts", self.replay_insts as f64),
        ]
    }

    fn container(&self) -> &'static str {
        "bench.case"
    }
}
