//! Static well-formedness checks for kernels.
//!
//! The validator catches builder/transform bugs early, before a kernel
//! reaches the simulator:
//!
//! * every register is textually defined before use (registers are plain
//!   storage — a masked-off definition still defines the register — so a
//!   linear program-order scan is the right discipline);
//! * every register index is below `Kernel::next_reg`, the register-file
//!   size the simulator allocates;
//! * parameter indices are in range;
//! * builtins query dimension 0, 1 or 2;
//! * int-only binary operators are not applied at `f32`;
//! * barriers do not execute under *divergent* control flow — an `if` or
//!   `while` whose condition may differ across the work-items of one
//!   group (OpenCL leaves a non-uniformly-reached barrier undefined).
//!
//! The divergence rule is uniformity-aware: a barrier under `if` or
//! inside a loop is fine as long as every enclosing condition is derived
//! only from group-uniform values (constants, parameters, `group_id`,
//! `local_size`, `num_groups`, and arithmetic over those). Conditions
//! touching `local_id`/`global_id`, LDS loads, atomics, swizzles, or any
//! value assigned under divergent control are rejected. The taint fixpoint
//! itself lives in [`crate::analysis::uniformity`] (shared with the lint
//! divergence pre-filter and the translation validator) — the lint passes
//! in [`crate::analysis::lint`] carry the precise symbolic version of the
//! same rule.

use crate::analysis::uniformity::group_divergent_regs;
use crate::inst::{BinOp, Block, Builtin, Inst, Reg};
use crate::kernel::Kernel;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A register was read before any textual definition.
    UseBeforeDef {
        /// The offending register.
        reg: Reg,
        /// Rendering of the instruction that read it.
        inst: String,
    },
    /// A register used or defined at or past `Kernel::next_reg`.
    RegOutOfRange {
        /// The offending register.
        reg: Reg,
        /// The kernel's declared register count.
        next_reg: u32,
    },
    /// `ReadParam` index out of range.
    ParamOutOfRange {
        /// The index used.
        index: usize,
        /// Number of declared parameters.
        count: usize,
    },
    /// A builtin queried at a dimension past z (2).
    BuiltinDimOutOfRange {
        /// The offending builtin.
        builtin: Builtin,
    },
    /// An integer-only operator used with a float interpretation.
    IntOnlyOpOnFloat {
        /// The operator.
        op: BinOp,
    },
    /// `barrier` inside an `if` whose condition is not group-uniform.
    BarrierInDivergentIf,
    /// `barrier` inside a `while` whose condition is not group-uniform:
    /// work-items may disagree on the iteration count reaching it.
    BarrierInDivergentLoop,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UseBeforeDef { reg, inst } => {
                write!(f, "register {reg} used before definition in `{inst}`")
            }
            ValidateError::RegOutOfRange { reg, next_reg } => {
                write!(f, "register {reg} out of range (next_reg {next_reg})")
            }
            ValidateError::ParamOutOfRange { index, count } => {
                write!(f, "parameter index {index} out of range ({count} declared)")
            }
            ValidateError::BuiltinDimOutOfRange { builtin } => {
                write!(f, "builtin `{builtin}` has dimension past 2")
            }
            ValidateError::IntOnlyOpOnFloat { op } => {
                write!(f, "integer-only operator `{op}` applied at f32")
            }
            ValidateError::BarrierInDivergentIf => {
                write!(f, "barrier inside an `if` with a non-uniform condition")
            }
            ValidateError::BarrierInDivergentLoop => {
                write!(f, "barrier inside a `while` with a non-uniform trip count")
            }
        }
    }
}

impl Error for ValidateError {}

struct Ctx<'k> {
    kernel: &'k Kernel,
    defined: HashSet<Reg>,
    non_uniform: HashSet<Reg>,
    /// Nesting depth of `if` regions with non-uniform conditions.
    divergent_ifs: usize,
    /// Nesting depth of `while` regions with non-uniform conditions.
    divergent_loops: usize,
}

impl Ctx<'_> {
    fn check_inst(&mut self, inst: &Inst) -> Result<(), ValidateError> {
        // Loop-carried values require the condition/body of a While to see
        // registers defined later in the same loop on iterations > 0 — and
        // the While's own `cond_reg` is defined inside its condition block —
        // so pre-scan loop contents before checking sources.
        if let Inst::While { cond, body, .. } = inst {
            collect_defs(cond, &mut self.defined);
            collect_defs(body, &mut self.defined);
        }
        let mut srcs = Vec::new();
        inst.srcs(&mut srcs);
        let next_reg = self.kernel.next_reg;
        for r in srcs {
            if !self.defined.contains(&r) {
                return Err(ValidateError::UseBeforeDef {
                    reg: r,
                    inst: format!("{inst:?}"),
                });
            }
            if r.0 >= next_reg {
                return Err(ValidateError::RegOutOfRange { reg: r, next_reg });
            }
        }
        if let Some(reg) = inst.dst().filter(|d| d.0 >= next_reg) {
            return Err(ValidateError::RegOutOfRange { reg, next_reg });
        }
        match inst {
            Inst::ReadParam { index, .. } if *index >= self.kernel.params.len() => {
                return Err(ValidateError::ParamOutOfRange {
                    index: *index,
                    count: self.kernel.params.len(),
                });
            }
            Inst::ReadBuiltin { builtin, .. } if builtin.dim().0 > 2 => {
                return Err(ValidateError::BuiltinDimOutOfRange { builtin: *builtin });
            }
            Inst::Binary { op, ty, .. } if op.int_only() && ty.is_float() => {
                return Err(ValidateError::IntOnlyOpOnFloat { op: *op });
            }
            Inst::Barrier => {
                if self.divergent_ifs > 0 {
                    return Err(ValidateError::BarrierInDivergentIf);
                }
                if self.divergent_loops > 0 {
                    return Err(ValidateError::BarrierInDivergentLoop);
                }
            }
            _ => {}
        }
        if let Some(d) = inst.dst() {
            self.defined.insert(d);
        }
        match inst {
            Inst::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let div = self.non_uniform.contains(cond);
                self.divergent_ifs += div as usize;
                self.check_block(then_blk)?;
                self.check_block(else_blk)?;
                self.divergent_ifs -= div as usize;
            }
            Inst::While {
                cond,
                cond_reg,
                body,
            } => {
                // Defs were pre-collected above; their *values* on iteration
                // 0 are the zero-initialized register file (well-defined).
                let div = self.non_uniform.contains(cond_reg);
                self.divergent_loops += div as usize;
                self.check_block(cond)?;
                self.check_block(body)?;
                self.divergent_loops -= div as usize;
            }
            _ => {}
        }
        Ok(())
    }

    fn check_block(&mut self, b: &Block) -> Result<(), ValidateError> {
        for inst in b.iter() {
            self.check_inst(inst)?;
        }
        Ok(())
    }
}

fn collect_defs(b: &Block, out: &mut HashSet<Reg>) {
    for inst in b.iter() {
        if let Some(d) = inst.dst() {
            out.insert(d);
        }
        match inst {
            Inst::If {
                then_blk, else_blk, ..
            } => {
                collect_defs(then_blk, out);
                collect_defs(else_blk, out);
            }
            Inst::While { cond, body, .. } => {
                collect_defs(cond, out);
                collect_defs(body, out);
            }
            _ => {}
        }
    }
}

/// Validates a kernel, returning the first problem found.
///
/// # Errors
///
/// Returns a [`ValidateError`] describing the first violated rule.
pub fn validate(kernel: &Kernel) -> Result<(), ValidateError> {
    let mut ctx = Ctx {
        kernel,
        defined: HashSet::new(),
        non_uniform: group_divergent_regs(kernel),
        divergent_ifs: 0,
        divergent_loops: 0,
    };
    ctx.check_block(&kernel.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Dim, MemSpace, Reg};
    use crate::{KernelBuilder, Ty};

    #[test]
    fn accepts_well_formed() {
        let mut b = KernelBuilder::new("ok");
        let buf = b.buffer_param("b");
        let gid = b.global_id(0);
        let a = b.elem_addr(buf, gid);
        let v = b.load_global(a);
        b.store_global(a, v);
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn rejects_use_before_def() {
        let mut b = KernelBuilder::new("bad");
        let ghost = Reg(999);
        b.emit(Inst::Store {
            space: MemSpace::Global,
            addr: ghost,
            value: ghost,
        });
        let k = b.finish();
        assert!(matches!(
            validate(&k),
            Err(ValidateError::UseBeforeDef { reg, .. }) if reg == ghost
        ));
    }

    #[test]
    fn rejects_register_past_next_reg() {
        let mut b = KernelBuilder::new("bad");
        let x = b.const_u32(1);
        b.emit(Inst::Mov {
            dst: Reg(7),
            src: x,
        });
        let k = b.finish();
        assert_eq!(
            validate(&k),
            Err(ValidateError::RegOutOfRange {
                reg: Reg(7),
                next_reg: 1
            })
        );
    }

    #[test]
    fn rejects_param_out_of_range() {
        let mut b = KernelBuilder::new("bad");
        let dst = b.fresh();
        b.emit(Inst::ReadParam { dst, index: 3 });
        assert!(matches!(
            validate(&b.finish()),
            Err(ValidateError::ParamOutOfRange { index: 3, count: 0 })
        ));
    }

    #[test]
    fn rejects_builtin_dimension_past_z() {
        let mut b = KernelBuilder::new("ok");
        b.global_id(2);
        b.num_groups(2);
        assert_eq!(validate(&b.finish()), Ok(()));
        for builtin in [
            Builtin::GlobalId(Dim(3)),
            Builtin::LocalId(Dim(3)),
            Builtin::GroupId(Dim(4)),
            Builtin::GlobalSize(Dim(3)),
            Builtin::LocalSize(Dim(3)),
            Builtin::NumGroups(Dim(u8::MAX)),
        ] {
            let mut b = KernelBuilder::new("bad");
            b.builtin(builtin);
            assert_eq!(
                validate(&b.finish()),
                Err(ValidateError::BuiltinDimOutOfRange { builtin })
            );
        }
    }

    #[test]
    fn rejects_float_xor() {
        let mut b = KernelBuilder::new("bad");
        let x = b.const_f32(1.0);
        b.binary(crate::BinOp::Xor, Ty::F32, x, x);
        assert!(matches!(
            validate(&b.finish()),
            Err(ValidateError::IntOnlyOpOnFloat { op: BinOp::Xor })
        ));
    }

    #[test]
    fn rejects_barrier_in_divergent_if() {
        let mut b = KernelBuilder::new("bad");
        let lid = b.local_id(0);
        let n = b.const_u32(32);
        let c = b.lt_u32(lid, n);
        b.if_(c, |b| b.barrier());
        assert_eq!(
            validate(&b.finish()),
            Err(ValidateError::BarrierInDivergentIf)
        );
    }

    #[test]
    fn allows_barrier_in_uniform_if() {
        // All work-items of a group agree on a group_id comparison, so
        // every item reaches the barrier (or none do).
        let mut b = KernelBuilder::new("ok");
        let grp = b.group_id(0);
        let zero = b.const_u32(0);
        let c = b.eq_u32(grp, zero);
        b.if_(c, |b| b.barrier());
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn allows_barrier_in_uniform_loop() {
        let mut b = KernelBuilder::new("ok");
        let zero = b.const_u32(0);
        let four = b.const_u32(4);
        b.for_range(zero, four, |b, _i| {
            b.barrier();
        });
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn rejects_barrier_in_divergent_loop() {
        // Trip count depends on local_id: items leave the loop on
        // different iterations and stop reaching the barrier.
        let mut b = KernelBuilder::new("bad");
        let lid = b.local_id(0);
        let i = b.fresh();
        let zero = b.const_u32(0);
        b.mov_to(i, zero);
        b.while_(
            |b| b.lt_u32(i, lid),
            |b| {
                b.barrier();
                let one = b.const_u32(1);
                let next = b.add_u32(i, one);
                b.mov_to(i, next);
            },
        );
        assert_eq!(
            validate(&b.finish()),
            Err(ValidateError::BarrierInDivergentLoop)
        );
    }

    #[test]
    fn divergent_assignment_taints_later_conditions() {
        // `x` is written under a lane-dependent `if`; branching on it
        // afterwards is divergent control even though both assignments
        // are constants.
        let mut b = KernelBuilder::new("bad");
        let lid = b.local_id(0);
        let n = b.const_u32(32);
        let c = b.lt_u32(lid, n);
        let x = b.fresh();
        let zero = b.const_u32(0);
        let one = b.const_u32(1);
        b.mov_to(x, zero);
        b.if_(c, |b| b.mov_to(x, one));
        let c2 = b.eq_u32(x, zero);
        b.if_(c2, |b| b.barrier());
        assert_eq!(
            validate(&b.finish()),
            Err(ValidateError::BarrierInDivergentIf)
        );
    }

    #[test]
    fn uniform_arithmetic_keeps_barrier_legal() {
        // Conditions over local_size/params stay uniform through
        // arithmetic chains.
        let mut b = KernelBuilder::new("ok");
        let ls = b.local_size(0);
        let two = b.const_u32(2);
        let one = b.const_u32(1);
        let half = b.shr_u32(ls, one);
        let dbl = b.mul_u32(half, two);
        let c = b.eq_u32(dbl, ls);
        b.if_(c, |b| b.barrier());
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn loop_carried_registers_validate() {
        // i is defined by a Mov before the loop and mutated inside: the
        // condition reads it each iteration.
        let mut b = KernelBuilder::new("loop");
        let zero = b.const_u32(0);
        let n = b.const_u32(8);
        b.for_range(zero, n, |_b, _i| {});
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ValidateError::ParamOutOfRange { index: 5, count: 2 };
        assert!(e.to_string().contains("5"));
        assert!(e.to_string().contains("2"));
    }
}
