//! Instructions, operators, and structured blocks.

use crate::types::Ty;
use std::fmt;

/// A virtual register.
///
/// Registers are 32-bit, per-work-item (one physical lane slot per work-item
/// in a wavefront), and exist in unbounded supply at the IR level. The
/// simulator's occupancy model maps peak register pressure (see
/// [`crate::analysis::pressure`]) onto the 256-VGPR GCN budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// An NDRange dimension index (0, 1 or 2), mirroring OpenCL's `get_*_id(d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim(pub u8);

impl Dim {
    /// Dimension 0 (x).
    pub const X: Dim = Dim(0);
    /// Dimension 1 (y).
    pub const Y: Dim = Dim(1);
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Work-item identification builtins (the OpenCL ID surface).
///
/// These are *the* values the RMT transformations rewrite: redundant
/// work-item pairs are created purely by remapping what these builtins
/// appear to return (Sections 6.2 and 7.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `get_global_id(d)` — unique per work-item in the NDRange.
    GlobalId(Dim),
    /// `get_local_id(d)` — unique within the work-group.
    LocalId(Dim),
    /// `get_group_id(d)` — the work-group's index.
    GroupId(Dim),
    /// `get_global_size(d)` — total work-items launched.
    GlobalSize(Dim),
    /// `get_local_size(d)` — work-items per work-group.
    LocalSize(Dim),
    /// `get_num_groups(d)` — work-groups launched.
    NumGroups(Dim),
}

impl Builtin {
    /// `true` if the value is uniform across a wavefront (and in fact across
    /// a work-group): group IDs and all size queries.
    pub fn is_wavefront_uniform(self) -> bool {
        !matches!(self, Builtin::GlobalId(_) | Builtin::LocalId(_))
    }

    /// The dimension the builtin queries.
    pub fn dim(self) -> Dim {
        match self {
            Builtin::GlobalId(d)
            | Builtin::LocalId(d)
            | Builtin::GroupId(d)
            | Builtin::GlobalSize(d)
            | Builtin::LocalSize(d)
            | Builtin::NumGroups(d) => d,
        }
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Builtin::GlobalId(d) => write!(f, "global_id.{d}"),
            Builtin::LocalId(d) => write!(f, "local_id.{d}"),
            Builtin::GroupId(d) => write!(f, "group_id.{d}"),
            Builtin::GlobalSize(d) => write!(f, "global_size.{d}"),
            Builtin::LocalSize(d) => write!(f, "local_size.{d}"),
            Builtin::NumGroups(d) => write!(f, "num_groups.{d}"),
        }
    }
}

/// Binary arithmetic / logical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (wrapping for ints).
    Add,
    /// Subtraction (wrapping for ints).
    Sub,
    /// Multiplication (wrapping for ints).
    Mul,
    /// Division. Integer division by zero yields 0 (GPU-style), float
    /// follows IEEE-754.
    Div,
    /// Remainder. Remainder by zero yields 0 for ints.
    Rem,
    /// Minimum (for F32: IEEE minNum semantics via `f32::min`).
    Min,
    /// Maximum.
    Max,
    /// Bitwise AND (integer types only).
    And,
    /// Bitwise OR (integer types only).
    Or,
    /// Bitwise XOR (integer types only).
    Xor,
    /// Shift left (integer types only; shift amount masked to 5 bits).
    Shl,
    /// Shift right (logical for U32, arithmetic for I32).
    Shr,
}

impl BinOp {
    /// `true` if the operator is only meaningful for integer types.
    pub fn int_only(self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// Unary operators, including the transcendental set needed by the AMD SDK
/// benchmark kernels (Black-Scholes, NBody, URNG, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise NOT (integers).
    Not,
    /// Arithmetic negation.
    Neg,
    /// Absolute value.
    Abs,
    /// `exp(x)` (F32).
    Exp,
    /// `ln(x)` (F32).
    Log,
    /// `sqrt(x)` (F32).
    Sqrt,
    /// `1/sqrt(x)` (F32).
    Rsqrt,
    /// `sin(x)` (F32).
    Sin,
    /// `cos(x)` (F32).
    Cos,
    /// Round toward negative infinity (F32).
    Floor,
    /// Reinterpret + convert: F32 value to I32 (truncating, saturating).
    F32ToI32,
    /// Convert I32 to F32.
    I32ToF32,
    /// Convert U32 to F32.
    U32ToF32,
    /// Convert F32 to U32 (truncating, saturating at 0).
    F32ToU32,
}

impl UnOp {
    /// `true` for operators whose operand is interpreted as F32.
    pub fn float_input(self) -> bool {
        !matches!(self, UnOp::Not | UnOp::I32ToF32 | UnOp::U32ToF32)
            || matches!(self, UnOp::Neg | UnOp::Abs)
    }

    /// `true` for the expensive transcendental ops (quarter-rate on GCN).
    pub fn is_transcendental(self) -> bool {
        matches!(
            self,
            UnOp::Exp | UnOp::Log | UnOp::Sqrt | UnOp::Rsqrt | UnOp::Sin | UnOp::Cos
        )
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
            UnOp::Abs => "abs",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Sqrt => "sqrt",
            UnOp::Rsqrt => "rsqrt",
            UnOp::Sin => "sin",
            UnOp::Cos => "cos",
            UnOp::Floor => "floor",
            UnOp::F32ToI32 => "f32_to_i32",
            UnOp::I32ToF32 => "i32_to_f32",
            UnOp::U32ToF32 => "u32_to_f32",
            UnOp::F32ToU32 => "f32_to_u32",
        };
        f.write_str(s)
    }
}

/// Comparison operators. The result is a boolean register (0 or 1, U32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Read-modify-write operators for [`Inst::Atomic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// Atomic add; returns the old value. `atomic_add(addr, 0)` is the
    /// paper's idiom for a coherent (L2-backed) read on a write-through,
    /// non-coherent L1 hierarchy (Section 7.2).
    Add,
    /// Atomic exchange; returns the old value.
    Exchange,
    /// Atomic compare-and-swap: if `*addr == cmp` store `value`; returns old.
    CmpXchg {
        /// Register holding the comparison value.
        cmp: Reg,
    },
    /// Atomic max (unsigned).
    Max,
    /// Atomic min (unsigned).
    Min,
}

impl fmt::Display for AtomicOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomicOp::Add => f.write_str("add"),
            AtomicOp::Exchange => f.write_str("xchg"),
            AtomicOp::CmpXchg { cmp } => write!(f, "cmpxchg({cmp})"),
            AtomicOp::Max => f.write_str("max"),
            AtomicOp::Min => f.write_str("min"),
        }
    }
}

/// Address spaces visible to a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Off-chip device memory, shared by the whole NDRange, reached through
    /// the cache hierarchy. Byte-addressed via buffer base addresses.
    Global,
    /// The per-work-group local data share (LDS). Byte offsets from the
    /// group's allocation base; size declared by [`crate::Kernel::lds_bytes`].
    Local,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSpace::Global => f.write_str("global"),
            MemSpace::Local => f.write_str("local"),
        }
    }
}

/// Intra-wavefront lane-exchange patterns for [`Inst::Swizzle`].
///
/// Models the GCN `ds_swizzle_b32` capability used by the paper's FAST
/// register-level communication (Section 8, Figure 8): values move between
/// the 64 lanes of a wavefront's vector register without touching the LDS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwizzleMode {
    /// Exchange each even lane 2k with its odd neighbour 2k+1.
    SwapPairs,
    /// Every odd lane 2k+1 receives the value of even lane 2k
    /// (even lanes keep their value).
    DupEven,
    /// Every even lane 2k receives the value of odd lane 2k+1 — this is the
    /// exact pattern drawn in Figure 8 of the paper.
    DupOdd,
}

impl SwizzleMode {
    /// The source lane whose value lane `lane` observes after the swizzle.
    pub fn source_lane(self, lane: usize) -> usize {
        match self {
            SwizzleMode::SwapPairs => lane ^ 1,
            SwizzleMode::DupEven => lane & !1,
            SwizzleMode::DupOdd => lane | 1,
        }
    }
}

impl fmt::Display for SwizzleMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwizzleMode::SwapPairs => f.write_str("swap_pairs"),
            SwizzleMode::DupEven => f.write_str("dup_even"),
            SwizzleMode::DupOdd => f.write_str("dup_odd"),
        }
    }
}

/// A straight-line sequence of instructions (possibly containing nested
/// structured control flow).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block(pub Vec<Inst>);

impl Block {
    /// Creates an empty block.
    pub fn new() -> Self {
        Block(Vec::new())
    }

    /// Number of instructions directly in this block (not recursive).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the block contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the direct instructions of this block.
    pub fn iter(&self) -> std::slice::Iter<'_, Inst> {
        self.0.iter()
    }

    /// Total instruction count including all nested blocks.
    pub fn total_insts(&self) -> usize {
        self.0
            .iter()
            .map(|i| match i {
                Inst::If {
                    then_blk, else_blk, ..
                } => 1 + then_blk.total_insts() + else_blk.total_insts(),
                Inst::While { cond, body, .. } => 1 + cond.total_insts() + body.total_insts(),
                _ => 1,
            })
            .sum()
    }
}

impl FromIterator<Inst> for Block {
    fn from_iter<T: IntoIterator<Item = Inst>>(iter: T) -> Self {
        Block(iter.into_iter().collect())
    }
}

/// A single IR instruction.
///
/// Instructions execute in SIMT fashion: one wavefront executes each
/// instruction for all of its (active) lanes before moving on.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Materialize a 32-bit constant (`bits` holds the raw pattern).
    Const {
        /// Destination register.
        dst: Reg,
        /// The type the constant is intended as (documentation/printing).
        ty: Ty,
        /// The raw 32-bit pattern.
        bits: u32,
    },
    /// Unary operation.
    Unary {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Reg,
    },
    /// Binary operation interpreted at type `ty`.
    Binary {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: BinOp,
        /// Operand interpretation.
        ty: Ty,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Comparison at type `ty`; `dst` receives 0 or 1.
    Cmp {
        /// Destination register (boolean).
        dst: Reg,
        /// Comparison operator.
        op: CmpOp,
        /// Operand interpretation.
        ty: Ty,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = cond ? if_true : if_false` (per lane; no branch).
    Select {
        /// Destination register.
        dst: Reg,
        /// Boolean condition register.
        cond: Reg,
        /// Value when `cond != 0`.
        if_true: Reg,
        /// Value when `cond == 0`.
        if_false: Reg,
    },
    /// Register copy.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Read a work-item identification builtin.
    ReadBuiltin {
        /// Destination register.
        dst: Reg,
        /// Which builtin to read.
        builtin: Builtin,
    },
    /// Read a kernel parameter: buffer params yield their base byte address
    /// in the global space, scalar params yield their raw bits.
    ReadParam {
        /// Destination register.
        dst: Reg,
        /// Index into [`crate::Kernel::params`].
        index: usize,
    },
    /// 32-bit load from `space` at byte address `addr`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address space.
        space: MemSpace,
        /// Byte address register.
        addr: Reg,
    },
    /// 32-bit store to `space` at byte address `addr`.
    Store {
        /// Address space.
        space: MemSpace,
        /// Byte address register.
        addr: Reg,
        /// Value register.
        value: Reg,
    },
    /// Atomic read-modify-write on `space` at `addr`.
    Atomic {
        /// Register receiving the *old* value, if wanted.
        dst: Option<Reg>,
        /// Address space.
        space: MemSpace,
        /// RMW operator.
        op: AtomicOp,
        /// Byte address register.
        addr: Reg,
        /// Operand value register.
        value: Reg,
    },
    /// Work-group execution + LDS memory barrier (OpenCL `barrier()`).
    Barrier,
    /// Intra-wavefront register lane exchange (GCN `ds_swizzle`-style).
    Swizzle {
        /// Destination register.
        dst: Reg,
        /// Source register (read across all lanes before writing).
        src: Reg,
        /// Lane permutation.
        mode: SwizzleMode,
    },
    /// Structured conditional. Lanes where `cond != 0` execute `then_blk`,
    /// the rest execute `else_blk`; a divergent wavefront serializes both.
    If {
        /// Boolean condition register.
        cond: Reg,
        /// Taken block.
        then_blk: Block,
        /// Not-taken block.
        else_blk: Block,
    },
    /// Structured loop. Each iteration first runs `cond` (the condition
    /// block), then tests `cond_reg` per lane: lanes reading 0 exit; the
    /// body runs while any lane remains active.
    While {
        /// Instructions computing the loop condition each iteration.
        cond: Block,
        /// Register tested after `cond` executes.
        cond_reg: Reg,
        /// Loop body.
        body: Block,
    },
}

impl Inst {
    /// The destination register this instruction writes, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Unary { dst, .. }
            | Inst::Binary { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::ReadBuiltin { dst, .. }
            | Inst::ReadParam { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Swizzle { dst, .. } => Some(*dst),
            Inst::Atomic { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Appends the source registers read *directly* by this instruction
    /// (control-flow conditions included, nested block contents excluded).
    pub fn srcs(&self, out: &mut Vec<Reg>) {
        match self {
            Inst::Const { .. }
            | Inst::ReadBuiltin { .. }
            | Inst::ReadParam { .. }
            | Inst::Barrier => {}
            Inst::Unary { a, .. } => out.push(*a),
            Inst::Binary { a, b, .. } | Inst::Cmp { a, b, .. } => {
                out.push(*a);
                out.push(*b);
            }
            Inst::Select {
                cond,
                if_true,
                if_false,
                ..
            } => {
                out.push(*cond);
                out.push(*if_true);
                out.push(*if_false);
            }
            Inst::Mov { src, .. } => out.push(*src),
            Inst::Load { addr, .. } => out.push(*addr),
            Inst::Store { addr, value, .. } => {
                out.push(*addr);
                out.push(*value);
            }
            Inst::Atomic {
                op, addr, value, ..
            } => {
                out.push(*addr);
                out.push(*value);
                if let AtomicOp::CmpXchg { cmp } = op {
                    out.push(*cmp);
                }
            }
            Inst::Swizzle { src, .. } => out.push(*src),
            Inst::If { cond, .. } => out.push(*cond),
            Inst::While { cond_reg, .. } => out.push(*cond_reg),
        }
    }

    /// `true` for instructions that access memory (loads, stores, atomics).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::Atomic { .. }
        )
    }

    /// `true` for structured control-flow containers.
    pub fn is_control(&self) -> bool {
        matches!(self, Inst::If { .. } | Inst::While { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swizzle_source_lanes() {
        // Figure 8: after DupOdd, even lanes observe their odd neighbour.
        assert_eq!(SwizzleMode::DupOdd.source_lane(0), 1);
        assert_eq!(SwizzleMode::DupOdd.source_lane(1), 1);
        assert_eq!(SwizzleMode::DupOdd.source_lane(62), 63);
        assert_eq!(SwizzleMode::DupEven.source_lane(1), 0);
        assert_eq!(SwizzleMode::DupEven.source_lane(0), 0);
        assert_eq!(SwizzleMode::SwapPairs.source_lane(5), 4);
        assert_eq!(SwizzleMode::SwapPairs.source_lane(4), 5);
    }

    #[test]
    fn swizzle_is_total_on_wavefront() {
        for mode in [
            SwizzleMode::SwapPairs,
            SwizzleMode::DupEven,
            SwizzleMode::DupOdd,
        ] {
            for lane in 0..64 {
                let src = mode.source_lane(lane);
                assert!(src < 64, "{mode} lane {lane} -> {src}");
                // Pairs never cross a pair boundary.
                assert_eq!(src / 2, lane / 2);
            }
        }
    }

    #[test]
    fn dst_and_srcs() {
        let i = Inst::Binary {
            dst: Reg(3),
            op: BinOp::Add,
            ty: Ty::U32,
            a: Reg(1),
            b: Reg(2),
        };
        assert_eq!(i.dst(), Some(Reg(3)));
        let mut srcs = Vec::new();
        i.srcs(&mut srcs);
        assert_eq!(srcs, vec![Reg(1), Reg(2)]);

        let st = Inst::Store {
            space: MemSpace::Global,
            addr: Reg(4),
            value: Reg(5),
        };
        assert_eq!(st.dst(), None);
        srcs.clear();
        st.srcs(&mut srcs);
        assert_eq!(srcs, vec![Reg(4), Reg(5)]);
    }

    #[test]
    fn cmpxchg_reads_cmp_register() {
        let i = Inst::Atomic {
            dst: Some(Reg(9)),
            space: MemSpace::Global,
            op: AtomicOp::CmpXchg { cmp: Reg(7) },
            addr: Reg(5),
            value: Reg(6),
        };
        let mut srcs = Vec::new();
        i.srcs(&mut srcs);
        assert!(srcs.contains(&Reg(7)));
    }

    #[test]
    fn block_total_insts_recurses() {
        let inner = Block(vec![
            Inst::Const {
                dst: Reg(0),
                ty: Ty::U32,
                bits: 1,
            },
            Inst::Barrier,
        ]);
        let b = Block(vec![Inst::If {
            cond: Reg(0),
            then_blk: inner.clone(),
            else_blk: Block::new(),
        }]);
        assert_eq!(b.total_insts(), 3);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn builtin_uniformity() {
        assert!(!Builtin::GlobalId(Dim::X).is_wavefront_uniform());
        assert!(!Builtin::LocalId(Dim::X).is_wavefront_uniform());
        assert!(Builtin::GroupId(Dim::X).is_wavefront_uniform());
        assert!(Builtin::LocalSize(Dim::Y).is_wavefront_uniform());
    }

    #[test]
    fn int_only_ops() {
        assert!(BinOp::Xor.int_only());
        assert!(BinOp::Shl.int_only());
        assert!(!BinOp::Add.int_only());
        assert!(!BinOp::Min.int_only());
    }
}
