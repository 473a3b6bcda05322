//! Pure per-lane ALU semantics.
//!
//! Every value is a 32-bit pattern; the instruction's [`Ty`] decides how the
//! pattern is interpreted. Division and remainder by zero produce 0 for
//! integer types (GPU convention) and follow IEEE-754 for floats.
//!
//! The scalar `eval_*` functions define each operator. The `*_lanes`
//! kernels apply one to a whole wavefront: they match the operator and
//! type once, then run a 64-lane loop of the scalar function specialized
//! to that arm, so the interpreter pays the dispatch once per instruction
//! rather than once per lane. Every `eval_*` is total (no input panics),
//! so the kernels compute all 64 lanes and the caller keeps the active
//! ones.

use rmt_ir::{BinOp, CmpOp, Ty, UnOp};

/// Lanes in a wavefront.
pub const LANES: usize = 64;

/// One 32-bit value per lane of a wavefront.
pub type LaneVals = [u32; LANES];

#[inline(always)]
fn map1(a: &LaneVals, f: impl Fn(u32) -> u32) -> LaneVals {
    std::array::from_fn(|l| f(a[l]))
}

#[inline(always)]
fn map2(a: &LaneVals, b: &LaneVals, f: impl Fn(u32, u32) -> u32) -> LaneVals {
    std::array::from_fn(|l| f(a[l], b[l]))
}

/// [`eval_bin`] on every lane: `out[l] = eval_bin(op, ty, a[l], b[l])`.
pub fn bin_lanes(op: BinOp, ty: Ty, a: &LaneVals, b: &LaneVals) -> LaneVals {
    macro_rules! arms {
        ($($o:ident),*) => {
            match (op, ty) {
                $(
                    (BinOp::$o, Ty::U32) => map2(a, b, |x, y| eval_bin(BinOp::$o, Ty::U32, x, y)),
                    (BinOp::$o, Ty::I32) => map2(a, b, |x, y| eval_bin(BinOp::$o, Ty::I32, x, y)),
                    (BinOp::$o, Ty::F32) => map2(a, b, |x, y| eval_bin(BinOp::$o, Ty::F32, x, y)),
                )*
            }
        };
    }
    arms!(Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr)
}

/// [`eval_cmp`] on every lane: `out[l] = eval_cmp(op, ty, a[l], b[l])`.
pub fn cmp_lanes(op: CmpOp, ty: Ty, a: &LaneVals, b: &LaneVals) -> LaneVals {
    macro_rules! arms {
        ($($o:ident),*) => {
            match (op, ty) {
                $(
                    (CmpOp::$o, Ty::U32) => map2(a, b, |x, y| eval_cmp(CmpOp::$o, Ty::U32, x, y)),
                    (CmpOp::$o, Ty::I32) => map2(a, b, |x, y| eval_cmp(CmpOp::$o, Ty::I32, x, y)),
                    (CmpOp::$o, Ty::F32) => map2(a, b, |x, y| eval_cmp(CmpOp::$o, Ty::F32, x, y)),
                )*
            }
        };
    }
    arms!(Eq, Ne, Lt, Le, Gt, Ge)
}

/// [`eval_un`] on every lane: `out[l] = eval_un(op, a[l])`.
pub fn un_lanes(op: UnOp, a: &LaneVals) -> LaneVals {
    macro_rules! arms {
        ($($o:ident),*) => {
            match op {
                $(UnOp::$o => map1(a, |x| eval_un(UnOp::$o, x)),)*
            }
        };
    }
    arms!(
        Not, Neg, Abs, Exp, Log, Sqrt, Rsqrt, Sin, Cos, Floor, F32ToI32, I32ToF32, U32ToF32,
        F32ToU32
    )
}

/// Evaluates a binary operator on two 32-bit patterns at type `ty`.
#[inline]
pub fn eval_bin(op: BinOp, ty: Ty, a: u32, b: u32) -> u32 {
    match ty {
        Ty::U32 => eval_bin_u32(op, a, b),
        Ty::I32 => eval_bin_i32(op, a as i32, b as i32) as u32,
        Ty::F32 => eval_bin_f32(op, f32::from_bits(a), f32::from_bits(b)).to_bits(),
    }
}

fn eval_bin_u32(op: BinOp, a: u32, b: u32) -> u32 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Rem => a.checked_rem(b).unwrap_or(0),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b & 31),
        BinOp::Shr => a.wrapping_shr(b & 31),
    }
}

fn eval_bin_i32(op: BinOp, a: i32, b: i32) -> i32 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 31),
        BinOp::Shr => a.wrapping_shr(b as u32 & 31),
    }
}

/// `r`, the result of a commutative `a op b`, with the NaN operand order
/// pinned: when both operands are NaN, `a` propagates (quieted). IEEE-754
/// leaves that choice open, and the compiler may swap the operands of a
/// commutative op — it does in vectorized lane loops — so without this
/// the same inputs could yield either payload.
#[inline(always)]
fn nan_a_first(a: f32, b: f32, r: f32) -> f32 {
    if a.is_nan() && b.is_nan() {
        f32::from_bits(a.to_bits() | 0x0040_0000)
    } else {
        r
    }
}

fn eval_bin_f32(op: BinOp, a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add => nan_a_first(a, b, a + b),
        BinOp::Sub => a - b,
        BinOp::Mul => nan_a_first(a, b, a * b),
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        // Validation rejects these; keep a defined result anyway.
        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => f32::NAN,
    }
}

/// Evaluates a comparison at type `ty`, returning 0 or 1.
#[inline]
pub fn eval_cmp(op: CmpOp, ty: Ty, a: u32, b: u32) -> u32 {
    let r = match ty {
        Ty::U32 => match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        },
        Ty::I32 => {
            let (a, b) = (a as i32, b as i32);
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        }
        Ty::F32 => {
            let (a, b) = (f32::from_bits(a), f32::from_bits(b));
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        }
    };
    r as u32
}

/// Evaluates a unary operator on a 32-bit pattern.
#[inline]
pub fn eval_un(op: UnOp, a: u32) -> u32 {
    match op {
        UnOp::Not => !a,
        UnOp::Neg => (f32::from_bits(a)).to_bits() ^ 0x8000_0000,
        UnOp::Abs => f32::from_bits(a).abs().to_bits(),
        UnOp::Exp => f32::from_bits(a).exp().to_bits(),
        UnOp::Log => f32::from_bits(a).ln().to_bits(),
        UnOp::Sqrt => f32::from_bits(a).sqrt().to_bits(),
        UnOp::Rsqrt => (1.0 / f32::from_bits(a).sqrt()).to_bits(),
        UnOp::Sin => f32::from_bits(a).sin().to_bits(),
        UnOp::Cos => f32::from_bits(a).cos().to_bits(),
        UnOp::Floor => f32::from_bits(a).floor().to_bits(),
        UnOp::F32ToI32 => {
            let f = f32::from_bits(a);
            if f.is_nan() {
                0
            } else {
                (f as i32) as u32 // `as` saturates in Rust
            }
        }
        UnOp::I32ToF32 => (a as i32 as f32).to_bits(),
        UnOp::U32ToF32 => (a as f32).to_bits(),
        UnOp::F32ToU32 => {
            let f = f32::from_bits(a);
            if f.is_nan() {
                0
            } else {
                f as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f32) -> u32 {
        x.to_bits()
    }

    #[test]
    fn u32_arithmetic_wraps() {
        assert_eq!(eval_bin(BinOp::Add, Ty::U32, u32::MAX, 1), 0);
        assert_eq!(eval_bin(BinOp::Sub, Ty::U32, 0, 1), u32::MAX);
        assert_eq!(eval_bin(BinOp::Mul, Ty::U32, 1 << 31, 2), 0);
    }

    #[test]
    fn division_by_zero_is_zero_for_ints() {
        assert_eq!(eval_bin(BinOp::Div, Ty::U32, 5, 0), 0);
        assert_eq!(eval_bin(BinOp::Rem, Ty::U32, 5, 0), 0);
        assert_eq!(eval_bin(BinOp::Div, Ty::I32, -5i32 as u32, 0), 0);
        // i32::MIN / -1 must not trap.
        assert_eq!(
            eval_bin(BinOp::Div, Ty::I32, i32::MIN as u32, -1i32 as u32),
            i32::MIN as u32
        );
    }

    #[test]
    fn signed_vs_unsigned_compare() {
        let a = -1i32 as u32; // 0xFFFF_FFFF
        assert_eq!(eval_cmp(CmpOp::Lt, Ty::I32, a, 0), 1);
        assert_eq!(eval_cmp(CmpOp::Lt, Ty::U32, a, 0), 0);
        assert_eq!(eval_cmp(CmpOp::Gt, Ty::U32, a, 0), 1);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        assert_eq!(eval_bin(BinOp::Add, Ty::F32, f(1.5), f(2.5)), f(4.0));
        assert_eq!(
            eval_bin(BinOp::Div, Ty::F32, f(1.0), f(0.0)),
            f(f32::INFINITY)
        );
        assert_eq!(eval_bin(BinOp::Max, Ty::F32, f(-3.0), f(2.0)), f(2.0));
    }

    #[test]
    fn two_nan_operands_propagate_the_first() {
        let (a, b) = (0x7F80_0001, 0xFFC0_1234); // signalling, negative quiet
        for op in [BinOp::Add, BinOp::Mul] {
            assert_eq!(eval_bin(op, Ty::F32, a, b), 0x7FC0_0001, "{op:?}");
            assert_eq!(eval_bin(op, Ty::F32, b, a), 0xFFC0_1234, "{op:?}");
            let lanes = bin_lanes(op, Ty::F32, &[a; LANES], &[b; LANES]);
            assert_eq!(lanes, [0x7FC0_0001; LANES], "{op:?}");
        }
    }

    #[test]
    fn shift_masks_amount() {
        assert_eq!(eval_bin(BinOp::Shl, Ty::U32, 1, 33), 2);
        assert_eq!(
            eval_bin(BinOp::Shr, Ty::I32, (-8i32) as u32, 1),
            (-4i32) as u32
        );
        assert_eq!(eval_bin(BinOp::Shr, Ty::U32, 0x8000_0000, 31), 1);
    }

    #[test]
    fn unary_transcendentals() {
        assert_eq!(eval_un(UnOp::Sqrt, f(4.0)), f(2.0));
        assert_eq!(eval_un(UnOp::Exp, f(0.0)), f(1.0));
        assert_eq!(eval_un(UnOp::Floor, f(2.9)), f(2.0));
        assert_eq!(eval_un(UnOp::Abs, f(-7.0)), f(7.0));
        assert_eq!(eval_un(UnOp::Neg, f(3.0)), f(-3.0));
        let r = f32::from_bits(eval_un(UnOp::Rsqrt, f(4.0)));
        assert!((r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn conversions_saturate() {
        assert_eq!(eval_un(UnOp::F32ToI32, f(1e20)), i32::MAX as u32);
        assert_eq!(eval_un(UnOp::F32ToU32, f(-5.0)), 0);
        assert_eq!(eval_un(UnOp::F32ToI32, f(f32::NAN)), 0);
        assert_eq!(eval_un(UnOp::I32ToF32, (-2i32) as u32), f(-2.0));
        assert_eq!(eval_un(UnOp::U32ToF32, 7), f(7.0));
    }

    #[test]
    fn cmp_nan_is_unordered() {
        assert_eq!(eval_cmp(CmpOp::Eq, Ty::F32, f(f32::NAN), f(f32::NAN)), 0);
        assert_eq!(eval_cmp(CmpOp::Lt, Ty::F32, f(f32::NAN), f(1.0)), 0);
        assert_eq!(eval_cmp(CmpOp::Ne, Ty::F32, f(f32::NAN), f(1.0)), 1);
    }
}
