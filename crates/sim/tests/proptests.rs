//! Property-based tests: ALU semantics against native Rust references,
//! the wavefront lane kernels against the scalar ALU, cache-model
//! invariants, and simulator determinism on random programs.

use gcn_sim::alu::{bin_lanes, cmp_lanes, eval_bin, eval_cmp, eval_un, un_lanes, LaneVals, LANES};
use gcn_sim::{Arg, Device, DeviceConfig, LaunchConfig};
use proptest::prelude::*;
use rmt_ir::{BinOp, CmpOp, KernelBuilder, Ty, UnOp};

proptest! {
    #[test]
    fn u32_binops_match_rust(a: u32, b: u32) {
        prop_assert_eq!(eval_bin(BinOp::Add, Ty::U32, a, b), a.wrapping_add(b));
        prop_assert_eq!(eval_bin(BinOp::Sub, Ty::U32, a, b), a.wrapping_sub(b));
        prop_assert_eq!(eval_bin(BinOp::Mul, Ty::U32, a, b), a.wrapping_mul(b));
        prop_assert_eq!(eval_bin(BinOp::And, Ty::U32, a, b), a & b);
        prop_assert_eq!(eval_bin(BinOp::Or, Ty::U32, a, b), a | b);
        prop_assert_eq!(eval_bin(BinOp::Xor, Ty::U32, a, b), a ^ b);
        prop_assert_eq!(eval_bin(BinOp::Min, Ty::U32, a, b), a.min(b));
        prop_assert_eq!(eval_bin(BinOp::Max, Ty::U32, a, b), a.max(b));
        prop_assert_eq!(
            eval_bin(BinOp::Div, Ty::U32, a, b),
            a.checked_div(b).unwrap_or(0)
        );
        prop_assert_eq!(
            eval_bin(BinOp::Shl, Ty::U32, a, b),
            a.wrapping_shl(b & 31)
        );
    }

    #[test]
    fn i32_binops_match_rust(a: i32, b: i32) {
        let (au, bu) = (a as u32, b as u32);
        prop_assert_eq!(eval_bin(BinOp::Add, Ty::I32, au, bu), a.wrapping_add(b) as u32);
        prop_assert_eq!(eval_bin(BinOp::Min, Ty::I32, au, bu), a.min(b) as u32);
        prop_assert_eq!(eval_bin(BinOp::Max, Ty::I32, au, bu), a.max(b) as u32);
        // Division never traps, even at i32::MIN / -1.
        let _ = eval_bin(BinOp::Div, Ty::I32, au, bu);
        let _ = eval_bin(BinOp::Rem, Ty::I32, au, bu);
    }

    #[test]
    fn f32_binops_match_rust(a: f32, b: f32) {
        let (ab, bb) = (a.to_bits(), b.to_bits());
        prop_assert_eq!(eval_bin(BinOp::Add, Ty::F32, ab, bb), (a + b).to_bits());
        prop_assert_eq!(eval_bin(BinOp::Mul, Ty::F32, ab, bb), (a * b).to_bits());
        prop_assert_eq!(eval_bin(BinOp::Div, Ty::F32, ab, bb), (a / b).to_bits());
    }

    #[test]
    fn comparisons_are_total_orders_on_ints(a: u32, b: u32) {
        // Exactly one of <, ==, > holds.
        let lt = eval_cmp(CmpOp::Lt, Ty::U32, a, b);
        let eq = eval_cmp(CmpOp::Eq, Ty::U32, a, b);
        let gt = eval_cmp(CmpOp::Gt, Ty::U32, a, b);
        prop_assert_eq!(lt + eq + gt, 1);
        // Le/Ge are consistent.
        prop_assert_eq!(eval_cmp(CmpOp::Le, Ty::U32, a, b), lt | eq);
        prop_assert_eq!(eval_cmp(CmpOp::Ge, Ty::U32, a, b), gt | eq);
        prop_assert_eq!(eval_cmp(CmpOp::Ne, Ty::U32, a, b), 1 - eq);
    }

    #[test]
    fn unary_conversions_roundtrip_small_ints(v in 0u32..1_000_000) {
        let f = eval_un(UnOp::U32ToF32, v);
        prop_assert_eq!(eval_un(UnOp::F32ToU32, f), v, "u32->f32->u32 exact below 2^24-ish");
    }

    #[test]
    fn not_is_involutive(v: u32) {
        prop_assert_eq!(eval_un(UnOp::Not, eval_un(UnOp::Not, v)), v);
    }

    #[test]
    fn sqrt_of_square_is_close(v in 0.0f32..1e4) {
        let sq = eval_bin(BinOp::Mul, Ty::F32, v.to_bits(), v.to_bits());
        let r = f32::from_bits(eval_un(UnOp::Sqrt, sq));
        prop_assert!((r - v).abs() <= v * 1e-5 + 1e-6, "{r} vs {v}");
    }
}

const BIN_OPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const UN_OPS: [UnOp; 14] = [
    UnOp::Not,
    UnOp::Neg,
    UnOp::Abs,
    UnOp::Exp,
    UnOp::Log,
    UnOp::Sqrt,
    UnOp::Rsqrt,
    UnOp::Sin,
    UnOp::Cos,
    UnOp::Floor,
    UnOp::F32ToI32,
    UnOp::I32ToF32,
    UnOp::U32ToF32,
    UnOp::F32ToU32,
];
const TYS: [Ty; 3] = [Ty::U32, Ty::I32, Ty::F32];

/// Bit patterns at the edges of the operators: signed zeros, infinities,
/// quiet and signalling NaNs with payloads, `i32::MIN` and `-1` (whose
/// quotient overflows), zero divisors and shift amounts of 32 and more.
const EDGES: [u32; 16] = [
    0,
    1,
    0x8000_0000, // -0.0, i32::MIN
    0xFFFF_FFFF, // -1, a negative NaN with a full payload
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x7FC0_0000, // quiet NaN
    0x7FC0_1234, // quiet NaN with a payload
    0x7F80_0001, // signalling NaN
    0x3F80_0000, // 1.0
    0xBF80_0000, // -1.0
    31,
    32,
    33,
    64,
    0x7FFF_FFFF, // i32::MAX
];

/// A wavefront of lane values, each either random or an edge value.
fn lane_vals() -> impl Strategy<Value = LaneVals> {
    let lane = prop_oneof![any::<u32>(), prop::sample::select(EDGES.to_vec())];
    prop::collection::vec(lane, LANES..LANES + 1).prop_map(|v| v.try_into().expect("64 lanes"))
}

/// Asserts that every lane kernel equals its scalar `eval_*` applied lane
/// by lane, bit for bit, for every operator and type.
fn check_lane_kernels(a: &LaneVals, b: &LaneVals) {
    for ty in TYS {
        for op in BIN_OPS {
            let want: LaneVals = std::array::from_fn(|l| eval_bin(op, ty, a[l], b[l]));
            prop_assert_eq!(bin_lanes(op, ty, a, b), want, "{:?} {:?}", op, ty);
        }
        for op in CMP_OPS {
            let want: LaneVals = std::array::from_fn(|l| eval_cmp(op, ty, a[l], b[l]));
            prop_assert_eq!(cmp_lanes(op, ty, a, b), want, "{:?} {:?}", op, ty);
        }
    }
    for op in UN_OPS {
        let want: LaneVals = std::array::from_fn(|l| eval_un(op, a[l]));
        prop_assert_eq!(un_lanes(op, a), want, "{:?}", op);
    }
}

#[test]
fn lane_kernels_match_scalar_alu_on_every_edge_pair() {
    let pairs: Vec<(u32, u32)> = EDGES
        .iter()
        .flat_map(|&x| EDGES.iter().map(move |&y| (x, y)))
        .collect();
    for chunk in pairs.chunks(LANES) {
        let a = std::array::from_fn(|l| chunk.get(l).map_or(0, |p| p.0));
        let b = std::array::from_fn(|l| chunk.get(l).map_or(0, |p| p.1));
        check_lane_kernels(&a, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn lane_kernels_match_scalar_alu(a in lane_vals(), b in lane_vals()) {
        check_lane_kernels(&a, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random affine kernels compute exactly what Rust computes, for every
    /// lane, across work-group shapes that exercise partial wavefronts.
    #[test]
    fn device_matches_cpu_for_affine_kernels(
        mul in 1u32..1000,
        add: u32,
        shift in 0u32..31,
        local in prop::sample::select(vec![32usize, 48, 64, 128]),
        groups in 1usize..5,
    ) {
        let mut b = KernelBuilder::new("affine");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let ia = b.elem_addr(inp, gid);
        let v = b.load_global(ia);
        let m = b.const_u32(mul);
        let a = b.const_u32(add);
        let s = b.const_u32(shift);
        let t1 = b.mul_u32(v, m);
        let t2 = b.add_u32(t1, a);
        let t3 = b.shr_u32(t2, s);
        let x = b.xor_u32(t3, gid);
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, x);
        let k = b.finish();

        let n = local * groups;
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let mut dev = Device::new(DeviceConfig::small_test());
        let ib = dev.create_buffer((n * 4) as u32);
        let ob = dev.create_buffer((n * 4) as u32);
        dev.write_u32s(ib, &input);
        dev.launch(
            &k,
            &LaunchConfig::new_1d(n, local)
                .arg(Arg::Buffer(ib))
                .arg(Arg::Buffer(ob)),
        )
        .unwrap();
        let got = dev.read_u32s(ob);
        for (i, &inv) in input.iter().enumerate() {
            let want = (inv.wrapping_mul(mul).wrapping_add(add) >> shift) ^ (i as u32);
            prop_assert_eq!(got[i], want, "item {}", i);
        }
    }

    /// Cycle counts are a pure function of (kernel, launch, inputs).
    #[test]
    fn simulation_is_deterministic(seed: u32, rounds in 1usize..24) {
        let build = || {
            let mut b = KernelBuilder::new("det");
            let out = b.buffer_param("out");
            let gid = b.global_id(0);
            let c = b.const_u32(seed | 1);
            let mut v = gid;
            for _ in 0..rounds {
                v = b.mul_u32(v, c);
            }
            let oa = b.elem_addr(out, gid);
            b.store_global(oa, v);
            b.finish()
        };
        let run = || {
            let mut dev = Device::new(DeviceConfig::small_test());
            let ob = dev.create_buffer(2048 * 4);
            let s = dev
                .launch(
                    &build(),
                    &LaunchConfig::new_1d(2048, 64).arg(Arg::Buffer(ob)),
                )
                .unwrap();
            (s.cycles, s.counters.dyn_insts, dev.read_u32s(ob))
        };
        prop_assert_eq!(run(), run());
    }

    /// More work never makes the device finish sooner (monotone cost).
    #[test]
    fn cycles_grow_with_items(small_groups in 1usize..8) {
        let mk = |groups: usize| {
            let mut b = KernelBuilder::new("mono");
            let out = b.buffer_param("out");
            let gid = b.global_id(0);
            let c = b.const_u32(17);
            let mut v = gid;
            for _ in 0..16 {
                v = b.mul_u32(v, c);
            }
            let oa = b.elem_addr(out, gid);
            b.store_global(oa, v);
            let k = b.finish();
            let n = groups * 64;
            let mut dev = Device::new(DeviceConfig::small_test());
            let ob = dev.create_buffer((n * 4) as u32);
            dev.launch(&k, &LaunchConfig::new_1d(n, 64).arg(Arg::Buffer(ob)))
                .unwrap()
                .cycles
        };
        let lo = mk(small_groups);
        let hi = mk(small_groups * 4);
        prop_assert!(hi >= lo, "4x the groups took fewer cycles: {hi} < {lo}");
    }
}
