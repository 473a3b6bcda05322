//! Negative tests: each lint pass family must actually fire on a kernel
//! seeded with the bug it hunts. The companion positive suite
//! (`rmt-kernels/tests/lint_clean.rs`) proves zero false positives over
//! the benchmark suite; this file proves non-zero recall.

use rmt_ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig, LintKind};
use rmt_ir::{KernelBuilder, SwizzleMode, Ty};

fn cfg() -> LintConfig {
    LintConfig::with_assumptions(LintAssumptions {
        local_size: [Some(64), Some(1), Some(1)],
        wavefront: 64,
    })
}

fn kinds(k: &rmt_ir::Kernel) -> Vec<LintKind> {
    lint_kernel(k, &cfg()).into_iter().map(|d| d.kind).collect()
}

#[test]
fn unsynchronized_lds_write_races() {
    // Every work-item writes its id to the same LDS word in one barrier
    // interval: a definite write/write race.
    let mut b = KernelBuilder::new("racy_lds");
    b.set_lds_bytes(64);
    let lid = b.local_id(0);
    let zero = b.const_u32(0);
    b.store_local(zero, lid);
    assert!(kinds(&b.finish()).contains(&LintKind::LocalRace));
}

#[test]
fn missing_barrier_between_write_and_read_races() {
    // The classic bug: neighbour exchange without a barrier. Item i
    // writes slot i, then reads slot i+1 — which its neighbour is still
    // writing.
    let mut b = KernelBuilder::new("no_barrier");
    b.set_lds_bytes(4 * 64);
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let four = b.const_u32(4);
    let one = b.const_u32(1);
    let slot = b.mul_u32(lid, four);
    b.store_local(slot, lid);
    let n1 = b.add_u32(lid, one);
    let wrapped = {
        let ls = b.local_size(0);
        b.rem_u32(n1, ls)
    };
    let nslot = b.mul_u32(wrapped, four);
    let v = b.load_local(nslot);
    let gid = b.global_id(0);
    let a = b.elem_addr(out, gid);
    b.store_global(a, v);
    assert!(kinds(&b.finish()).contains(&LintKind::LocalRace));
}

#[test]
fn colliding_global_store_is_a_definite_race() {
    // `out[gid >> 1]` — work-items 2k and 2k+1 store different values to
    // the same element. Global memory uses the bug-finder posture, so
    // only a *proven* collision like this one may fire.
    let mut b = KernelBuilder::new("global_collide");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let one = b.const_u32(1);
    let half = b.shr_u32(gid, one);
    let a = b.elem_addr(out, half);
    b.store_global(a, gid);
    assert!(kinds(&b.finish()).contains(&LintKind::GlobalRace));
}

#[test]
fn barrier_under_lane_dependent_if_is_divergent() {
    let mut b = KernelBuilder::new("div_barrier");
    let lid = b.local_id(0);
    let n = b.const_u32(16);
    let c = b.lt_u32(lid, n);
    b.if_(c, |b| b.barrier());
    assert!(kinds(&b.finish()).contains(&LintKind::DivergentBarrier));
}

#[test]
fn barrier_in_lane_dependent_loop_is_divergent() {
    // Trip count varies per lane: the barrier stops being reached by the
    // whole group after the first lane exits.
    let mut b = KernelBuilder::new("div_loop_barrier");
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
    assert!(kinds(&b.finish()).contains(&LintKind::DivergentBarrier));
}

#[test]
fn swizzle_of_value_defined_under_pair_splitting_guard() {
    // The guard `lid < 16` splits even/odd pairs at the boundary; a value
    // produced under it and exchanged through the VRF reads a stale
    // register on the inactive lane.
    let mut b = KernelBuilder::new("div_swizzle");
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let n = b.const_u32(16);
    let c = b.lt_u32(lid, n);
    b.if_(c, |b| {
        let one = b.const_u32(1);
        let v = b.add_u32(lid, one);
        let s = b.swizzle(v, SwizzleMode::DupEven);
        let gid = b.global_id(0);
        let a = b.elem_addr(out, gid);
        b.store_global(a, s);
    });
    assert!(kinds(&b.finish()).contains(&LintKind::DivergentSwizzle));
}

#[test]
fn lds_access_past_allocation_is_flagged() {
    let mut b = KernelBuilder::new("oob");
    b.set_lds_bytes(16);
    let lid = b.local_id(0);
    let addr = b.const_u32(64);
    b.store_local(addr, lid);
    assert!(kinds(&b.finish()).contains(&LintKind::LdsOutOfBounds));
}

#[test]
fn lds_access_under_unsatisfiable_guard_is_dead_code_not_a_bug() {
    // Found by `repro fuzz`: guarding an access with `lid == K` where K
    // exceeds the assumed local size pins `lid` to K in the guarded
    // region. The bounds pass used to substitute the pin into comm-slot
    // addresses and flag an "out of bounds" access that can never
    // execute. An unsatisfiable guard means dead code, not a bug.
    let mut b = KernelBuilder::new("dead_guard");
    b.set_lds_bytes(16);
    let lid = b.local_id(0);
    let huge = b.const_u32(0x15cc_797a);
    let cond = b.cmp(rmt_ir::CmpOp::Eq, rmt_ir::Ty::U32, lid, huge);
    b.if_(cond, |b| {
        let four = b.const_u32(4);
        let slot = b.mul_u32(lid, four);
        b.store_local(slot, lid);
    });
    assert_eq!(kinds(&b.finish()), Vec::<LintKind>::new());
}

#[test]
fn clean_kernel_stays_clean() {
    // Sanity: the standard tiled pattern (write own slot, barrier, read
    // neighbour) produces no findings.
    let mut b = KernelBuilder::new("clean");
    b.set_lds_bytes(4 * 64);
    let out = b.buffer_param("out");
    let lid = b.local_id(0);
    let four = b.const_u32(4);
    let one = b.const_u32(1);
    let slot = b.mul_u32(lid, four);
    b.store_local(slot, lid);
    b.barrier();
    let n1 = b.add_u32(lid, one);
    let wrapped = {
        let ls = b.local_size(0);
        b.rem_u32(n1, ls)
    };
    let nslot = b.mul_u32(wrapped, four);
    let v = b.load_local(nslot);
    let gid = b.global_id(0);
    let a = b.elem_addr(out, gid);
    b.store_global(a, v);
    assert_eq!(kinds(&b.finish()), Vec::<LintKind>::new());
}

#[test]
fn diagnostic_text_is_deterministic() {
    // Twelve registers defined under a uniform `if` each become a fresh
    // `unk` atom where the branches merge; the guard below renders one of
    // them. The merge must number its fresh atoms in register order, not
    // in hash order, or the message changes from call to call.
    let mut b = KernelBuilder::new("merge_order");
    let out = b.buffer_param("out");
    let n = b.scalar_param("n", Ty::U32);
    let zero = b.const_u32(0);
    let c = b.ne_u32(n, zero);
    let mut merged = Vec::new();
    b.if_(c, |b| {
        let mut acc = n;
        for _ in 0..12 {
            acc = b.add_u32(acc, n);
            merged.push(acc);
        }
    });
    let lid = b.local_id(0);
    let g = b.lt_u32(lid, merged[5]);
    b.if_(g, |b| {
        let one = b.const_u32(1);
        let v = b.add_u32(lid, one);
        let s = b.swizzle(v, SwizzleMode::DupEven);
        let gid = b.global_id(0);
        let a = b.elem_addr(out, gid);
        b.store_global(a, s);
    });
    let k = b.finish();
    let render = || -> Vec<String> {
        lint_kernel(&k, &cfg())
            .iter()
            .map(ToString::to_string)
            .collect()
    };
    let first = render();
    for _ in 1..20 {
        assert_eq!(render(), first);
    }
    assert_eq!(
        first,
        [
            "[divergent-swizzle] swizzle of a value defined under a guard (on lid0 vs unk6) \
          that is not uniform across even/odd lane pairs: the source lane may never have \
          computed it"
        ]
    );
}
