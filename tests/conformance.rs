//! The real-atomics conformance suite: every lock in the registry, and
//! every `A_f` tradeoff point, runs [`rwcore::conformance`]'s seeded
//! read/write mixes under its Mutual Exclusion and lost-update oracle.
//! A lock registered in `rwcore::LockRegistry::builtin` is checked
//! here with no further wiring.

use rwcore::{
    conformance, AfConfig, FPolicy, GatedAfLock, LockRegistry, RawAdapter, RawAfLock, RealShape,
};

/// CI runs this suite as a seed matrix: `RANDOMIZED_SEED=<k>` shifts
/// every seed below by `k`. Unset keeps the recorded seeds.
fn seed_offset() -> u64 {
    ccsim::env::read_strict_uint("RANDOMIZED_SEED", true).unwrap_or(0)
}

#[test]
fn every_registered_real_lock_conforms() {
    let shapes = [
        RealShape::new(1, 1),
        RealShape::new(3, 1),
        RealShape::new(2, 3),
        RealShape::symmetric(3).with_shards(2),
    ];
    for (i, shape) in shapes.into_iter().enumerate() {
        let seed = 0xC0F0_0000 + i as u64 + seed_offset();
        for lock in LockRegistry::builtin().real_locks(shape) {
            conformance(lock.as_ref(), shape, seed).unwrap();
        }
    }
}

#[test]
fn raw_af_conforms_under_every_named_policy() {
    for policy in FPolicy::NAMED {
        for (readers, writers) in [(6, 1), (6, 3), (4, 2), (5, 2)] {
            let cfg = AfConfig::new(readers, writers).with_policy(policy);
            let lock = RawAdapter::new(RawAfLock::new(cfg));
            let seed = 0xAF00_0000 + (readers * 8 + writers) as u64 + seed_offset();
            conformance(&lock, RealShape::new(readers, writers), seed)
                .unwrap_or_else(|e| panic!("policy {policy}: {e}"));
        }
    }
}

#[test]
fn gated_af_conforms_under_log_n() {
    let cfg = AfConfig::new(4, 2).with_policy(FPolicy::LogN);
    let lock = RawAdapter::new(GatedAfLock::new(cfg));
    conformance(&lock, RealShape::new(4, 2), 0x6A7E + seed_offset()).unwrap();
}
