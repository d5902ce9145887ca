//! Uncontended passage latency of every lock implementation: the price of
//! a reader or writer passage when nobody else competes. The rows are the
//! `A_f` lock under every named `f` policy, then every real-capable lock
//! of the registry. The `A_f` reader pays its `Θ(log(n/f))` f-array walk
//! even uncontended; the `f` policy moves that cost between the two
//! tables. Run with `cargo bench -p bench --bench uncontended`.

use bench::stopwatch::bench_loop;
use rwcore::{AfConfig, FPolicy, LockRegistry, RawAdapter, RawAfLock, RealLock, RealShape};
use std::sync::Arc;

/// Reader slots every lock is built for.
const READERS: usize = 64;
/// Writer slots every lock is built for.
const WRITERS: usize = 2;

fn locks() -> Vec<(String, Arc<dyn RealLock>)> {
    let policies = FPolicy::NAMED.into_iter().map(|policy| {
        let lock = RawAfLock::new(AfConfig {
            readers: READERS,
            writers: WRITERS,
            policy,
        });
        let lock: Arc<dyn RealLock> = Arc::new(RawAdapter::new(lock));
        (format!("a_f({policy})"), lock)
    });
    let registered = LockRegistry::builtin()
        .real_locks(RealShape::new(READERS, WRITERS))
        .into_iter()
        .map(|lock| (lock.label(), lock));
    policies.chain(registered).collect()
}

fn main() {
    println!("== uncontended_reader_passage ==");
    for (name, lock) in locks() {
        bench_loop(&name, || lock.read_pass(0, &mut || {}));
    }
    println!("== uncontended_writer_passage ==");
    for (name, lock) in locks() {
        bench_loop(&name, || lock.write_pass(0, &mut || {}));
    }
}
