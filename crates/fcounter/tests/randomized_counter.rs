//! Randomized tests: the f-array is exact and wait-free-bounded under
//! arbitrary interleavings, in both its simulated and real forms. These
//! are the former proptest suites ported to plain `#[test]`s driven by
//! the in-tree `ccsim::Prng`.

use ccsim::{Layout, Memory, Prng, ProcId, Protocol, SubMachine, SubStep};
use fcounter::{FArray, SimCounter, SimCounterHandle, TreeShape};

/// Drive a batch of per-process operation lists to completion under a
/// seeded random interleaving; return the final counter value and the
/// worst per-operation step count observed.
fn run_sim_batch(k: usize, deltas_per_proc: &[Vec<i64>], seed: u64) -> (i64, u64) {
    let mut layout = Layout::new();
    let counter = SimCounter::allocate(&mut layout, "C", k);
    let mut mem = Memory::new(&layout, k, Protocol::WriteBack);
    let mut handles: Vec<SimCounterHandle> = (0..k).map(|i| counter.handle(i)).collect();
    let mut queues: Vec<std::collections::VecDeque<i64>> = deltas_per_proc
        .iter()
        .map(|v| v.iter().copied().collect())
        .collect();
    let mut current: Vec<Option<fcounter::AddMachine>> = (0..k).map(|_| None).collect();
    let mut op_steps: Vec<u64> = vec![0; k];
    let mut max_op_steps = 0u64;
    let mut rng = Prng::new(seed);

    loop {
        // Processes with work: either a live machine or a queued delta.
        let live: Vec<usize> = (0..k)
            .filter(|&i| current[i].is_some() || !queues[i].is_empty())
            .collect();
        if live.is_empty() {
            break;
        }
        let i = live[rng.below(live.len())];
        if current[i].is_none() {
            let delta = queues[i].pop_front().unwrap();
            current[i] = Some(handles[i].add(delta));
            op_steps[i] = 0;
        }
        let m = current[i].as_mut().unwrap();
        match m.poll() {
            SubStep::Op(op) => {
                let out = mem.apply(ProcId(i), &op);
                m.resume(out.response);
                op_steps[i] += 1;
                max_op_steps = max_op_steps.max(op_steps[i]);
            }
            SubStep::Done(_) => {
                current[i] = None;
            }
        }
    }
    (counter.peek(&mem), max_op_steps)
}

/// Random per-process delta lists: up to `max_lists` lists of up to
/// `max_len` deltas each, every delta in `[-5, 5]`.
fn random_deltas(rng: &mut Prng, k: usize, max_len: usize) -> Vec<Vec<i64>> {
    (0..k)
        .map(|_| {
            (0..rng.below(max_len + 1))
                .map(|_| rng.int_in(-5, 6))
                .collect()
        })
        .collect()
}

/// Any interleaving of any batch of adds yields the exact sum, and no
/// single add ever exceeds the wait-free bound 1 + 8 * depth steps.
#[test]
fn sim_adds_exact_and_bounded() {
    let mut gen = Prng::new(0xfa44a7);
    for case in 0..64 {
        let k = 1 + gen.below(6);
        let seed = gen.next_u64();
        let deltas = random_deltas(&mut gen, k, 4);
        let expected: i64 = deltas.iter().flatten().sum();
        let (got, max_steps) = run_sim_batch(k, &deltas, seed);
        assert_eq!(got, expected, "case {case}: k={k} seed={seed}");
        let bound = 1 + 8 * TreeShape::new(k).depth() as u64;
        assert!(
            max_steps <= bound,
            "case {case}: an add took {max_steps} steps, wait-free bound is {bound} (k={k})"
        );
    }
}

/// The real f-array agrees with a sequential shadow under per-thread
/// operation lists (run on real threads).
#[test]
fn real_adds_exact() {
    let mut gen = Prng::new(0x4ea1_add5);
    for case in 0..16 {
        let k = 1 + gen.below(4);
        let deltas = random_deltas(&mut gen, k, 29);
        let expected: i64 = deltas.iter().flatten().sum();
        let counter = FArray::new(k);
        std::thread::scope(|s| {
            for (id, list) in deltas.iter().enumerate() {
                let counter = &counter;
                s.spawn(move || {
                    for &d in list {
                        counter.add(id, d);
                    }
                });
            }
        });
        assert_eq!(counter.read(), expected, "case {case}: k={k}");
    }
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let err =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("expected a panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// The one-array layout keeps every leaf apart and the root exact, for
/// padded and unpadded widths alike; the first padding leaf (or, at a
/// power-of-two `k`, the cell past the end) is not a process.
#[test]
fn real_layout_sums_every_leaf_and_bounds_ids() {
    let mut gen = Prng::new(0xfa11_a7e5);
    for k in 1..=9 {
        let counter = FArray::new(k);
        let mut contributions = vec![0i64; k];
        for _round in 0..8 {
            for (id, c) in contributions.iter_mut().enumerate() {
                let d = gen.int_in(-5, 6);
                counter.add(id, d);
                *c += d;
            }
        }
        assert_eq!(counter.read(), contributions.iter().sum::<i64>(), "k={k}");
        for (id, &c) in contributions.iter().enumerate() {
            assert_eq!(counter.leaf(id), c, "k={k} id={id}");
        }
        for msg in [
            panic_message(|| {
                counter.leaf(k);
            }),
            panic_message(|| counter.add(k, 1)),
        ] {
            assert!(msg.contains("out of range"), "k={k}: {msg}");
        }
        assert_eq!(counter.read(), contributions.iter().sum::<i64>(), "k={k}");
    }
}

/// Reads during quiescent moments between batches are exact.
#[test]
fn sim_sequential_batches() {
    let mut gen = Prng::new(0x5e9_ba7c);
    for _case in 0..32 {
        let seq: Vec<i64> = (0..1 + gen.below(19)).map(|_| gen.int_in(-3, 4)).collect();
        let mut layout = Layout::new();
        let counter = SimCounter::allocate(&mut layout, "C", 2);
        let mut mem = Memory::new(&layout, 2, Protocol::WriteBack);
        let mut handle = counter.handle(0);
        let mut running = 0i64;
        for d in seq {
            let mut m = handle.add(d);
            while let SubStep::Op(op) = m.poll() {
                let out = mem.apply(ProcId(0), &op);
                m.resume(out.response);
            }
            running += d;
            assert_eq!(counter.peek(&mem), running);
        }
    }
}
