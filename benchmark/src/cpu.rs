//! CPU time as Linux accounts it. On a shared virtual machine the
//! hypervisor takes CPUs away for stretches of its own choosing; that
//! stolen time counts in wall time but not here, which is why the
//! end-to-end metrics are CPU time per operation.

/// CPU time of the calling thread so far, in ns: the first field of
/// `/proc/thread-self/schedstat`.
pub fn thread_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_advances_with_work() {
        let t0 = thread_ns().expect("schedstat");
        let mut x = 0u64;
        while thread_ns().expect("schedstat") < t0 + 30_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(thread_ns().expect("schedstat") >= t0 + 30_000_000);
    }
}
