//! Scoped fan-out: one order-preserving parallel map over a slice.
//!
//! Shipped code fans out in one place: k-Graph's per-length jobs
//! (`KGraph::fit`, one job per subsequence length). Everything inside a job
//! runs on the job's own thread, so fan-outs never nest. The query server's
//! parallelism is its worker pool: each request, a batch included, runs on
//! one worker.

use std::thread;

/// Maps `f` over `items` on at most one scoped worker per hardware thread
/// and returns the results in input order.
///
/// The worker count is `available_parallelism().min(items.len())`, read on
/// every call: a process whose CPU affinity shrinks after start-up runs
/// serially from then on. Each worker maps one contiguous chunk of
/// `len.div_ceil(workers)` items; with fewer than two workers this is the
/// plain serial `map`. Each result is `f` of its item, so the output equals
/// the serial map whenever `f` is deterministic. A panic in `f` propagates
/// to the caller.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(items.len());
    if workers < 2 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equals_the_serial_map_in_order() {
        for n in [0usize, 1, 2, 3, 17, 1000] {
            let items: Vec<u64> = (0..n as u64).collect();
            let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x << 7);
            let serial: Vec<u64> = items.iter().map(f).collect();
            assert_eq!(par_map(&items, f), serial, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn a_worker_panic_reaches_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        par_map(&items, |&i| {
            if i == 5 {
                panic!("item 5");
            }
            i
        });
    }
}
