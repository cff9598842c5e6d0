//! Deterministic fan-out of independent work items across worker threads.
//!
//! The experiment drivers hand [`par_map_with`] a list of *independent*
//! trials (each carrying its own [`crate::rng::rng_for_trial`] stream) and
//! a closure; workers pull items off a shared counter and write results
//! back into the slot matching the item's input index. Output order therefore
//! equals input order and every item's computation is a pure function of
//! the item itself — results are bit-identical whatever the thread count,
//! including the `threads == 1` sequential path.
//!
//! Thread count resolution, highest priority first:
//! 1. an explicit count passed to [`par_map_with`] (drivers pass their
//!    `threads` option, or [`configured_threads`] when it is unset),
//! 2. `SPIDERNET_THREADS`,
//! 3. `RAYON_NUM_THREADS` (honoured for drop-in familiarity),
//! 4. `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count, from the environment or the machine.
pub fn configured_threads() -> usize {
    for var in ["SPIDERNET_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on exactly `threads` workers (1 = fully
/// sequential, no threads spawned), preserving input order in the output.
///
/// A panic inside `f` propagates to the caller once all workers stop.
pub fn par_map_with<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    let (slots_ref, results_ref, next_ref) = (&slots, &results, &next);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots_ref[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each slot is claimed exactly once");
                let out = f(i, item);
                *results_ref[i].lock().unwrap() = Some(out);
            });
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every claimed slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 8] {
            let out = par_map_with(threads, (0..100u64).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let work = |_, seed: u64| {
            let mut rng = crate::rng::Rng::seed_from_u64(seed);
            (0..50).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
        };
        let seq = par_map_with(1, (0..32).collect(), work);
        for threads in [2, 3, 8, 16] {
            assert_eq!(par_map_with(threads, (0..32).collect(), work), seq);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u64> = par_map_with(4, Vec::<u64>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(par_map_with(4, vec![7u64], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn oversubscription_is_fine() {
        // More threads than items and more threads than cores.
        let out = par_map_with(64, (0..5u64).collect(), |_, x| x);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
