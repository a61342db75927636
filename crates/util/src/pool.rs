//! An order-preserving worker pool for independent jobs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0) … f(n - 1)` on `jobs` scoped worker threads (at least one,
/// at most `n`) and returns the results in index order. Workers claim
/// indices from a shared counter, so which thread runs a job — and in
/// what order jobs finish — never shows in the output: for a
/// deterministic `f` it equals `(0..n).map(f).collect()`.
///
/// # Examples
///
/// ```
/// let squares = bass_util::pool::ordered_map(3, 5, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn ordered_map<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                slots.lock().expect("result slots lock")[i] = Some(out);
            });
        }
    });
    let slots = slots.into_inner().expect("result slots lock");
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_index_order_at_any_job_count() {
        for jobs in [0, 1, 2, 7, 100] {
            let got = ordered_map(jobs, 40, |i| (i, i * 3));
            let want: Vec<(usize, usize)> = (0..40).map(|i| (i, i * 3)).collect();
            assert_eq!(got, want, "jobs = {jobs}");
        }
        assert!(ordered_map(4, 0, |i| i).is_empty());
    }
}
