//! A dependency-free scoped-thread job pool for embarrassingly parallel
//! experiment sweeps.
//!
//! This environment has no crates.io access, so instead of rayon the
//! experiment pipeline fans out over [`std::thread::scope`]: a shared
//! atomic cursor hands work items to `jobs` workers, and results land in
//! per-item slots so output order always matches input order regardless
//! of completion order.

use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// A job that panicked inside a [`parallel_map_isolated`] worker.
///
/// The panic is caught at the job boundary, so one failing item reports a
/// structured error instead of tearing down the whole map.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobError {
    /// Index of the input item whose job panicked.
    pub index: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// recovered verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobError {}

/// Renders a panic payload from [`catch_unwind`] as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The default worker count: the host's available parallelism, or 1 if
/// it cannot be determined.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Applies `f` to every item across `jobs` worker threads, returning
/// results in input order.
///
/// Work is handed out dynamically (an atomic cursor), so uneven item
/// costs balance across workers. With `jobs <= 1` or fewer than two
/// items the map runs inline on the caller's thread — no threads, no
/// synchronization, identical call order to a plain `iter().map()`.
///
/// # Panics
///
/// A panic inside `f` on any worker propagates to the caller when the
/// scope joins.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot").expect("every item visited"))
        .collect()
}

thread_local! {
    /// Whether this thread is inside a [`parallel_map_isolated`] job.
    static ISOLATED: Cell<bool> = const { Cell::new(false) };
}

/// Wraps the process's panic hook, once, so that it stays silent for a
/// panic inside an isolated job: the job's [`JobError`] reports that
/// panic. A panic on any other thread still reaches the previous hook.
fn silence_isolated_panics() {
    static WRAP: Once = Once::new();
    WRAP.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ISOLATED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Like [`parallel_map`], but each job runs under [`catch_unwind`]: a
/// panicking item yields `Err(JobError)` in its slot while every other
/// item still completes. Results stay in input order. The panic hook
/// prints nothing for a caught panic; the `JobError` carries its message.
///
/// The closure must be effectively unwind-safe: jobs communicate only
/// through their return value, so a panicking job can at worst leave
/// torn state in values it exclusively owns (which are then discarded).
pub fn parallel_map_isolated<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, JobError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    silence_isolated_panics();
    parallel_map(items, jobs, |i, t| {
        let outer = ISOLATED.with(|flag| flag.replace(true));
        let result = catch_unwind(AssertUnwindSafe(|| f(i, t)));
        ISOLATED.with(|flag| flag.set(outer));
        result.map_err(|payload| JobError { index: i, message: panic_message(payload) })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 7, 200] {
            let out = parallel_map(&items, jobs, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_run_inline() {
        let none: Vec<u32> = parallel_map(&[], 8, |_, x: &u32| *x);
        assert!(none.is_empty());
        let one = parallel_map(&[41], 8, |_, x| x + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn dynamic_distribution_covers_all_items_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<usize> = (0..57).collect();
        let out = parallel_map(&items, 4, |_, &x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 57);
        assert_eq!(out, items);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn isolated_map_reports_panics_without_killing_siblings() {
        let items: Vec<usize> = (0..40).collect();
        for jobs in [1, 3, 8] {
            let out = parallel_map_isolated(&items, jobs, |_, &x| {
                assert!(x != 17, "planted failure at item 17");
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i == 17 {
                    let e = r.as_ref().expect_err("item 17 panics");
                    assert_eq!(e.index, 17);
                    assert!(e.message.contains("planted failure"), "message: {}", e.message);
                } else {
                    assert_eq!(r.as_ref().copied().expect("healthy item"), i * 2);
                }
            }
        }
    }

    #[test]
    fn isolated_map_error_path_is_deterministic_across_job_counts() {
        let items: Vec<usize> = (0..30).collect();
        let run = |jobs| {
            parallel_map_isolated(&items, jobs, |_, &x| {
                assert!(x % 11 != 5, "item {x} fails");
                x + 1
            })
        };
        let reference = run(1);
        for jobs in [2, 4, 16] {
            assert_eq!(run(jobs), reference);
        }
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let out = parallel_map_isolated(&[0u32], 1, |_, _| -> u32 {
            std::panic::panic_any(42i32);
        });
        let e = out[0].as_ref().expect_err("payload panic");
        assert_eq!(e.message, "non-string panic payload");
    }
}
