//! A minimal dynamically balanced executor on scoped OS threads.
//!
//! The preparation matrix (8 workloads x 5 schemes, plus the
//! compile/trace stage feeding it) is an embarrassingly parallel batch
//! of uneven tasks: compiling `gcc` costs many times a `fig05` encode.
//! Static partitioning would leave workers idle behind the long pole, so
//! every task is known before any worker starts and each worker claims
//! the next unclaimed one from a shared atomic cursor when it is free.
//!
//! No crates.io dependencies (the build is offline — see DESIGN.md §6).
//! Results are returned in task order regardless of execution
//! interleaving, so parallel runs are bit-identical to `jobs = 1` runs
//! as long as the tasks themselves are pure — which the determinism
//! suite asserts end to end.
//!
//! [`run_tasks_isolated`] catches each task's panic individually — a
//! poisoned job becomes an `Err(JobPanic)` slot in the result vector
//! and every *worker thread survives*, which is what a long-running
//! service needs from a batch with one bad element (DESIGN.md §13).

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// The causal span the *current* task runs under (0 = none). Set by
    /// [`with_span`] around a task body; producers inside the task
    /// (e.g. the engine's `cached` stage spans) read it with
    /// [`current_span`] to parent their spans. The value travels with
    /// the task closure, not the worker thread: whichever thread claims
    /// the job installs the context before running it and restores the
    /// previous value after, so parentage survives the hand-off.
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// The span id the running task was scheduled under, 0 when none.
pub fn current_span() -> u64 {
    CURRENT_SPAN.with(Cell::get)
}

/// Runs `f` with `id` installed as the current span context, restoring
/// the previous context afterwards — including on panic, so an isolated
/// job failure can't leak its span onto the worker's next task.
pub fn with_span<R>(id: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_SPAN.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT_SPAN.with(|c| c.replace(id)));
    f()
}

/// A task panicked inside [`run_tasks_isolated`]: the payload,
/// stringified, with the task's batch index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the task in the submitted batch.
    pub task_index: usize,
    /// The panic payload rendered to text (`&str`/`String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task_index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Renders a caught panic payload as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs every task, using up to `jobs` worker threads, with per-task
/// panic isolation: a panicking task yields `Err(JobPanic)` in its
/// result slot instead of tearing down the pool. Worker threads always
/// survive; result order is task order.
pub fn run_tasks_isolated<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let wrapped: Vec<_> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, task)| {
            move || {
                catch_unwind(AssertUnwindSafe(task)).map_err(|payload| JobPanic {
                    task_index: i,
                    message: panic_message(payload.as_ref()),
                })
            }
        })
        .collect();
    run_tasks(jobs, wrapped)
}

/// Runs every task, using up to `jobs` worker threads, and returns the
/// results in task order.
///
/// `jobs` is clamped to `1..=tasks.len()`; `jobs <= 1` runs inline on
/// the caller's thread with no locking at all (the reference serial
/// schedule).
///
/// # Panics
///
/// Propagates the first panicking task's payload after all workers have
/// stopped (via [`std::thread::scope`]).
fn run_tasks<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n);
    if jobs == 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }

    // Task slots, each claimed exactly once through the cursor, and
    // order-preserving result slots.
    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let task = slot
                    .lock()
                    .expect("task slot")
                    .take()
                    .expect("task ran twice");
                *results[i].lock().expect("result slot") = Some(task());
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("task completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_task_order() {
        for jobs in [1, 2, 4, 8] {
            let tasks: Vec<_> = (0..37).map(|i| move || i * 3).collect();
            let out = run_tasks(jobs, tasks);
            assert_eq!(
                out,
                (0..37).map(|i| i * 3).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn runs_every_task_exactly_once() {
        static HITS: AtomicUsize = AtomicUsize::new(0);
        HITS.store(0, Ordering::SeqCst);
        let tasks: Vec<_> = (0..100)
            .map(|i| {
                move || {
                    HITS.fetch_add(1, Ordering::SeqCst);
                    i
                }
            })
            .collect();
        let out = run_tasks(8, tasks);
        assert_eq!(HITS.load(Ordering::SeqCst), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn uneven_tasks_complete() {
        // Front-loads one long task so other workers must take the rest.
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16)
            .map(|i| {
                let f: Box<dyn FnOnce() -> usize + Send> = if i == 0 {
                    Box::new(|| (0..2_000_000u64).fold(0u64, |a, b| a ^ b) as usize)
                } else {
                    Box::new(move || i)
                };
                f
            })
            .collect();
        let out = run_tasks(4, tasks);
        assert_eq!(out[1..], (1..16).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn empty_and_oversubscribed() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(run_tasks(8, none).is_empty());
        let out = run_tasks(64, vec![|| 1u32, || 2u32]);
        assert_eq!(out, vec![1, 2]);
    }

    /// Runs `f` with the default panic hook silenced, so tests that
    /// deliberately panic inside workers do not spam the test output.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn isolated_pool_survives_poisoned_jobs() {
        let out = quiet_panics(|| {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..24)
                .map(|i| {
                    let f: Box<dyn FnOnce() -> usize + Send> = if i % 5 == 0 {
                        Box::new(move || panic!("poisoned job {i}"))
                    } else {
                        Box::new(move || i * 2)
                    };
                    f
                })
                .collect();
            run_tasks_isolated(4, tasks)
        });
        assert_eq!(out.len(), 24, "every slot reports, poisoned or not");
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 0 {
                let p = r.as_ref().expect_err("poisoned slot");
                assert_eq!(p.task_index, i);
                assert_eq!(p.message, format!("poisoned job {i}"));
            } else {
                assert_eq!(*r.as_ref().expect("healthy slot"), i * 2);
            }
        }
    }

    #[test]
    fn isolated_pool_serial_path_catches_too() {
        let out = quiet_panics(|| {
            run_tasks_isolated(
                1,
                vec![
                    Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>,
                    Box::new(|| panic!("{}", String::from("owned payload"))),
                ],
            )
        });
        assert_eq!(*out[0].as_ref().unwrap(), 1);
        assert_eq!(out[1].as_ref().unwrap_err().message, "owned payload");
    }

    #[test]
    fn span_context_travels_with_the_task_not_the_thread() {
        // Each task is wrapped with its own span id at submission time;
        // whatever thread claims it must observe that id inside, and a
        // worker's context must be clean between tasks.
        let tasks: Vec<_> = (1..=64u64)
            .map(|id| move || with_span(id, || (id, current_span())))
            .collect();
        for (expected, (id, seen)) in (1..=64u64).zip(run_tasks(8, tasks)) {
            assert_eq!(id, expected);
            assert_eq!(seen, expected, "task {expected} saw a foreign span");
        }
        assert_eq!(current_span(), 0, "caller context untouched");
    }

    #[test]
    fn span_context_nests_and_restores() {
        assert_eq!(current_span(), 0);
        let inner = with_span(5, || {
            assert_eq!(current_span(), 5);
            with_span(9, current_span)
        });
        assert_eq!(inner, 9);
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn span_context_is_restored_after_a_panicking_task() {
        let out = quiet_panics(|| {
            run_tasks_isolated(
                1,
                vec![
                    Box::new(|| with_span(7, || -> u64 { panic!("boom") }))
                        as Box<dyn FnOnce() -> u64 + Send>,
                    Box::new(current_span),
                ],
            )
        });
        assert!(out[0].is_err());
        assert_eq!(
            *out[1].as_ref().unwrap(),
            0,
            "panic must not leak the span onto the next task"
        );
    }

    #[test]
    fn tasks_may_borrow_caller_state() {
        let data: Vec<u64> = (0..50).collect();
        let tasks: Vec<_> = data
            .chunks(7)
            .map(|c| move || c.iter().sum::<u64>())
            .collect();
        let sums = run_tasks(3, tasks);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }
}
