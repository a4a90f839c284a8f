//! The sweep harness behind every fleet, audit and exploration (see
//! DESIGN.md, "Sweep harness"): a deterministic fan-out ([`fan_out`]),
//! panic containment ([`contain`]) and the per-cell compile policy
//! ([`CompileOptions::sweep_cell`]). The reproduction command of a
//! quarantined cell is left to each sweep, the only one that knows which
//! CLI rebuilds its cell.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::session::CompileOptions;

impl CompileOptions {
    /// The per-cell compile policy of the verifying sweeps (conformance
    /// fleet, co-design search, both fault audits): breadth over
    /// per-cell polish (two restarts), parallelism at the cell level (a
    /// single-threaded scheduler per cell), and a deterministic fuel cap
    /// so a pathological cell degrades or quarantines instead of hanging
    /// the sweep (the cap is far above what any corpus cell spends).
    pub fn sweep_cell() -> CompileOptions {
        CompileOptions {
            restarts: 2,
            sched_threads: 1,
            fuel: Some(10_000),
            ..CompileOptions::default()
        }
    }
}

/// Runs `cell` on every item across `threads` scoped workers (`0` = one
/// per available core, `1` = serially on the caller's thread) and returns
/// the results in input order — the same vector for every thread count.
/// Workers claim items from a shared counter, so uneven cells balance; a
/// panic that `cell` does not [`contain`] reaches the caller.
pub(crate) fn fan_out<T, R>(threads: usize, items: &[T], cell: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(items.len());
    if workers <= 1 {
        return items.iter().map(cell).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, cell(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f`, turning a panic into its rendered payload.
pub(crate) fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_text(&*payload))
}

/// `panic!` with a literal or a formatted message covers effectively
/// every payload the compiler can produce; anything else gets a
/// placeholder.
fn panic_text(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_owned(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "panic with non-string payload".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_for_every_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0, 1, 4] {
            assert_eq!(fan_out(threads, &items, |x| x * x), expected, "{threads}");
            assert_eq!(
                fan_out(threads, &[] as &[u64], |x| x * x),
                Vec::<u64>::new()
            );
            assert_eq!(fan_out(threads, &[7u64], |x| x * x), vec![49]);
        }
    }

    #[test]
    fn contained_panic_leaves_the_other_items_intact() {
        let items: Vec<u32> = (0..8).collect();
        for threads in [1, 4] {
            let results = fan_out(threads, &items, |&i| {
                contain(|| {
                    if i == 5 {
                        panic!("injected panic in item {i}");
                    }
                    i * 10
                })
            });
            for (i, result) in results.iter().enumerate() {
                match result {
                    Ok(v) => assert_eq!(*v, i as u32 * 10),
                    Err(m) => {
                        assert_eq!(i, 5);
                        assert_eq!(m, "injected panic in item 5");
                    }
                }
            }
            assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        }
    }

    #[test]
    fn payloads_render_as_text_or_placeholder() {
        assert_eq!(panic_text(&"literal"), "literal");
        assert_eq!(panic_text(&String::from("formatted 3")), "formatted 3");
        assert_eq!(panic_text(&42u32), "panic with non-string payload");
        assert_eq!(contain(|| panic!("boom")), Err::<(), _>("boom".to_owned()));
        assert_eq!(
            contain(|| std::panic::panic_any(7u8)),
            Err::<(), _>("panic with non-string payload".to_owned())
        );
    }
}
