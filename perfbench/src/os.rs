//! Operating-system settings of the service workload.

/// Asks for the finest timer slack on the calling thread, so the
/// generator's sleeps end close to their due times; the default slack
/// (50 us) would make most requests late.
#[cfg(target_os = "linux")]
pub fn tighten_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and changes only
    // the calling thread's timer slack; no memory is passed to the kernel.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
pub fn tighten_timer_slack() {}

/// Limits the allocator to one arena. A restarted service spawns a new
/// worker thread; with one arena it reuses the heap its predecessor freed
/// instead of faulting in a fresh arena, whose cost varied run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn single_malloc_arena() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: mallopt takes two integers and only adjusts allocator
    // tuning; it is called before the workload starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn single_malloc_arena() {}
