//! Keeps the virtual CPUs out of the hypervisor's idle path while an
//! open-loop serving load runs.
//!
//! On this VM a halted vCPU takes 0.1–1 ms to wake, and how long depends
//! on what the host is doing. A low-utilisation open loop pays that
//! three or four times per request (scheduler wake, window timer, worker
//! wake, collector wake): the p50 of `serve_int8_mixed` moved between
//! 3.2 and 4.3 ms across identical runs, with no change in the program.
//! One spinning thread per core at the lowest priority (`nice 19`) means
//! no core ever halts; a waking server thread preempts a spinner at once,
//! and with them the same p50 repeats within a few percent.
//!
//! Only the open loops (and the idle round-trip probe, which is the same
//! path) run with spinners. The closed loops keep their cores busy by
//! themselves, and `fed_population` spawns hundreds of short-lived
//! threads per repetition, which a spinner on every core slows sevenfold.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    /// POSIX `setpriority(2)` from the C library `std` already links.
    fn setpriority(which: i32, who: u32, priority: i32) -> i32;
}

/// `PRIO_PROCESS`: on Linux, with `who == 0`, the *calling thread*.
const PRIO_PROCESS: i32 = 0;
/// The weakest nice level.
const LOWEST: i32 = 19;

/// The running spinners; [`KeepAwake::stop`] joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<bool>>,
}

impl KeepAwake {
    /// Starts one lowest-priority spinner per core. A spinner that cannot
    /// lower its own priority exits at once rather than compete with the
    /// workload.
    pub fn start(cores: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: `setpriority` takes three integers by value and
                    // touches no memory of ours; (PRIO_PROCESS, 0) names the
                    // calling thread, which may always weaken its own priority.
                    let weakened = unsafe { setpriority(PRIO_PROCESS, 0, LOWEST) } == 0;
                    // Relaxed: the flag publishes nothing but itself.
                    while weakened && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    weakened
                })
            })
            .collect();
        Self { stop, spinners }
    }

    /// Stops and joins the spinners; returns how many actually spun.
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.spinners.into_iter().map(|s| usize::from(s.join().unwrap_or(false))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_and_are_joined() {
        let awake = KeepAwake::start(2);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(awake.stop(), 2, "a thread may always lower its own priority");
    }
}
