//! The clocks the model workloads are timed with.
//!
//! On a shared virtual machine the hypervisor takes the vCPU away from time
//! to time ("steal"), for seconds at a stretch; a single-threaded hashing
//! loop then runs at half speed by the wall clock. The kernel's per-task
//! CPU time leaves stolen time out (`CONFIG_PARAVIRT_TIME_ACCOUNTING`) and
//! so does not count time spent waiting for a CPU, which is why the model
//! workloads, whose work is all on-CPU, are timed with it.

use std::sync::OnceLock;
use std::time::Instant;

/// CPU time used so far by every thread of this process, exited ones
/// included, in nanoseconds.
#[cfg(target_os = "linux")]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: std::ffi::c_long,
        nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is one
    // every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Elsewhere the wall clock stands in for CPU time.
#[cfg(not(target_os = "linux"))]
pub fn cpu_ns() -> u64 {
    wall_ns()
}

/// Wall-clock nanoseconds since the first call.
pub fn wall_ns() -> u64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_follows_work_not_sleep() {
        let c0 = cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = cpu_ns() - c0;
        let (c1, t) = (cpu_ns(), Instant::now());
        while t.elapsed().as_millis() < 50 {
            std::hint::black_box(cpu_ns());
        }
        let busy = cpu_ns() - c1;
        assert!(slept < 20_000_000, "sleeping used {slept} ns of CPU");
        assert!(busy > 20_000_000, "50 ms of spinning used {busy} ns of CPU");
    }
}
