//! Process-level readings: CPU time, host steal and thread count.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and /proc on 64-bit targets only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by this process so far, across
/// all of its threads (exited ones included), to the nanosecond.
/// (`/proc/self/stat` counts in 10 ms ticks, too coarse for one short
/// simulation.)
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) that
    // outlives the call, and the clock id is a constant the kernel
    // accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Seconds of CPU time the hypervisor gave to other guests while this
/// machine's CPUs wanted to run (the `steal` column of `/proc/stat`,
/// summed over CPUs). On a shared host this is what slows wall-clock
/// figures between runs of identical code.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("/proc/stat has a cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: u64 = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .expect("/proc/stat cpu line has a steal column");
    // Reported in USER_HZ, which Linux fixes at 100 for user space.
    steal as f64 / 100.0
}

/// Number of threads this process has right now.
pub fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("status has a Threads line")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before, "a busy loop must cost CPU");
        assert!(steal_seconds() >= 0.0);
        // Other tests run on threads of their own, so only a lower bound
        // holds: this test's thread plus the one it spawns.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || rx.recv());
        assert!(thread_count() >= 2, "a spawned thread is counted");
        tx.send(()).expect("thread waits for this");
        t.join().expect("thread exits").expect("message arrives");
    }
}
