//! Process plumbing: the benchmark's clock, child processes that die
//! with the benchmark, and precise sleeps.

use std::process::{Child, Command};
use std::time::Instant;

/// The benchmark's clock. The benchmark measures wall-clock time by
/// design, so this is its one clock read.
pub fn now() -> Instant {
    Instant::now() // detlint: allow(D001, reason = "the benchmark measures wall-clock time by design")
}

/// Kills and reaps the child on drop, so every exit path stops it.
pub struct KillOnDrop(pub Option<Child>);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Asks the kernel to kill the child when the thread that spawned it
/// exits, so no server outlives an interrupted benchmark.
#[cfg(target_os = "linux")]
pub fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before exec and only
    // calls prctl(2) with integer arguments, which is async-signal-safe;
    // it touches no memory shared with the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
pub fn die_with_parent(_cmd: &mut Command) {}

/// Lowers the calling thread's timer slack to 1 ns so the sender's
/// sleeps end close to each request's due time.
#[cfg(target_os = "linux")]
pub fn precise_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes integer arguments and changes only
    // this thread's timer slack; failure leaves the default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

#[cfg(not(target_os = "linux"))]
pub fn precise_sleeps() {}

/// Confines the calling thread, and every thread and child process it
/// starts afterwards, to the lowest-numbered CPU it may run on, and
/// returns that CPU. `None` when the affinity could not be read or set.
///
/// The live workloads run the server and the load generator this way.
/// On a virtual machine a wake-up sent to another vCPU that is halted
/// waits for the host to schedule that vCPU, which takes from tens of
/// microseconds to milliseconds depending on the host's load; on one
/// CPU every wake-up is local.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A 1024-bit mask: the kernel's cpu_set_t size.
    let mut mask = [0u64; 16];
    // SAFETY: pid 0 is the calling thread; the kernel writes at most
    // `size_of_val(&mask)` bytes into `mask`, which lives on this frame.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..64 * mask.len()).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; the kernel only reads the
    // mask, which lives on this frame for the duration of the call.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The calling thread's run delay: the time it has spent runnable but
/// waiting for a CPU, from `/proc/thread-self/schedstat` (ns). Time the
/// host takes a vCPU away from the guest is not in it, so a sleeping
/// thread that wakes late by more than its run delay grew was held up
/// by the host, not by the guest's own threads.
pub struct RunDelay(std::fs::File);

impl RunDelay {
    /// `None` where the kernel does not expose the figure.
    pub fn open() -> Option<RunDelay> {
        let mut probe = RunDelay(std::fs::File::open("/proc/thread-self/schedstat").ok()?);
        probe.ns().map(|_| probe)
    }

    /// The run delay so far (ns).
    pub fn ns(&mut self) -> Option<u64> {
        use std::io::{Read, Seek, SeekFrom};
        let mut buf = [0u8; 96];
        self.0.seek(SeekFrom::Start(0)).ok()?;
        let len = self.0.read(&mut buf).ok()?;
        std::str::from_utf8(&buf[..len])
            .ok()?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    }
}
