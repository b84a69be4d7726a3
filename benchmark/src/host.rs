//! Host and validity stamps recorded with every result.

use std::process::Command;

use sentinel_core::obs::json::Value;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

// --- CPU placement ------------------------------------------------------------
//
// `wire_open` keeps two threads busy the whole time: the spinning generator
// and, near saturation, the server's event loop. Left to the scheduler the
// two share a core for stretches of a run (two spinning threads started
// together lose a sixth of their time that way on this host), and which
// runs do is luck. So the generator takes the last CPU it is allowed and
// the server every other one. std has no affinity call; glibc, which std
// links, does.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set of up to 1024 CPUs, as the kernel takes it.
type CpuMask = [u64; 16];

fn affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_affinity(mask: &CpuMask) {
    // SAFETY: `mask` is a readable buffer of the size passed. A refusal
    // leaves the thread where it was, which is only noisier.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
}

/// The allowed CPUs split into `(all but the last, the last)`; `None` with
/// fewer than two.
fn split_last(mask: &CpuMask) -> Option<(CpuMask, CpuMask)> {
    let last = (0..1024).rev().find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut rest = *mask;
    rest[last / 64] &= !(1 << (last % 64));
    let mut only = [0; 16];
    only[last / 64] = 1 << (last % 64);
    rest.iter().any(|&w| w != 0).then_some((rest, only))
}

/// The calling thread pinned to the last CPU it may use, until dropped.
pub struct OnLastCpu {
    previous: Option<CpuMask>,
}

impl OnLastCpu {
    pub fn pin() -> OnLastCpu {
        let previous = affinity();
        if let Some((_, last)) = previous.as_ref().and_then(split_last) {
            set_affinity(&last);
        }
        OnLastCpu { previous }
    }
}

impl Drop for OnLastCpu {
    fn drop(&mut self) {
        if let Some(mask) = &self.previous {
            set_affinity(mask);
        }
    }
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to all CPUs but the last (which [`OnLastCpu`] takes).
pub fn leave_last_cpu() {
    if let Some((rest, _)) = affinity().as_ref().and_then(split_last) {
        set_affinity(&rest);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn file_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// 1-minute load average, read when the run starts: a loaded host makes
/// the timings someone else's.
pub fn load_average_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

pub fn stamps() -> Value {
    Value::obj([
        ("nproc", Value::UInt(nproc() as u64)),
        ("kernel", Value::str(file_line("/proc/sys/kernel/osrelease"))),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        // "unknown" outside a git work tree (the acceptance driver's
        // checkout is a plain directory).
        ("git_commit", Value::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("load_average_1m", load_average_1m().map_or(Value::Null, Value::Float)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_allowed_cpu_is_split_off() {
        let mut mask: CpuMask = [0; 16];
        mask[0] = 0b1100;
        mask[1] = 0b1;
        let (rest, last) = split_last(&mask).expect("three CPUs");
        assert_eq!((rest[0], rest[1]), (0b1100, 0));
        assert_eq!((last[0], last[1]), (0, 0b1));
        let mut one: CpuMask = [0; 16];
        one[0] = 0b10;
        assert!(split_last(&one).is_none());
    }

    #[test]
    fn pinning_is_undone_on_drop() {
        let before = affinity();
        drop(OnLastCpu::pin());
        assert_eq!(affinity(), before);
    }
}
