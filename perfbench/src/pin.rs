//! CPU affinity for the timed phases: the whole process is moved onto
//! one CPU at a time, and on to the next allowed CPU in turn.
//!
//! On a shared host the CPUs a run is given need not be equally fast: a
//! busy neighbour on one of them slows it 1.3-1.6x, and which one is
//! slow changes every second or so. Unpinned, a single-threaded phase
//! can sit on the slow CPU for a whole run, and the `procs-1k`
//! pipeline's rate follows where its actor threads happen to land each
//! time they wake (on the host the benchmark was built on, its runs read
//! 2 800 or 6 100 ticks/s depending on the placement). Pinned, all
//! threads share one CPU, so a stretch of ticks costs the pipeline's
//! whole CPU work per tick plus same-CPU hand-offs, and visiting every
//! CPU in turn lets the fast-state percentiles ([`crate::stats`]) read
//! the faster one.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Pins the whole process to each CPU it may run on in turn, moving on
/// at most once per `every`.
pub struct Rotation {
    cpus: &'static [usize],
    turns: usize,
    every: Duration,
    last: Option<Instant>,
}

impl Rotation {
    pub fn new(every: Duration) -> Rotation {
        Rotation::over(allowed_cpus(), every)
    }

    fn over(cpus: &'static [usize], every: Duration) -> Rotation {
        Rotation {
            cpus,
            turns: 0,
            every,
            last: None,
        }
    }

    /// Moves the process to the next CPU if `every` has passed since the
    /// last move (or there was none). With one CPU there is nothing to do.
    pub fn turn(&mut self) {
        if let Some(cpu) = self.next_cpu() {
            pin_process(cpu);
        }
    }

    /// The CPU to move to now, if any.
    fn next_cpu(&mut self) -> Option<usize> {
        if self.cpus.len() < 2 || self.last.is_some_and(|t| t.elapsed() < self.every) {
            return None;
        }
        let cpu = self.cpus[self.turns % self.cpus.len()];
        self.turns += 1;
        self.last = Some(Instant::now());
        Some(cpu)
    }
}

/// The CPUs the process was allowed to run on when first asked, before
/// any pinning, in ascending order; empty where affinity is unavailable.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(sys::allowed)
}

/// Moves every thread of the process onto `cpu`. Threads started later
/// inherit the affinity of the thread that starts them. Where affinity is
/// unavailable or a call fails, threads stay where they were: the run is
/// then measured unpinned.
fn pin_process(cpu: usize) {
    sys::pin(cpu)
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1 024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if rc != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut mask: CpuSet = [0; 16];
        // `cpu` comes from `allowed`, so it fits the mask.
        mask[cpu / 64] = 1 << (cpu % 64);
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for tid in tasks
            .flatten()
            .filter_map(|e| e.file_name().to_str()?.parse::<i32>().ok())
        {
            // SAFETY: `mask` is a readable buffer of the size passed.
            unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &mask) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_each_cpu_in_turn() {
        let mut r = Rotation::over(&[0, 3], Duration::ZERO);
        let seq: Vec<_> = (0..5).map(|_| r.next_cpu()).collect();
        assert_eq!(seq, [Some(0), Some(3), Some(0), Some(3), Some(0)]);
        assert_eq!(Rotation::over(&[2], Duration::ZERO).next_cpu(), None);
    }

    #[test]
    fn rotation_waits_between_moves() {
        let mut r = Rotation::over(&[0, 1], Duration::from_secs(3600));
        assert_eq!(r.next_cpu(), Some(0));
        assert_eq!(r.next_cpu(), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn affinity_is_known_on_linux() {
        assert!(!allowed_cpus().is_empty());
    }
}
