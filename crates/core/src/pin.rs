//! Deterministic worker→core pinning for the round-based kernels.
//!
//! Scheduling placement is the third axis of the per-round overhead work
//! (DESIGN.md §4.9): once the barrier path is cache-padded, the remaining
//! variance comes from the OS migrating workers across cores between
//! rounds, which cold-starts the per-worker working set (the claim
//! cursor, barrier nodes and the LP state a worker touches). [`PinPolicy::Compact`] pins worker `w` to core
//! `w % cores` — a pure placement hint with **no effect on simulation
//! results**: digests are a function of event keys only, and pinning
//! never reorders event execution (the determinism argument is the same
//! as for thread count: results are identical for any worker placement).
//!
//! Pinning is best-effort: on platforms without an implementation (or
//! when the syscall fails, e.g. under a restricted cpuset) the worker
//! simply runs unpinned. Default is [`PinPolicy::Off`].

/// Worker→core placement policy (`RunConfig::with_pinning`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PinPolicy {
    /// No pinning; the OS places workers freely (the default).
    #[default]
    Off,
    /// Pin worker `w` to core `w % available_cores`: workers of the same
    /// kernel pack onto distinct cores in worker order, so barrier
    /// neighbors (consecutive worker ids share a [`crate::sync::TreeBarrier`]
    /// leaf) land on nearby cores.
    Compact,
}

impl PinPolicy {
    /// The core the policy assigns to `worker` out of `cores`, or `None`
    /// when the policy does not pin.
    pub fn core_for(&self, worker: usize, cores: usize) -> Option<usize> {
        match self {
            PinPolicy::Off => None,
            PinPolicy::Compact => {
                if cores == 0 {
                    None
                } else {
                    Some(worker % cores)
                }
            }
        }
    }

    /// Applies the policy to the calling thread (worker id `worker`).
    /// Returns whether a pin was actually installed — `false` for
    /// [`PinPolicy::Off`], unsupported platforms, or a refused syscall.
    pub fn apply(&self, worker: usize) -> bool {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match self.core_for(worker, cores) {
            Some(core) => pin_current_thread(core),
            None => false,
        }
    }
}

/// Pins the calling thread to `cpu`. Best-effort: returns `false` when the
/// platform has no implementation or the kernel refuses the mask.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(cpu: usize) -> bool {
    // Raw `sched_setaffinity(0, len, mask)` — the workspace deliberately
    // has no libc dependency, and the syscall is stable ABI.
    const SYS_SCHED_SETAFFINITY: usize = 203;
    const BITS: usize = usize::BITS as usize;
    let mut mask = [0usize; 16]; // up to 1024 CPUs
    if cpu >= mask.len() * BITS {
        return false;
    }
    mask[cpu / BITS] = 1usize << (cpu % BITS);
    let ret: isize;
    // SAFETY: `sched_setaffinity` reads `len` bytes from the mask pointer
    // and touches no other memory; the mask array outlives the call, pid 0
    // means the calling thread, and the asm clobbers only the registers the
    // Linux x86_64 syscall ABI documents (rax, rcx, r11).
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY as isize => ret,
            in("rdi") 0usize,
            in("rsi") core::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret == 0
}

/// Pins the calling thread to `cpu`. No-op stub on platforms without an
/// implementation (always returns `false`).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_never_assigns_a_core() {
        assert_eq!(PinPolicy::Off.core_for(0, 8), None);
        assert_eq!(PinPolicy::Off.core_for(5, 8), None);
        assert!(!PinPolicy::Off.apply(0));
    }

    #[test]
    fn compact_wraps_worker_over_cores() {
        let p = PinPolicy::Compact;
        assert_eq!(p.core_for(0, 4), Some(0));
        assert_eq!(p.core_for(3, 4), Some(3));
        assert_eq!(p.core_for(4, 4), Some(0));
        assert_eq!(p.core_for(9, 4), Some(1));
        assert_eq!(p.core_for(0, 0), None);
    }

    #[test]
    fn apply_compact_is_best_effort() {
        // Must not panic anywhere; on linux/x86_64 pinning to core 0 of
        // the calling thread should generally succeed.
        let _ = PinPolicy::Compact.apply(0);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn out_of_range_cpu_is_refused() {
        assert!(!pin_current_thread(1 << 20));
    }
}
