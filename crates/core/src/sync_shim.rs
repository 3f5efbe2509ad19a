//! Shim over the concurrency primitives used by the kernels.
//!
//! Everything in the crate that touches atomics, spinning or yielding goes
//! through this module instead of `std` directly. In a normal build the
//! re-exports resolve to the `std` types with zero overhead. Under
//! `RUSTFLAGS="--cfg loom"` they resolve to the in-repo `loom` model
//! checker's instrumented equivalents, so `crates/core/tests/loom_models.rs`
//! can exhaustively explore thread interleavings of [`crate::sync::TreeBarrier`],
//! the claim cursor and the mailbox queue under the C11 memory model
//! approximation (sequentially consistent values + vector-clock
//! happens-before tracking).
//!
//! The module also provides [`CachePadded`], a dependency-free replacement
//! for `crossbeam_utils::CachePadded` (the real crate is unavailable in
//! offline builds).

#[cfg(not(loom))]
pub use std::hint::spin_loop;
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::thread::yield_now;

#[cfg(loom)]
pub use loom::hint::spin_loop;
#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom::thread::yield_now;

/// Pads and aligns a value to 128 bytes so that neighbouring values in a
/// `Vec` never share a cache line (128 covers the adjacent-line prefetcher
/// pairing on x86-64 and the 128-byte lines on apple-silicon).
///
/// Drop-in for the subset of `crossbeam_utils::CachePadded` this workspace
/// uses: `new`, `into_inner`, `Deref`/`DerefMut`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Returns the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> core::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> core::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    #[inline]
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let c = CachePadded::new(42u64);
        assert_eq!(core::mem::align_of_val(&c), 128);
        assert!(core::mem::size_of_val(&c) >= 128);
        assert_eq!(*c, 42);
        let mut c = c;
        *c += 1;
        assert_eq!(c.into_inner(), 43);
    }
}
