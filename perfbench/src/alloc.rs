//! A counting global allocator: live heap bytes and their peak.
//!
//! Every method forwards to [`System`]; the counters are two relaxed atomics
//! (they publish no other data).  The benchmark is single-threaded, so the
//! peak is exact rather than approximate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

pub struct CountingAllocator;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: i64) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards to `System` with unchanged arguments; the
// added relaxed counter updates cannot affect the allocator contract.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }
    // SAFETY: forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: forwarded verbatim to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
}

/// Live heap bytes right now.
pub fn live() -> i64 {
    LIVE.load(Relaxed)
}

/// Highest live heap bytes since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(live(), Relaxed);
}

/// Bytes to MiB.
pub fn mb(bytes: i64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}
