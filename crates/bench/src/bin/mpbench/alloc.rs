//! The counting global allocator behind `alloc.*` and `peak_heap_mib`.
//!
//! Counting is gated by one relaxed flag: while it is off (every timed
//! repetition) an allocation pays a load and a predictable branch on
//! top of the system allocator; while it is on (the one *counted*
//! repetition per workload) it also pays four relaxed read-modify-write
//! operations, which is why counted repetitions are never timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// Statistics only — none of these publishes other data, so `Relaxed`
// is enough everywhere.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment counting was switched on. Signed:
/// memory allocated before the switch may be freed after it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// `System`, plus counters while counting is on.
pub struct Counting;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Relaxed) && !p.is_null() {
            // One allocation event; only the growth is new live memory.
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// What one counted interval saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// High-water mark of live bytes, relative to the interval's start.
    pub peak_live: u64,
}

/// Runs `f` with counting on and returns what it allocated. Intervals
/// must not overlap: the counters are process-wide.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let r = f();
    ON.store(false, Relaxed);
    let stats = AllocStats {
        count: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    };
    (r, stats)
}
