//! The benchmark's global allocator: the system allocator, plus a count
//! of the bytes the process holds through it and the most it ever held.
//!
//! That peak is the program's own memory demand. The process's `VmHWM`
//! is not: glibc raises its mmap threshold after the first large free
//! and then keeps freed buffers in per-thread arenas, so across
//! processes of the same code the high-water mark of join-incache reads
//! either about 165 or about 330 MiB, with at most about 72 MiB live.
//! With the default `AllocPolicy::Portable` every join buffer comes
//! through here; mapped arenas (`MMJOIN_ALLOC`) do not, and show in
//! `alloc.mapped_mib` instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let now = LIVE.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(now, Relaxed);
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// The most bytes the process has held at once, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_buffer() {
        let before = peak_mib();
        let v = vec![1u8; 64 << 20];
        assert!(peak_mib() >= before.max(64.0));
        drop(v);
        let after_drop = LIVE.load(Relaxed) as f64 / (1024.0 * 1024.0);
        assert!(after_drop < peak_mib());
    }
}
