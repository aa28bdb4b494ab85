//! Exact cost counters: bytes requested from the allocator and the
//! process's peak resident set.
//!
//! Wall-clock on this box is bimodal (README.md, "Measured noise"); the
//! number of bytes a deterministic step requests is not. The counter is a
//! process-wide running total, read before and after each timed region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Running total of bytes requested through `alloc`, `alloc_zeroed` and
/// `realloc` (a `realloc` counts its full new size). A statistic only: it
/// publishes no other data, so `Relaxed` is enough.
static REQUESTED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus the [`REQUESTED_BYTES`] counter.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed atomic
// add that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper with
        // `layout`, and the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested from the allocator since the process started.
pub fn requested_bytes() -> u64 {
    REQUESTED_BYTES.load(Ordering::Relaxed)
}

/// `VmHWM` (peak resident set) of this process in MB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| std::io::Error::other("/proc/self/status has no VmHWM line"))
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut tokens = line["VmHWM:".len()..].split_whitespace();
    let value = tokens.next()?.parse().ok()?;
    (tokens.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_in_kilobytes() {
        let status = "Name:\tebvbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn counter_sees_a_known_allocation() {
        // Other test threads allocate concurrently, so only a lower bound
        // is checkable here; exactness is asserted pass-against-pass by
        // every benchmark run.
        let before = requested_bytes();
        let block = vec![0u8; 1 << 20];
        std::hint::black_box(&block);
        assert!(requested_bytes() - before >= 1 << 20);
    }
}
