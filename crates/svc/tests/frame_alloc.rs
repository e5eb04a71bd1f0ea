//! Proof that `read_frame` allocates for the bytes that arrive, not for
//! the length a header claims: a counting global allocator records the
//! peak live heap while a header announcing `MAX_FRAME` is followed by
//! three bytes and EOF. (This binary holds exactly one test so no
//! concurrent test moves the counters.)

use ami_svc::proto::{read_frame, MAX_FRAME};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, ErrorKind};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAllocator;

impl PeakAllocator {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the counters are
// side-effect-only atomics.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new blocks may both be live while the bytes move.
        Self::grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

#[test]
fn a_lying_header_allocates_only_what_arrives() {
    let mut wire = (MAX_FRAME as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(b"abc");
    let mut reader = Cursor::new(wire);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let err = read_frame(&mut reader).unwrap_err();
    let peak = PEAK.load(Ordering::Relaxed) - base;

    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    assert!(
        peak < 1 << 20,
        "reading a 3-byte frame body peaked at {peak} bytes of heap"
    );
}
