//! Proves the zero-allocation claim: after a warm-up pass populates the
//! [`ScratchPad`]'s free lists, steady-state `forward_batch_scratch`
//! performs **zero** heap allocations for every benchmark model, at
//! batch 1 (a single query) and batch 8.
//!
//! The proof uses a counting `#[global_allocator]` wrapping the system
//! allocator; the whole file is one `#[test]` so the allocator and its
//! thread-local counter are private to this integration-test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lt_dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lt_dnn::{Model, Prediction, ScratchPad, Tensor};

thread_local! {
    // `const` init so reading the counter never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn bump() {
        // `try_with` so allocations during TLS teardown don't panic.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: delegates every operation to `System`; the counter is a
// thread-local side effect that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Once the weight panels are packed and a warm-up batch has sized the
/// pad's buffers and the output vector, serial (`threads = 1`) batched
/// forwards at the same batch size allocate nothing — staging, unfold,
/// packed GEMM, and prediction output all live in recycled storage.
fn assert_steady_state_batch_alloc_free(name: &str, model: &dyn Model, inputs: &[Tensor]) {
    let packed = model.pack_weights();
    let mut pad = ScratchPad::new();
    let mut out: Vec<Prediction> = Vec::new();
    for _ in 0..3 {
        model.forward_batch_scratch(inputs, &packed, &mut pad, &mut out);
    }
    let misses_before = pad.misses();
    let allocs_before = allocations();
    model.forward_batch_scratch(inputs, &packed, &mut pad, &mut out);
    let allocs_after = allocations();
    let misses_after = pad.misses();
    assert_eq!(out.len(), inputs.len(), "{name}: prediction count");
    assert!(
        out.iter().all(|p| p.probs.iter().all(|v| v.is_finite())),
        "{name}: non-finite output"
    );
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "{name}: steady-state forward_batch_scratch allocated"
    );
    assert_eq!(
        misses_after, misses_before,
        "{name}: scratch pad missed in steady state"
    );
}

#[test]
fn steady_state_forward_is_allocation_free() {
    let vanilla = CnnSpec::tiny().build(3);
    let deeplob = DeepLobSpec::tiny().build(3);
    let translob = TransLobSpec::tiny().build(3);
    let batch = |rows: usize, n: u64| -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::random(&[rows, 40], 1.0, 60 + i))
            .collect()
    };
    // A single query is a batch of one.
    assert_steady_state_batch_alloc_free("VanillaCnn", &vanilla, &batch(20, 1));
    assert_steady_state_batch_alloc_free("DeepLob", &deeplob, &batch(24, 1));
    assert_steady_state_batch_alloc_free("TransLob", &translob, &batch(16, 1));

    assert_steady_state_batch_alloc_free("VanillaCnn batch", &vanilla, &batch(20, 8));
    assert_steady_state_batch_alloc_free("DeepLob batch", &deeplob, &batch(24, 8));
    assert_steady_state_batch_alloc_free("TransLob batch", &translob, &batch(16, 8));
}
