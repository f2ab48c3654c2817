#![allow(clippy::unwrap_used)]
//! Heap allocations of the warmed read and decode paths, counted for
//! real (DESIGN.md §15): a counting global allocator wraps the system
//! one and tallies every `alloc`, `alloc_zeroed` and `realloc` made by
//! the calling thread.
//!
//! The counts are thread-local, so tests running in parallel in this
//! binary cannot leak allocations into each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trident::arch::pe::ProcessingElement;
use trident::arch::transformer::{PhotonicTransformer, TransformerConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` keeps allocations made during thread teardown safe.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn programmed_pe(noise: Option<u64>) -> ProcessingElement {
    let mut pe = ProcessingElement::new(16, 16, noise);
    let w: Vec<f64> = (0..256).map(|i| f64::from(i % 17) / 8.5 - 1.0).collect();
    pe.program(&w);
    pe
}

#[test]
fn the_counter_sees_allocations() {
    let (n, v) = allocations(|| vec![0u8; 64]);
    assert_eq!(n, 1);
    drop(v);
}

#[test]
fn warmed_pe_reads_allocate_nothing() {
    for noise in [None, Some(3)] {
        let mut pe = programmed_pe(noise);
        let unsigned: Vec<f64> = (0..16).map(|i| f64::from(i) / 16.0).collect();
        let signed: Vec<f64> = (0..16).map(|i| (f64::from(i) - 8.0) / 8.0).collect();
        let mut y = [0.0; 16];
        // Warm-up: the first reads settle the bank and create the
        // energy ledger's line items.
        pe.mvm_unsigned_into(&unsigned, &mut y);
        pe.mvm_signed_into(&signed, &mut y);
        for _ in 0..8 {
            let (n, ()) = allocations(|| pe.mvm_unsigned_into(&unsigned, &mut y));
            assert_eq!(n, 0, "mvm_unsigned_into allocated (noise {noise:?})");
            let (n, ()) = allocations(|| pe.mvm_signed_into(&signed, &mut y));
            assert_eq!(n, 0, "mvm_signed_into allocated (noise {noise:?})");
        }
    }
}

#[test]
fn warmed_decode_allocates_only_its_logits() {
    let cfg = TransformerConfig::tiny_gpt();
    let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
    let token = |t: usize| -> Vec<f64> {
        (0..cfg.d_model).map(|j| ((t * 31 + j * 7) % 13) as f64 / 6.5 - 1.0).collect()
    };
    let tokens: Vec<Vec<f64>> = (0..cfg.max_seq).map(token).collect();
    // Warm-up: one pass over the context sizes every scratch buffer,
    // programs each KV tile whole and creates every energy-ledger line
    // item these tokens charge (an activation cell that first fires on
    // token 3 creates its "activation reset" item then).
    for tok in &tokens {
        tx.try_decode_token(tok).unwrap();
    }
    // A reset cache rewrites the KV rows in place.
    tx.reset_cache();
    for tok in &tokens {
        let (n, logits) = allocations(|| tx.try_decode_token(tok).unwrap());
        assert_eq!(logits.len(), cfg.out_dim);
        assert_eq!(n, 1, "a warmed decode step must allocate only its logits");
    }
}
