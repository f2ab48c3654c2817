//! Preallocated tensor scratch for the zero-allocation serving path.
//!
//! [`TensorArena`] owns a pool of recycled `f32` slabs. Hot-path code
//! checks a [`Tensor`] out with [`TensorArena::take`], fills it, and
//! returns the backing storage with [`TensorArena::give`]; once the pool
//! is warm, a take/give cycle touches no allocator. The arena counts the
//! heap-growth events it *does* perform ([`TensorArena::heap_allocs`]),
//! which is how `ablation_serve` proves the steady state allocates
//! nothing, and mirrors its gauges to `trident-obs`
//! (`ArenaBytesInUse` / `ArenaHighWater` / `HotPathAllocs`) when tracing
//! is enabled.
//!
//! ## Lifecycle
//!
//! ```text
//!   with_capacity ──▶ [ free slabs ] ──take──▶ Tensor (checked out)
//!                        ▲                          │
//!                        └──────────give────────────┘
//!                     reset(): generation += 1, assert live == 0
//! ```
//!
//! Checked-out buffers are *owned* `Tensor`s (their storage moves out of
//! the pool), so aliasing a slab from two call sites is impossible by
//! construction — the double-checkout hazard of pointer-based arenas
//! can't be expressed. What remains detectable is an imbalance: debug
//! builds assert that every take is matched by a give before
//! [`TensorArena::reset`], and that give is never called on an empty
//! checkout ledger (returning a foreign tensor).

use crate::tensor::Tensor;
use trident_obs as obs;

/// A recycling scratch allocator for [`Tensor`]s of mixed shapes.
///
/// Slabs are handed out most-recently-returned first (LIFO), which in the
/// steady state of a serving loop — same shapes in the same order every
/// batch — reuses each buffer at full capacity and never grows.
#[derive(Debug, Default)]
pub struct TensorArena {
    /// Recycled backing buffers, capacity preserved across cycles.
    free: Vec<Vec<f32>>,
    /// Tensors currently checked out (takes minus gives).
    live: usize,
    /// Bumped by [`TensorArena::reset`]; steady-state loops reset once
    /// per batch so leak imbalances surface at a batch boundary.
    generation: u64,
    /// Bytes currently checked out.
    bytes_in_use: usize,
    /// Maximum of `bytes_in_use` over the arena's lifetime.
    high_water: usize,
    /// Heap-growth events: a take that found no recycled slab, or one
    /// whose slab had to grow. Zero after warm-up is the zero-alloc
    /// claim.
    heap_allocs: u64,
}

impl TensorArena {
    /// An empty arena; every early take is a counted heap allocation.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-seeded with `slabs` buffers of `elems` elements each.
    /// Construction-time growth is warm-up, not hot-path debt, so it is
    /// not counted in [`TensorArena::heap_allocs`].
    pub fn with_capacity(slabs: usize, elems: usize) -> Self {
        let mut arena = Self::new();
        arena.reserve(slabs, elems);
        arena
    }

    /// Grow the free pool to at least `slabs` buffers of at least `elems`
    /// elements each, without counting the growth as hot-path debt.
    /// Fleet builders call this once per replica at build time.
    pub fn reserve(&mut self, slabs: usize, elems: usize) {
        for slab in &mut self.free {
            if slab.capacity() < elems {
                slab.reserve(elems - slab.len());
            }
        }
        while self.free.len() < slabs {
            self.free.push(Vec::with_capacity(elems));
        }
    }

    /// Check a zero-filled tensor of `shape` out of the arena.
    pub fn take(&mut self, shape: &[usize]) -> Tensor {
        let len: usize = shape.iter().product();
        let mut slab = self.free.pop().unwrap_or_default();
        // Whether the slab is brand new or a recycled one that has to
        // grow, any capacity change is one heap event.
        let had = slab.capacity();
        slab.clear();
        slab.resize(len, 0.0);
        if slab.capacity() > had {
            self.count_heap_alloc();
        }
        self.live += 1;
        self.bytes_in_use += len * std::mem::size_of::<f32>();
        if self.bytes_in_use > self.high_water {
            self.high_water = self.bytes_in_use;
        }
        obs::store(obs::Counter::ArenaBytesInUse, self.bytes_in_use as u64);
        obs::store_max(obs::Counter::ArenaHighWater, self.high_water as u64);
        Tensor::from_vec(shape, slab)
    }

    /// Return a tensor's backing storage to the pool.
    pub fn give(&mut self, t: Tensor) {
        debug_assert!(self.live > 0, "arena give without a matching take");
        self.live = self.live.saturating_sub(1);
        let bytes = t.len() * std::mem::size_of::<f32>();
        self.bytes_in_use = self.bytes_in_use.saturating_sub(bytes);
        obs::store(obs::Counter::ArenaBytesInUse, self.bytes_in_use as u64);
        self.free.push(t.into_vec());
    }

    /// End a generation: assert (debug builds) that every checkout was
    /// returned, then bump the generation counter. Steady-state loops
    /// call this once per batch.
    pub fn reset(&mut self) {
        debug_assert_eq!(
            self.live, 0,
            "arena reset with {} tensor(s) still checked out",
            self.live
        );
        self.generation += 1;
    }

    fn count_heap_alloc(&mut self) {
        self.heap_allocs += 1;
        obs::add(obs::Counter::HotPathAllocs, 1);
    }

    /// Bytes currently checked out.
    pub fn bytes_in_use(&self) -> usize {
        self.bytes_in_use
    }

    /// Lifetime maximum of [`TensorArena::bytes_in_use`]. Two identical
    /// consecutive batches must leave this unchanged (the reuse
    /// invariant pinned by the arena proptests).
    pub fn high_water_bytes(&self) -> usize {
        self.high_water
    }

    /// Heap-growth events since construction (see the type docs).
    pub fn heap_allocs(&self) -> u64 {
        self.heap_allocs
    }

    /// Tensors currently checked out.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Completed generations (reset count).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_cycle_reuses_capacity() {
        let mut arena = TensorArena::new();
        let t = arena.take(&[4, 8]);
        assert_eq!(t.shape(), &[4, 8]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        let cold_allocs = arena.heap_allocs();
        assert!(cold_allocs >= 1, "cold take must count its allocation");
        arena.give(t);
        arena.reset();
        // Steady state: same shape cycles allocate nothing further.
        for _ in 0..16 {
            let t = arena.take(&[4, 8]);
            arena.give(t);
            arena.reset();
        }
        assert_eq!(arena.heap_allocs(), cold_allocs);
        assert_eq!(arena.generation(), 17);
    }

    #[test]
    fn warmed_arena_counts_zero_hot_path_allocs() {
        let mut arena = TensorArena::with_capacity(3, 64);
        assert_eq!(arena.heap_allocs(), 0, "warm-up growth is not hot-path debt");
        let a = arena.take(&[8, 8]);
        let b = arena.take(&[2, 5]);
        let c = arena.take(&[64]);
        assert_eq!(arena.heap_allocs(), 0);
        assert_eq!(arena.live(), 3);
        arena.give(c);
        arena.give(b);
        arena.give(a);
        arena.reset();
        assert_eq!(arena.bytes_in_use(), 0);
    }

    #[test]
    fn high_water_is_stable_across_identical_batches() {
        let mut arena = TensorArena::with_capacity(2, 128);
        let run_batch = |arena: &mut TensorArena| {
            let x = arena.take(&[4, 16]);
            let y = arena.take(&[4, 10]);
            arena.give(x);
            arena.give(y);
            arena.reset();
            arena.high_water_bytes()
        };
        let first = run_batch(&mut arena);
        let second = run_batch(&mut arena);
        assert_eq!(first, second, "identical batches must reuse the high-water mark");
        assert_eq!(first, (4 * 16 + 4 * 10) * 4);
    }

    #[test]
    fn gauges_track_bytes() {
        let mut arena = TensorArena::with_capacity(1, 16);
        let t = arena.take(&[2, 2]);
        assert_eq!(arena.bytes_in_use(), 16);
        assert_eq!(arena.high_water_bytes(), 16);
        arena.give(t);
        assert_eq!(arena.bytes_in_use(), 0);
        assert_eq!(arena.high_water_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "still checked out")]
    #[cfg(debug_assertions)]
    fn reset_with_live_tensor_panics_in_debug() {
        let mut arena = TensorArena::new();
        let _t = arena.take(&[2]);
        arena.reset();
    }
}
