// Copy-on-write store of flat model states (fleet-scale model dedup).
//
// A fleet of K devices mostly holds *identical* model state: everyone
// starts from the same dispatched init, ring members collapse onto the
// round's aggregate, and broadcast receivers that shared inputs produce
// the same mixed output. The store exploits that by giving every device a
// handle (slab id) into a refcounted set of slabs; devices that share
// state share one slab, and a device materializes a private copy only when
// it is about to be written (training). Resident model memory is therefore
// O(distinct states) — the active cohort plus a handful of aggregates —
// instead of O(K).
//
// Slabs are recycled through a free list, so steady-state rounds reuse
// capacity instead of allocating; `peak_slabs`/`peak_bytes` expose the
// high-water mark the fleet bench reports.
//
// Not thread-safe: the fleet trainer mutates handles only on the
// coordinator thread, and pre-detaches private slabs before parallel
// training writes into their (disjoint) spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hadfl::nn {

class CowStateStore {
 public:
  using SlabId = std::uint32_t;
  static constexpr SlabId kNone = ~SlabId{0};

  /// All slabs hold `state_size`-element float states.
  explicit CowStateStore(std::size_t state_size);

  std::size_t state_size() const { return state_size_; }

  /// Creates a new slab holding a copy of `state` (refcount 1).
  SlabId create(std::span<const float> state);

  /// Creates a zero-filled slab (refcount 1) without the caller having to
  /// materialize a state_size() source buffer — the K-device init path for
  /// optimizer-velocity slabs, which all start at zero and share one slab.
  SlabId create_zeroed();

  /// Adds `count` references to a slab (that many more handles share it).
  void retain(SlabId id, std::uint32_t count = 1);

  /// Drops `count` references; a slab reaching zero is recycled. Dropping
  /// more references than the slab holds throws InvalidArgument.
  void release(SlabId id, std::uint32_t count = 1);

  /// Read-only view of a slab's state.
  std::span<const float> view(SlabId id) const;

  /// Copy-on-write detach: returns a slab holding the same bits that is
  /// safe to write through `mutable_view`. If `id` is exclusively owned it
  /// is returned unchanged; if shared, the refcount drops, and a private
  /// copy (refcount 1) is returned.
  SlabId detach(SlabId id);

  /// Writable view. The slab must be exclusively owned (refcount 1) —
  /// writing a shared slab would silently mutate every device sharing it.
  std::span<float> mutable_view(SlabId id);

  std::uint32_t refcount(SlabId id) const;

  /// Currently live (refcount > 0) slabs / their total float bytes.
  std::size_t live_slabs() const { return live_slabs_; }
  std::size_t live_bytes() const { return live_slabs_ * slab_bytes(); }

  /// High-water marks since construction.
  std::size_t peak_slabs() const { return peak_slabs_; }
  std::size_t peak_bytes() const { return peak_slabs_ * slab_bytes(); }

  /// Bytes one slab occupies.
  std::size_t slab_bytes() const { return state_size_ * sizeof(float); }

 private:
  void check_live(SlabId id) const;

  std::size_t state_size_;
  std::vector<std::vector<float>> slabs_;   ///< slab id -> storage
  std::vector<std::uint32_t> refcounts_;    ///< 0 = free
  std::vector<SlabId> free_list_;
  std::size_t live_slabs_ = 0;
  std::size_t peak_slabs_ = 0;
};

}  // namespace hadfl::nn
