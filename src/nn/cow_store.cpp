#include "nn/cow_store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hadfl::nn {

CowStateStore::CowStateStore(std::size_t state_size)
    : state_size_(state_size) {
  HADFL_CHECK_ARG(state_size_ > 0, "CowStateStore with zero state size");
}

CowStateStore::SlabId CowStateStore::create(std::span<const float> state) {
  HADFL_CHECK_SHAPE(state.size() == state_size_,
                    "CowStateStore::create size mismatch: " << state.size()
                                                            << " vs "
                                                            << state_size_);
  SlabId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<SlabId>(slabs_.size());
    slabs_.emplace_back();
    refcounts_.push_back(0);
  }
  std::vector<float>& slab = slabs_[id];
  slab.resize(state_size_);
  std::copy(state.begin(), state.end(), slab.begin());
  refcounts_[id] = 1;
  ++live_slabs_;
  peak_slabs_ = std::max(peak_slabs_, live_slabs_);
  return id;
}

CowStateStore::SlabId CowStateStore::create_zeroed() {
  SlabId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<SlabId>(slabs_.size());
    slabs_.emplace_back();
    refcounts_.push_back(0);
  }
  std::vector<float>& slab = slabs_[id];
  slab.assign(state_size_, 0.0f);
  refcounts_[id] = 1;
  ++live_slabs_;
  peak_slabs_ = std::max(peak_slabs_, live_slabs_);
  return id;
}

void CowStateStore::retain(SlabId id, std::uint32_t count) {
  check_live(id);
  refcounts_[id] += count;
}

void CowStateStore::release(SlabId id, std::uint32_t count) {
  check_live(id);
  HADFL_CHECK_ARG(count <= refcounts_[id],
                  "CowStateStore: releasing " << count << " references of slab "
                                              << id << " (refcount "
                                              << refcounts_[id] << ")");
  refcounts_[id] -= count;
  if (refcounts_[id] == 0) {
    free_list_.push_back(id);
    --live_slabs_;
  }
}

std::span<const float> CowStateStore::view(SlabId id) const {
  check_live(id);
  return {slabs_[id].data(), state_size_};
}

CowStateStore::SlabId CowStateStore::detach(SlabId id) {
  check_live(id);
  if (refcounts_[id] == 1) return id;
  --refcounts_[id];
  // The source span stays valid across create(): outer-vector growth moves
  // the inner std::vector (its heap buffer pointer is preserved), and the
  // reused free slot can never be `id` itself (its refcount is nonzero).
  return create({slabs_[id].data(), state_size_});
}

std::span<float> CowStateStore::mutable_view(SlabId id) {
  check_live(id);
  HADFL_CHECK_ARG(refcounts_[id] == 1,
                  "mutable_view of shared slab " << id << " (refcount "
                                                 << refcounts_[id] << ")");
  return {slabs_[id].data(), state_size_};
}

std::uint32_t CowStateStore::refcount(SlabId id) const {
  check_live(id);
  return refcounts_[id];
}

void CowStateStore::check_live(SlabId id) const {
  HADFL_CHECK_ARG(id < slabs_.size() && refcounts_[id] > 0,
                  "CowStateStore: slab " << id << " is not live");
}

}  // namespace hadfl::nn
