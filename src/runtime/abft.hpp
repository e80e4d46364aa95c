#pragma once
// Algorithm-based fault tolerance (ABFT) checksums for silent-data-corruption
// defense.
//
// A bit flip that lands in a device-resident field or an in-flight message
// produces a *finite*, plausible, wrong value — invisible to the NaN/Inf
// guards that catch loud transfer corruption. The defense here is classic
// ABFT: every guarded array is covered by per-block checksums that are cheap
// to maintain incrementally and cheap to verify, so a flip is (a) detected
// within one step and (b) localized to one block, which the solver can then
// recompute from the previous state instead of rolling the whole run back.
//
// A block's signature is the word digest of its doubles' bit patterns
// (rt::digest_words, hash.hpp: the digest checkpoint images and the
// multi-GPU transfer guard use too). Comparison is of bits, not values, so
// -0.0 vs 0.0 and a changed NaN payload are caught like any other change.
// For a fixed word each digest step is a bijection of the state, so one
// changed element — one bit or many — always changes its block's
// signature. Everything is integer based, so verification is exact: no
// tolerance tuning, no false accepts.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "hash.hpp"

namespace finch::rt {

// Kahan (compensated) summation: a deterministic running sum far more
// accurate than naive accumulation, so the distributed solvers' total
// energy can serve as a per-step energy-balance tripwire.
struct KahanSum {
  double sum = 0.0;
  double comp = 0.0;

  void add(double x) {
    const double y = x - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
};

// Signature of one block: the word digest of its doubles and their count.
// block_checksum(x).digest equals checksum_doubles(x).
struct BlockChecksum {
  uint64_t digest = kWordDigestSeed;
  uint64_t count = 0;

  void fold(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    digest = digest_step(digest, bits);
    ++count;
  }

  bool matches(const BlockChecksum& other) const {
    return digest == other.digest && count == other.count;
  }
};

// Checksum of a whole span in one pass — the sidecar BspSimulator::transmit
// attaches to a message, verified on receipt.
BlockChecksum block_checksum(std::span<const double> data);

// Per-block checksum ledger over a flat array of n doubles, split into
// fixed-size blocks (the last one ragged). The owner refreshes blocks after
// writing them (update / update_block) and verifies the stored signatures
// against the array's current contents; a mismatch localizes corruption to a
// block index whose [begin, end) range the solver can recompute.
class BlockLedger {
 public:
  BlockLedger() = default;
  BlockLedger(size_t n, size_t block_size);

  size_t size() const { return n_; }
  size_t block_size() const { return block_; }
  size_t num_blocks() const { return sums_.size(); }

  struct Range {
    size_t begin = 0;
    size_t end = 0;
  };
  Range range(size_t block_index) const;
  size_t block_of(size_t element_index) const {
    return block_ == 0 ? 0 : element_index / block_;
  }

  // Recompute the stored signature of every block / one block from `data`
  // (which must view the full n-element array).
  void update(std::span<const double> data);
  void update_block(size_t block_index, std::span<const double> data);

  // Compare `data` against the stored signatures; returns the indices of the
  // blocks that no longer match (empty == clean).
  std::vector<size_t> verify(std::span<const double> data) const;

  const BlockChecksum& checksum(size_t block_index) const { return sums_[block_index]; }

 private:
  size_t n_ = 0;
  size_t block_ = 0;
  std::vector<BlockChecksum> sums_;
};

}  // namespace finch::rt
