#include "abft.hpp"

namespace finch::rt {

BlockChecksum block_checksum(std::span<const double> data) {
  BlockChecksum c;
  for (double v : data) c.fold(v);
  return c;
}

BlockLedger::BlockLedger(size_t n, size_t block_size)
    : n_(n), block_(block_size == 0 ? (n == 0 ? 1 : n) : block_size) {
  sums_.resize(n_ == 0 ? 0 : (n_ + block_ - 1) / block_);
}

BlockLedger::Range BlockLedger::range(size_t block_index) const {
  Range r;
  r.begin = block_index * block_;
  r.end = r.begin + block_ < n_ ? r.begin + block_ : n_;
  return r;
}

namespace {

// Folds K equal-length blocks side by side, block k starting k * stride
// doubles past `first`: each fold is a long dependent chain, so interleaving
// independent blocks keeps the core busy. Each block's signature still folds
// its own elements in order, bitwise what block_checksum gives.
template <size_t K>
void fold_group(const double* first, size_t stride, size_t len, BlockChecksum* out) {
  BlockChecksum c[K];
  for (size_t i = 0; i < len; ++i)
    for (size_t k = 0; k < K; ++k) c[k].fold(first[k * stride + i]);
  for (size_t k = 0; k < K; ++k) out[k] = c[k];
}

// Signatures of every block of `data` into `out` (one per block): full
// blocks four at a time (a last group of one to three full blocks takes the
// same path), then the ragged last block alone.
void fold_blocks(std::span<const double> data, size_t block, BlockChecksum* out) {
  const size_t nfull = data.size() / block;
  size_t b = 0;
  for (; b + 4 <= nfull; b += 4) fold_group<4>(data.data() + b * block, block, block, out + b);
  switch (nfull - b) {
    case 3: fold_group<3>(data.data() + b * block, block, block, out + b); break;
    case 2: fold_group<2>(data.data() + b * block, block, block, out + b); break;
    case 1: fold_group<1>(data.data() + b * block, block, block, out + b); break;
    default: break;
  }
  if (const size_t rest = data.size() % block; rest != 0)
    fold_group<1>(data.data() + nfull * block, block, rest, out + nfull);
}

}  // namespace

void BlockLedger::update(std::span<const double> data) {
  fold_blocks(data.first(n_), block_, sums_.data());
}

void BlockLedger::update_block(size_t block_index, std::span<const double> data) {
  const Range r = range(block_index);
  sums_[block_index] = block_checksum(data.subspan(r.begin, r.end - r.begin));
}

std::vector<size_t> BlockLedger::verify(std::span<const double> data) const {
  std::vector<BlockChecksum> now(sums_.size());
  fold_blocks(data.first(n_), block_, now.data());
  std::vector<size_t> bad;
  for (size_t b = 0; b < sums_.size(); ++b)
    if (!now[b].matches(sums_[b])) bad.push_back(b);
  return bad;
}

}  // namespace finch::rt
