#pragma once
// The runtime's hash functions, one definition each.
//
//   fnv1a64       byte-wise FNV-1a-64: text and small records (manifest and
//                 journal trailers, kernel-cache keys, fault sites, run
//                 config hashes, retry jitter)
//   digest_words  one 64-bit step per 8-byte word: every integrity check of
//                 bulk data (checkpoint images and their field checksums,
//                 ABFT block checksums, the multi-GPU transfer guard)
//   splitmix64    the stateless mixer behind every seeded draw (fault
//                 injection, chaos schedules, svc job streams)
//
// All three are bitwise: NaN payloads, signed zeros and infinities hash
// distinctly. None is cryptographic; the bar is reproducibility on every
// platform, so each value a seeded run or a stored file depends on is a pure
// function of its input bytes.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace finch::rt {

inline constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

// FNV-1a-64 over raw bytes, one step per byte. Passing the previous hash as
// `h` chains several spans into one digest.
inline uint64_t fnv1a64(std::span<const std::byte> bytes, uint64_t h = kFnv1aOffset) {
  for (std::byte b : bytes) {
    h ^= static_cast<uint64_t>(b);
    h *= kFnv1aPrime;
  }
  return h;
}
// The same over the bytes of `text`.
inline uint64_t fnv1a64(std::string_view text, uint64_t h = kFnv1aOffset) {
  return fnv1a64(std::as_bytes(std::span<const char>(text.data(), text.size())), h);
}

inline constexpr uint64_t kWordDigestSeed = 0x6a09e667f3bcc909ULL;

// One step of the word digest: xor the word, multiply by an odd constant,
// xor-shift. For a fixed word each of the three is a bijection of the state,
// and for a fixed state the xor is a bijection of the word: one changed word,
// whatever its bits, always changes every later state.
inline uint64_t digest_step(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9fb21c651e98df25ULL;
  return h ^ (h >> 29);
}

// digest_step over every 8-byte word of `bytes`, a trailing partial word
// zero-padded. Passing the previous digest as `h` chains spans.
inline uint64_t digest_words(std::span<const std::byte> bytes, uint64_t h = kWordDigestSeed) {
  const size_t whole = bytes.size() / 8;
  uint64_t w;
  for (size_t i = 0; i < whole; ++i) {
    std::memcpy(&w, bytes.data() + 8 * i, sizeof w);
    h = digest_step(h, w);
  }
  if (const size_t rest = bytes.size() % 8; rest != 0) {
    w = 0;
    std::memcpy(&w, bytes.data() + 8 * whole, rest);
    h = digest_step(h, w);
  }
  return h;
}

// The word digest of the doubles' bits: a checkpoint field checksum, the
// multi-GPU transfer guard, and the value rt::block_checksum gives.
inline uint64_t checksum_doubles(std::span<const double> data) {
  return digest_words(std::as_bytes(data));
}

// splitmix64's output function: a bijection with full avalanche.
inline uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace finch::rt
