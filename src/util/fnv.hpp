// FNV-1a 64-bit hashing: the one home of the FNV constants and mixing
// steps.  Two variants share them:
//   * byte-wise (fnv1a_mix, fnv1a_mix_value, fnv1a): classic FNV-1a, one
//     xor+multiply per byte.  The admission state fingerprint and the
//     journal record checksums use it; their values are pinned on disk
//     and in tests, so it must stay bit-identical.
//   * word-wise (fnv1a_mix_word): one xor+multiply per 64-bit word.  The
//     metrics::Tracer determinism fingerprint (v2) mixes each trace record
//     as five words with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sda::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Mixes @p len raw bytes into hash @p h.
inline void fnv1a_mix(std::uint64_t& h, const void* data,
                      std::size_t len) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

/// Mixes one 64-bit word into hash @p h in a single FNV-1a step: xor the
/// whole word, then multiply once.  Not equivalent to fnv1a_mix over the
/// word's eight bytes.
inline constexpr void fnv1a_mix_word(std::uint64_t& h,
                                     std::uint64_t w) noexcept {
  h = (h ^ w) * kFnvPrime;
}

/// Mixes a trivially-copyable value's object representation into @p h.
template <typename T>
inline void fnv1a_mix_value(std::uint64_t& h, const T& value) noexcept {
  fnv1a_mix(h, &value, sizeof value);
}

/// One-shot hash of a byte string.
inline std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a_mix(h, s.data(), s.size());
  return h;
}

}  // namespace sda::util
