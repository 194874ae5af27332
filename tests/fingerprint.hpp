// fingerprint.hpp — the FNV-1a hash behind the suite's pinned values.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

namespace hg {

/// FNV-1a over 64-bit words, low byte first. Text is mixed one character
/// per word, so a pinned hash never depends on the host's char signedness.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void bits(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  /// Each float's 32-bit pattern, one word per element.
  void floats(std::span<const float> v) {
    for (const float x : v) word(std::bit_cast<std::uint32_t>(x));
  }
  void text(std::string_view s) {
    for (const char ch : s) word(static_cast<unsigned char>(ch));
  }
};

/// FNV of a trained model's state: every weight, then every BatchNorm
/// running mean and variance, each in the model's own order.
template <typename ModelT>
std::uint64_t trained_state_hash(const ModelT& model) {
  Fnv1a h;
  for (const auto& p : model.parameters()) h.floats(p.data());
  for (const auto* bn : model.batch_norms()) {
    h.floats(bn->running_mean());
    h.floats(bn->running_var());
  }
  return h.h;
}

}  // namespace hg
