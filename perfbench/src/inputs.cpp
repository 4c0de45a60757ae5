#include "inputs.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace perfbench {

namespace {

constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << 48) - 1;

Key uniform_key(std::uint64_t seed, std::size_t i) {
  return static_cast<Key>(mix(seed, i) & kKeyMask);
}

/// Ascending keys with seeded gaps of 0..15, so equal neighbours occur.
std::vector<Key> ascending(std::size_t n, std::uint64_t seed) {
  std::vector<Key> keys(n);
  Key value = static_cast<Key>(mix(seed, 0) & 0xffffff);
  for (std::size_t i = 0; i < n; ++i) {
    value += static_cast<Key>(mix(seed, i + 1) & 15);
    keys[i] = value;
  }
  return keys;
}

std::vector<Key> generate_adversary(std::size_t n) {
  // McIlroy's construction: every value starts as "gas" (larger than
  // any solid value); whenever std::sort compares two gas values, one
  // of them freezes to the next solid value, preferring to freeze the
  // value that is not the current pivot candidate.  The frozen values
  // then form an input on which this std::sort does its worst.
  const Key gas = static_cast<Key>(n);
  std::vector<Key> val(n, gas);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Key solid = 0;
  std::size_t candidate = 0;
  const auto freeze = [&](std::size_t x) { val[x] = solid++; };
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (val[x] == gas && val[y] == gas) {
      if (x == candidate)
        freeze(x);
      else
        freeze(y);
    }
    if (val[x] == gas)
      candidate = x;
    else if (val[y] == gas)
      candidate = y;
    return val[x] < val[y];
  });
  return val;
}

/// McIlroy's adversary for std::sort on `n` keys, cached per size
/// (generation runs one full std::sort).
const std::vector<Key>& mcilroy_adversary(std::size_t n) {
  static std::map<std::size_t, std::vector<Key>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, generate_adversary(n)).first;
  return it->second;
}

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Family family_at(int index) {
  return static_cast<Family>(((index % kFamilyCount) + kFamilyCount) %
                             kFamilyCount);
}

const char* family_name(Family family) {
  switch (family) {
    case Family::kUniform: return "uniform";
    case Family::kFew2: return "few2";
    case Family::kFew16: return "few16";
    case Family::kSorted: return "sorted";
    case Family::kReversed: return "reversed";
    case Family::kOrganPipe: return "organ-pipe";
    case Family::kAdversary: return "adversary";
  }
  return "?";
}

std::vector<Key> make_keys(Family family, std::size_t n, std::uint64_t seed) {
  std::vector<Key> keys(n);
  switch (family) {
    case Family::kUniform:
      for (std::size_t i = 0; i < n; ++i) keys[i] = uniform_key(seed, i);
      break;
    case Family::kFew2:
    case Family::kFew16: {
      const std::uint64_t distinct = family == Family::kFew2 ? 2 : 16;
      std::vector<Key> values(distinct);
      for (std::uint64_t v = 0; v < distinct; ++v)
        values[v] = uniform_key(seed ^ 0xD15C, v);
      for (std::size_t i = 0; i < n; ++i)
        keys[i] = values[mix(seed, i) % distinct];
      break;
    }
    case Family::kSorted:
      keys = ascending(n, seed);
      break;
    case Family::kReversed:
      keys = ascending(n, seed);
      std::reverse(keys.begin(), keys.end());
      break;
    case Family::kOrganPipe: {
      keys = ascending(n, seed);
      std::reverse(keys.begin() + static_cast<std::ptrdiff_t>(n / 2),
                   keys.end());
      break;
    }
    case Family::kAdversary: {
      // The frozen comparison structure is what makes the input hard,
      // so the seed only shifts and scales it (order-preserving).
      const std::vector<Key>& frozen = mcilroy_adversary(n);
      const Key offset = static_cast<Key>(mix(seed, 0xAD) & 0xffffff);
      const Key scale = 1 + static_cast<Key>(mix(seed, 0xAE) % 7);
      for (std::size_t i = 0; i < n; ++i)
        keys[i] = offset + scale * frozen[i];
      break;
    }
  }
  return keys;
}

std::vector<SeqCase> seq_cases() {
  struct Shape {
    NodeId n;
    int r;  ///< exact power N^r
  };
  // 2^16 = 4^8 = 65,536 keys; 8^6 = 262,144 keys (2 MiB of keys).
  const Shape shapes[] = {{2, 16}, {4, 8}, {8, 6}};
  std::vector<SeqCase> cases;
  for (const Shape& s : shapes) {
    std::size_t power = 1;
    for (int i = 0; i < s.r; ++i) power *= static_cast<std::size_t>(s.n);
    const std::size_t lower = power / static_cast<std::size_t>(s.n);
    const std::size_t square =
        static_cast<std::size_t>(s.n) * static_cast<std::size_t>(s.n);
    cases.push_back({s.n, power, Family::kUniform});       // exact power
    cases.push_back({s.n, power - 1, Family::kUniform});   // one sentinel pad
    cases.push_back({s.n, lower + 1, Family::kUniform});   // padded to N^r
    cases.push_back({s.n, square - 1, Family::kUniform});  // std::sort path
  }
  for (std::size_t i = 0; i < cases.size(); ++i)
    cases[i].family = family_at(static_cast<int>(i));
  return cases;
}

std::size_t pad_keys(std::size_t size, NodeId n) {
  const auto radix = static_cast<std::size_t>(n);
  if (size < radix * radix) return 0;
  std::size_t padded = 1;
  while (padded < size) padded *= radix;
  return padded - size;
}

}  // namespace perfbench
