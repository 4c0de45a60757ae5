#include "core/fast_sequence_sort.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "core/sequence_sort.hpp"  // power_arity
#include "product/gray_code.hpp"   // pow_int

namespace prodsort {

namespace {

// ---------------------------------------------------------------------------
// Block kernels.  A block holds B = N^2 keys; every kernel leaves it
// ascending, with a worst case of O(B log B).

struct Run {
  const Key* begin;
  std::int64_t size;
};

// Every select below is a masked XOR: gcc turns std::min/std::max and
// ?: on keys into data-dependent branches, which mispredict on unsorted
// keys.
void compare_exchange(Key& a, Key& b) {
  const Key flip = (a ^ b) & -static_cast<Key>(b < a);
  a ^= flip;
  b ^= flip;
}

// Branch-free two-way merge of two sorted runs into `out`.
Key* merge2(Run a, Run b, Key* out) {
  const Key* pa = a.begin;
  const Key* pb = b.begin;
  const Key* const ea = pa + a.size;
  const Key* const eb = pb + b.size;
  while (pa != ea && pb != eb) {
    const Key x = *pa;
    const Key y = *pb;
    const Key take_b = y < x;
    *out++ = x ^ ((x ^ y) & -take_b);
    pa += 1 - take_b;
    pb += take_b;
  }
  out = std::copy(pa, ea, out);
  return std::copy(pb, eb, out);
}

// Quadsort's parity merge of two sorted runs of equal length n into
// out: n steps from the front, each taking the smaller head, and n from
// the back, each taking the larger tail.  The two chains are
// independent, and with equal lengths neither can run off its runs, so
// no step checks a bound.
Key* parity_merge(const Key* a, const Key* b, std::int64_t n, Key* out) {
  // Indices, not pointers: a finished tail may step to -1.
  std::int64_t head_a = 0;
  std::int64_t head_b = 0;
  std::int64_t tail_a = n - 1;
  std::int64_t tail_b = n - 1;
  for (std::int64_t k = 0; k < n; ++k) {
    const Key x = a[head_a];
    const Key y = b[head_b];
    const Key take_b = y < x;  // ties take a at the front ...
    out[k] = x ^ ((x ^ y) & -take_b);
    head_a += 1 - take_b;
    head_b += take_b;
    const Key u = a[tail_a];
    const Key v = b[tail_b];
    const Key take_a = v < u;  // ... and b at the back
    out[2 * n - 1 - k] = v ^ ((u ^ v) & -take_a);
    tail_a -= take_a;
    tail_b -= 1 - take_a;
  }
  return out + 2 * n;
}

// Merges `count` sorted runs into `dst`, pairwise, one level at a time.
// Levels alternate between `tmp` and `dst` so that the last lands in
// `dst`; the runs must overlap neither.  Rewrites `runs`.
void merge_runs(Run* runs, std::int64_t count, Key* dst, Key* tmp) {
  int levels = 0;
  for (std::int64_t c = count; c > 1; c = (c + 1) / 2) ++levels;
  Key* target = levels % 2 == 0 && levels > 0 ? tmp : dst;
  do {
    Key* out = target;
    std::int64_t merged = 0;
    for (std::int64_t i = 0; i < count; i += 2) {
      Key* const start = out;
      const Run a = runs[i];
      if (i + 1 == count)
        out = std::copy(a.begin, a.begin + a.size, out);
      else if (runs[i + 1].size == a.size)
        out = parity_merge(a.begin, runs[i + 1].begin, a.size, out);
      else
        out = merge2(a, runs[i + 1], out);
      runs[merged++] = Run{start, out - start};
    }
    count = merged;
    target = target == dst ? tmp : dst;
  } while (count > 1);
}

// The N = 2 block kernels: fixed 4-key networks.
void sort4(Key* b) {
  Key a0 = b[0], a1 = b[1], a2 = b[2], a3 = b[3];
  compare_exchange(a0, a1);
  compare_exchange(a2, a3);
  compare_exchange(a0, a2);
  compare_exchange(a1, a3);
  compare_exchange(a1, a2);
  b[0] = a0, b[1] = a1, b[2] = a2, b[3] = a3;
}

// Batcher's merge of the sorted pairs (a0, a1) and (b0, b1) into out.
void merge22(Key a0, Key a1, Key b0, Key b1, Key* out) {
  compare_exchange(a0, b0);
  compare_exchange(a1, b1);
  compare_exchange(b0, a1);
  out[0] = a0, out[1] = b0, out[2] = a1, out[3] = b1;
}

// Per-part working space: two B-key tiles and a run list.
struct Tile {
  std::vector<Key> tmp;
  std::vector<Key> spare;
  std::vector<Run> runs;
};

// Sorts a block of arbitrary keys (the sorts before the first merge
// level): sorts 4-key pieces with the network, then merges them.
void sort_unordered_block(Key* block, std::int64_t size, Tile& tile) {
  Key* const spare = tile.spare.data();
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < size; i += 4) {
    const std::int64_t len = std::min<std::int64_t>(4, size - i);
    std::copy(block + i, block + i + len, spare + i);
    if (len == 4)
      sort4(spare + i);
    else
      std::sort(spare + i, spare + i + len);
    tile.runs[static_cast<std::size_t>(count++)] = Run{spare + i, len};
  }
  merge_runs(tile.runs.data(), count, block, tile.tmp.data());
}

// Step 4's odd-even transposition step between a lower and an upper
// block, both stored ascending: position t of one pairs with position
// B-1-t of the other (see the header), minimum kept low.
void transpose_blocks(Key* low, Key* high, std::int64_t size) {
  for (std::int64_t t = 0; t < size; ++t) {
    Key a = low[t];
    Key b = high[size - 1 - t];
    compare_exchange(a, b);
    low[t] = a;
    high[size - 1 - t] = b;
  }
}

// Pass kernels.  Each runs one pass over the units [begin, end); a unit
// is addressed as (segment s, index j).  Sizes are by-value parameters
// so the hot loops keep them in registers across their key stores.
// kN = 2 compiles the fixed 4-key networks; kN = 0 reads N at run time.

// Step 4's second block sort.  By then a block holds a few long runs
// and is often sorted already (71% of blocks at N = 4, 37% at N = 8 on
// uniform keys): std::sort's insertion sort beats merging the runs
// there, and its worst case is O(B log B).
template <std::int64_t kN>
void sort_cleaned_block(Key* block, std::int64_t size) {
  if constexpr (kN == 2)
    sort4(block);
  else if (!std::is_sorted(block, block + size))
    std::sort(block, block + size);
}

// Step 1 on segments of `seg` keys; one unit per A_u (m = seg/N keys,
// an (m/N) x N snake).  Column v of A_u becomes B_{u,v}, the u-th run of
// column C_v's input.  Reads are row-contiguous.
template <std::int64_t kN>
void descend_units(const Key* src, Key* dst, std::int64_t n_arg,
                   std::int64_t seg, std::int64_t begin, std::int64_t end) {
  const std::int64_t n = kN != 0 ? kN : n_arg;
  const std::int64_t m = seg / n;
  const std::int64_t rows = m / n;
  std::int64_t s = begin / n;
  std::int64_t u = begin % n;
  for (std::int64_t unit = begin; unit < end; ++unit) {
    const Key* row = src + unit * m;
    Key* out = dst + s * seg + u * rows;
    if constexpr (kN == 2) {
      for (std::int64_t i = 0; i < rows; i += 2, row += 4) {
        out[i] = row[0];
        out[m + i] = row[1];
        out[i + 1] = row[3];
        out[m + i + 1] = row[2];
      }
    } else {
      for (std::int64_t i = 0; i < rows; ++i, row += n) {
        if (i % 2 == 0)
          for (std::int64_t v = 0; v < n; ++v) out[v * m + i] = row[v];
        else
          for (std::int64_t v = 0; v < n; ++v) out[v * m + i] = row[n - 1 - v];
      }
    }
    if (++u == n) {
      u = 0;
      ++s;
    }
  }
}

// Step 1 on N^3-key segments fused with the base case; one unit per
// column.  Column v's N runs B_{u,v} (N keys each) are read straight
// from the snake and merged into C_v.
template <std::int64_t kN>
void base_units(const Key* src, Key* dst, std::int64_t n_arg,
                std::int64_t begin, std::int64_t end, Tile& tile) {
  const std::int64_t n = kN != 0 ? kN : n_arg;
  const std::int64_t b = n * n;
  Key* const spare = tile.spare.data();
  Run* const runs = tile.runs.data();
  std::int64_t s = begin / n;
  std::int64_t v = begin % n;
  for (std::int64_t unit = begin; unit < end; ++unit) {
    const Key* seg = src + s * n * b;
    Key* out = dst + unit * b;
    if constexpr (kN == 2) {
      merge22(seg[v], seg[3 - v], seg[4 + v], seg[7 - v], out);
    } else {
      for (std::int64_t u = 0; u < n; ++u) {
        const Key* a = seg + u * b;
        for (std::int64_t i = 0; i < n; ++i)
          spare[u * n + i] = a[i * n + (i % 2 == 0 ? v : n - 1 - v)];
        runs[u] = Run{spare + u * n, n};
      }
      merge_runs(runs, n, out, tile.tmp.data());
    }
    if (++v == n) {
      v = 0;
      ++s;
    }
  }
}

// The parity-1 transposition step on blocks (2j-1, 2j) of a segment
// and the second sort of both, which leaves them final.
template <std::int64_t kN>
void finish_pair(Key* first, std::int64_t j, std::int64_t b) {
  Key* const low = first + (2 * j - 1) * b;
  transpose_blocks(low, low + b, b);
  sort_cleaned_block<kN>(low, b);
  sort_cleaned_block<kN>(low + b, b);
}

// Steps 3 and 4 on segments of `seg` keys, whose N columns C_v (m keys
// each) are merged; one unit per block pair (2j, 2j+1).  Block z of D
// holds C_v[zN, zN+N) for every v, N sorted runs, so Step 3 and the
// first block sort are one N-way merge from the columns and the
// interleave is never written out.  The unit then runs the parity-0
// transposition step between its blocks and finishes the pair
// (2j-1, 2j), except as the first unit of a range: block 2j-1 belongs to
// the range before, so that pair is left to the seam pass in ascend().
template <std::int64_t kN>
void ascend_units(const Key* src, Key* dst, std::int64_t n_arg,
                  std::int64_t seg, std::int64_t begin, std::int64_t end,
                  Tile& tile) {
  const std::int64_t n = kN != 0 ? kN : n_arg;
  const std::int64_t b = n * n;
  const std::int64_t m = seg / n;
  const std::int64_t blocks = seg / b;
  const std::int64_t per = (blocks + 1) / 2;
  Run* const runs = tile.runs.data();
  std::int64_t s = begin / per;
  std::int64_t j = begin % per;
  for (std::int64_t unit = begin; unit < end; ++unit) {
    Key* const first = dst + s * seg;
    const std::int64_t z_end = std::min(2 * j + 2, blocks);
    for (std::int64_t z = 2 * j; z < z_end; ++z) {
      const Key* col = src + s * seg + z * n;
      if constexpr (kN == 2) {
        merge22(col[0], col[1], col[m], col[m + 1], first + z * b);
      } else {
        for (std::int64_t v = 0; v < n; ++v) runs[v] = Run{col + v * m, n};
        merge_runs(runs, n, first + z * b, tile.tmp.data());
      }
    }
    const bool full = z_end - 2 * j == 2;
    if (full) transpose_blocks(first + 2 * j * b, first + (2 * j + 1) * b, b);
    if (j == 0)
      sort_cleaned_block<kN>(first, b);  // no parity-1 partner
    else if (unit != begin)
      finish_pair<kN>(first, j, b);
    if (full && j + 1 == per)  // the last block, with no parity-1 partner
      sort_cleaned_block<kN>(first + (2 * j + 1) * b, b);
    if (++j == per) {
      j = 0;
      ++s;
    }
  }
}

// ---------------------------------------------------------------------------
// The level-synchronous engine (see fast_sequence_sort.hpp).  Data at
// recursion depth d of a level lives in buf_[d % 2]: keys at even
// depths, scratch at odd ones.

class LevelEngine {
 public:
  LevelEngine(std::vector<Key>& keys, std::int64_t n, std::int64_t real,
              ParallelExecutor* exec)
      : n_(n),
        block_(n * n),
        total_(static_cast<std::int64_t>(keys.size())),
        real_(real),
        exec_(exec),
        scratch_(keys.size()) {
    buf_[0] = keys.data();
    buf_[1] = scratch_.data();
    // Twice the thread count, so parallel_for splits every pass.
    const int parts = exec == nullptr ? 1 : 2 * exec->num_threads();
    tiles_.resize(static_cast<std::size_t>(parts));
    for (Tile& tile : tiles_) {
      tile.tmp.resize(static_cast<std::size_t>(block_));
      tile.spare.resize(static_cast<std::size_t>(block_));
      tile.runs.resize(static_cast<std::size_t>(block_ / 2 + 1));
    }
  }

  void run(int r) {
    sort_initial_blocks(active(block_));
    for (int k = 3; k <= r; ++k) {
      const std::int64_t group = pow_int(n_, k);
      const std::int64_t act = active(group);
      const int base = k - 2;  // depth whose segments hold N^2 keys
      std::int64_t seg = group;
      for (int d = 0; d + 1 < base; ++d, seg /= n_)
        descend(buf_[d % 2], buf_[(d + 1) % 2], seg, act);
      sort_columns(buf_[(base - 1) % 2], buf_[base % 2], act);
      for (int d = base - 1; d >= 0; --d, seg *= n_)
        ascend(buf_[(d + 1) % 2], buf_[d % 2], seg, act);
    }
  }

 private:
  // Keys [0, active(group)) cover every group that holds a real key;
  // the groups after it lie wholly in the sentinel pad and stay as they
  // are (position-based, so a real Key-max key is never skipped).
  [[nodiscard]] std::int64_t active(std::int64_t group) const {
    return std::min(total_, (real_ + group - 1) / group * group);
  }

  // Runs body(begin, end, tile) over a partition of [0, units) into
  // tiles_.size() ranges: one parallel_for with an executor (never
  // nested), one call without.
  template <typename Body>
  void pass(std::int64_t units, const Body& body) {
    if (!split(units)) {
      body(std::int64_t{0}, units, tiles_.front());
      return;
    }
    const auto parts = static_cast<std::int64_t>(tiles_.size());
    exec_->parallel_for(parts, [&](std::int64_t p_begin, std::int64_t p_end) {
      for (std::int64_t p = p_begin; p < p_end; ++p)
        body(range_begin(units, p), range_begin(units, p + 1),
             tiles_[static_cast<std::size_t>(p)]);
    });
  }

  [[nodiscard]] bool split(std::int64_t units) const {
    return tiles_.size() > 1 && units >= 2;
  }

  [[nodiscard]] std::int64_t range_begin(std::int64_t units,
                                         std::int64_t p) const {
    return units * p / static_cast<std::int64_t>(tiles_.size());
  }

  // Calls f with the radix as a compile-time constant where a kernel
  // specialises it (N = 2), else with 0.
  template <typename F>
  void with_radix(const F& f) const {
    if (n_ == 2)
      f(std::integral_constant<std::int64_t, 2>{});
    else
      f(std::integral_constant<std::int64_t, 0>{});
  }

  // The N^2-key sorts before the first merge level.
  void sort_initial_blocks(std::int64_t act) {
    Key* const keys = buf_[0];
    const std::int64_t b = block_;
    with_radix([&](auto radix) {
      pass(act / b, [=](std::int64_t begin, std::int64_t end, Tile& tile) {
        for (std::int64_t z = begin; z < end; ++z) {
          if constexpr (decltype(radix)::value == 2)
            sort4(keys + z * b);
          else
            sort_unordered_block(keys + z * b, b, tile);
        }
      });
    });
  }

  void descend(const Key* src, Key* dst, std::int64_t seg, std::int64_t act) {
    const std::int64_t n = n_;
    with_radix([&](auto radix) {
      pass(act / (seg / n), [=](std::int64_t begin, std::int64_t end, Tile&) {
        descend_units<decltype(radix)::value>(src, dst, n, seg, begin, end);
      });
    });
  }

  void sort_columns(const Key* src, Key* dst, std::int64_t act) {
    const std::int64_t n = n_;
    with_radix([&](auto radix) {
      pass(act / block_, [=](std::int64_t begin, std::int64_t end, Tile& tile) {
        base_units<decltype(radix)::value>(src, dst, n, begin, end, tile);
      });
    });
  }

  // Steps 3 and 4 on segments of `seg` keys.  Every block is stored
  // ascending: the paper's descending odd blocks are these read
  // backwards, which transpose_blocks accounts for and which makes the
  // final reversal of the odd blocks unnecessary.
  void ascend(const Key* src, Key* dst, std::int64_t seg, std::int64_t act) {
    const std::int64_t n = n_;
    const std::int64_t units = act / seg * ((seg / block_ + 1) / 2);
    with_radix([&](auto radix) {
      pass(units, [=](std::int64_t begin, std::int64_t end, Tile& tile) {
        ascend_units<decltype(radix)::value>(src, dst, n, seg, begin, end,
                                             tile);
      });
      if (!split(units)) return;
      // The seams: the pair each range's first unit left open.
      const std::int64_t per = (seg / block_ + 1) / 2;
      const auto parts = static_cast<std::int64_t>(tiles_.size());
      for (std::int64_t p = 1; p < parts; ++p) {
        const std::int64_t unit = range_begin(units, p);
        if (unit < units && unit != range_begin(units, p - 1) &&
            unit % per > 0)
          finish_pair<decltype(radix)::value>(dst + unit / per * seg,
                                              unit % per, block_);
      }
    });
  }

  std::int64_t n_;
  std::int64_t block_;
  std::int64_t total_;
  std::int64_t real_;
  ParallelExecutor* exec_;
  std::vector<Key> scratch_;
  Key* buf_[2] = {nullptr, nullptr};
  std::vector<Tile> tiles_;
};

// Sorts `keys` (size N^r) whose positions [real, size) hold maximal
// sentinels.
void sort_power(std::vector<Key>& keys, NodeId n, std::int64_t real,
                ParallelExecutor* executor) {
  int r = 0;
  if (!power_arity(static_cast<std::int64_t>(keys.size()), n, r))
    throw std::invalid_argument("key count must be N^r");
  if (r == 1) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  LevelEngine(keys, n, real, executor).run(r);
}

}  // namespace

void multiway_merge_sort_fast(std::vector<Key>& keys, NodeId n,
                              ParallelExecutor* executor) {
  sort_power(keys, n, static_cast<std::int64_t>(keys.size()), executor);
}

void multiway_sort_any(std::vector<Key>& keys, NodeId n,
                       ParallelExecutor* executor) {
  if (n < 2) throw std::invalid_argument("need N >= 2");
  const std::size_t original = keys.size();
  if (original < static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::size_t padded = 1;
  while (padded < original) padded *= static_cast<std::size_t>(n);
  keys.resize(padded, std::numeric_limits<Key>::max());
  sort_power(keys, n, static_cast<std::int64_t>(original), executor);
  keys.resize(original);
}

}  // namespace prodsort
