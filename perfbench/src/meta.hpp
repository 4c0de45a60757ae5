#pragma once

// Run metadata recorded with every result: what was built, on what
// machine, where the journal lives, and from which revision and seed.

#include <cstdint>
#include <string>

namespace perfbench {

struct RunMeta {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::string git_revision;  ///< passed in by the runner; "unknown" if none
  std::string journal_dir;   ///< its filesystem type is recorded
};

/// True when the library was compiled with assertions and Machine's
/// per-step disjointness sweep on (NDEBUG unset): such a build measures
/// a different program and the result is flagged.
[[nodiscard]] bool debug_build();

/// The metadata as one JSON object.
[[nodiscard]] std::string meta_json(const RunMeta& meta);

}  // namespace perfbench
