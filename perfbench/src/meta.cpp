#include "meta.hpp"

#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext2/3/4";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    case 0x794C7630ul: return "overlayfs";
    case 0x6969ul: return "nfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return hex;
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

bool debug_build() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

std::string meta_json(const RunMeta& meta) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%s,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"ndebug\":%s,"
      "\"nproc\":%ld,\"l2_bytes\":%ld,\"l3_bytes\":%ld,"
      "\"journal_fs\":\"%s\",\"git_revision\":\"%s\"}",
      meta.workload.c_str(), static_cast<unsigned long long>(meta.seed),
      meta.trace ? "true" : "false", compiler().c_str(), PERFBENCH_BUILD_TYPE,
      debug_build() ? "false" : "true",
      sysconf(_SC_NPROCESSORS_ONLN), l2, l3,
      fs_type(meta.journal_dir).c_str(), meta.git_revision.c_str());
  return buf;
}

}  // namespace perfbench
