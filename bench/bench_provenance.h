// Shared provenance block for the BENCH_*.json emitters (bench_runner,
// bench_daemon_ycsb, bench_fig12_scaling, bench_alloc_scaling): a result
// without the commit, time, host, and build type that produced it cannot be
// compared across PRs. The commit and build type come from build_stamp.h,
// which every build of an emitter regenerates (tools/build_stamp.cmake).
#ifndef BENCH_BENCH_PROVENANCE_H_
#define BENCH_BENCH_PROVENANCE_H_

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

#include "build_stamp.h"

namespace bench {

inline std::string TimestampUtc() {
  char buf[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  }
  return buf;
}

inline std::string Hostname() {
  char buf[256] = "unknown";
  if (::gethostname(buf, sizeof(buf)) != 0) {
    std::strcpy(buf, "unknown");
  }
  buf[sizeof(buf) - 1] = '\0';
  return buf;
}

// The `"provenance": {...},` line (two-space indent, trailing comma +
// newline) every BENCH_*.json carries.
inline std::string ProvenanceJsonLine(bool with_hostname = true) {
  std::string out = "  \"provenance\": {\"git_sha\": \"";
  out += PUDDLES_GIT_SHA;
  out += "\", \"timestamp\": \"" + TimestampUtc() + "\"";
  if (with_hostname) {
    out += ", \"hostname\": \"" + Hostname() + "\"";
  }
  out += ", \"build_flags\": \"";
  out += PUDDLES_BUILD_FLAGS;
  out += "\"},\n";
  return out;
}

// Closes a BENCH_*.json document opened for writing at `path` and reports
// whether all of it reached the file: a write the file refuses (a full disk,
// /dev/full) sets the stream's error flag or fails fclose's final flush.
// Prints "wrote <path>", or "cannot write <path>" to stderr.
inline bool CloseJson(std::FILE* out, const std::string& path) {
  const bool written = std::ferror(out) == 0;
  if (std::fclose(out) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace bench

#endif  // BENCH_BENCH_PROVENANCE_H_
