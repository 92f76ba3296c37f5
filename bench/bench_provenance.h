// Shared provenance block for the BENCH_*.json emitters (bench_runner,
// bench_daemon_ycsb): a result without the commit, time, host, and flags
// that produced it cannot be compared across PRs. The git sha and build
// flags are baked in at compile time (PUDDLES_GIT_SHA / PUDDLES_BUILD_FLAGS
// target_compile_definitions in CMakeLists.txt).
#ifndef BENCH_BENCH_PROVENANCE_H_
#define BENCH_BENCH_PROVENANCE_H_

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

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
inline std::string ProvenanceJsonLine(const char* git_sha, const char* build_flags,
                                      bool with_hostname = true) {
  std::string out = "  \"provenance\": {\"git_sha\": \"";
  out += git_sha;
  out += "\", \"timestamp\": \"" + TimestampUtc() + "\"";
  if (with_hostname) {
    out += ", \"hostname\": \"" + Hostname() + "\"";
  }
  out += ", \"build_flags\": \"";
  out += build_flags;
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
