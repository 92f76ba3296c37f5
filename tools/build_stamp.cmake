# Writes the header bench/bench_provenance.h includes: the commit, from
# `git describe --always --dirty`, and the build type. CMakeLists.txt runs it at
# every build of a BENCH_*.json emitter; the header is rewritten only when its
# text changes, so an unchanged stamp recompiles nothing.
#   cmake -DSOURCE_DIR=<repo> -DBUILD_TYPE=<type> -DOUT=<header> -P tools/build_stamp.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND git -C "${SOURCE_DIR}" describe --always --dirty
                OUTPUT_VARIABLE sha OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
set(text "#define PUDDLES_GIT_SHA \"${sha}\"\n#define PUDDLES_BUILD_FLAGS \"${BUILD_TYPE}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUT}" "${text}")
endif()
