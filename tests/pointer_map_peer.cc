// The second process of relocation_integration_test's two-process cases: it
// starts its own daemon on the root that still holds the exported source
// pool, so importing the export as "copy-<mode>" relocates it, and it opens
// the copy with a type registry of its own.
//
//   pointer_map_peer unregistered <root> <export> <expected_sum> <count>
//     Registers no type. The open must relocate the copy with the pool's own
//     pointer maps, and a walk must read the source's values.
//   pointer_map_peer permuted <root> <export> <expected_sum> <count>
//     Registers the list head with the test's layout but its members listed
//     in the other order, which is the same map; the open and the walk must
//     succeed as for `unregistered`.
//   pointer_map_peer conflicting <root> <export>
//     Registers the list head as the test does, and the list node under the
//     same name with another layout, so that only the layout can fail the
//     open. It must fail with FailedPrecondition before any member is
//     rewritten: every member keeps its rewrite flag and its bytes.
//
// Exit status 0 iff the expectation holds; the reason goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/libpuddles/libpuddles.h"
#include "src/pmem/mapped_file.h"
#include "src/puddles/pool_meta.h"

namespace puddles {

// The test's list node under its name, and so its TypeId, with the fields
// swapped: `next` is at offset 8, not 0.
struct RelocNode {
  uint64_t value;
  RelocNode* next;
};

// The test's list head, with the test's layout and map.
struct RelocHead {
  RelocNode* head;
  RelocNode* tail;
  uint64_t count;
};

namespace {

// The layout the test writes, walked here without registering anything.
struct WalkNode {
  WalkNode* next;
  uint64_t value;
};

struct WalkHead {
  WalkNode* head;
  WalkNode* tail;
  uint64_t count;
};

int Fail(const std::string& why) {
  std::fprintf(stderr, "pointer_map_peer: %s\n", why.c_str());
  return 1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// The copy's data members, named from its pool meta's files.
Result<std::vector<Uuid>> CopyMembers(puddled::Daemon& daemon, const Uuid& meta_puddle) {
  std::vector<pmem::PmemFile> files;
  ASSIGN_OR_RETURN(PoolMetaView meta,
                   PoolMetaView::Attach(meta_puddle, [&](const Uuid& uuid) -> Result<Puddle> {
                     ASSIGN_OR_RETURN(pmem::PmemFile file,
                                      pmem::PmemFile::Open(daemon.PuddlePath(uuid)));
                     ASSIGN_OR_RETURN(void* base, file.Map());
                     ASSIGN_OR_RETURN(Puddle puddle, Puddle::Attach(base, file.size()));
                     files.push_back(std::move(file));
                     return puddle;
                   }));
  std::vector<Uuid> members;
  for (uint32_t i = 0; i < meta.num_members(); ++i) {
    members.push_back(meta.member(i));
  }
  return members;
}

int Run(const std::string& mode, const std::string& root, const std::string& export_dir,
        uint64_t expected_sum, uint64_t expected_count) {
  if (mode == "conflicting") {
    if (!TypeRegistry::Instance().Register<RelocHead>(&RelocHead::head, &RelocHead::tail).ok() ||
        !TypeRegistry::Instance().Register<RelocNode>(&RelocNode::next).ok()) {
      return Fail("cannot register the types");
    }
  } else if (mode == "permuted") {
    if (!TypeRegistry::Instance().Register<RelocHead>(&RelocHead::tail, &RelocHead::head).ok()) {
      return Fail("cannot register the head");
    }
  } else if (mode != "unregistered") {
    return Fail("unknown mode " + mode);
  }
  auto daemon = puddled::Daemon::Start({.root_dir = root});
  if (!daemon.ok()) {
    return Fail("daemon start: " + daemon.status().ToString());
  }
  auto runtime =
      Runtime::Create(std::make_shared<puddled::EmbeddedDaemonClient>(daemon->get()));
  if (!runtime.ok()) {
    return Fail("runtime create: " + runtime.status().ToString());
  }
  const std::string copy = "copy-" + mode;
  auto import = (*runtime)->client().ImportPool(export_dir, copy);
  if (!import.ok()) {
    return Fail("import: " + import.status().ToString());
  }
  if (import->members_relocated == 0) {
    return Fail("the copy did not relocate");
  }

  if (mode == "conflicting") {
    auto members = CopyMembers(**daemon, import->pool.meta_puddle);
    if (!members.ok()) {
      return Fail("copy members: " + members.status().ToString());
    }
    std::vector<std::string> before;
    for (const Uuid& member : *members) {
      before.push_back(ReadFile((*daemon)->PuddlePath(member)));
    }
    auto opened = (*runtime)->OpenPool(copy);
    if (opened.status().code() != StatusCode::kFailedPrecondition) {
      return Fail("open returned " + opened.status().ToString() +
                  ", not FailedPrecondition");
    }
    for (size_t i = 0; i < members->size(); ++i) {
      const std::string after = ReadFile((*daemon)->PuddlePath((*members)[i]));
      if (after != before[i]) {
        return Fail("the failed open changed member " + std::to_string(i));
      }
      PuddleHeader header{};
      std::memcpy(&header, after.data(), sizeof(header));
      if ((header.flags & kPuddleNeedsRewrite) == 0) {
        return Fail("member " + std::to_string(i) + " lost its rewrite flag");
      }
    }
    return 0;
  }

  auto opened = (*runtime)->OpenPool(copy);
  if (!opened.ok()) {
    return Fail("open: " + opened.status().ToString());
  }
  auto head = (*opened)->Root<WalkHead>();
  if (!head.ok()) {
    return Fail("root: " + head.status().ToString());
  }
  uint64_t sum = 0;
  uint64_t count = 0;
  for (WalkNode* node = (*head)->head; node != nullptr; node = node->next) {
    Runtime::Entry* entry = (*runtime)->FindEntryByAddr(reinterpret_cast<uintptr_t>(node));
    if (entry == nullptr || entry->info.pool_uuid != (*opened)->info().pool_uuid) {
      return Fail("node " + std::to_string(count) + " is not in the copy");
    }
    sum += node->value;
    ++count;
  }
  if (sum != expected_sum || count != expected_count) {
    return Fail("walk read " + std::to_string(count) + " nodes summing to " +
                std::to_string(sum) + ", expected " + std::to_string(expected_count) + " and " +
                std::to_string(expected_sum));
  }
  return 0;
}

}  // namespace
}  // namespace puddles

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: pointer_map_peer unregistered|permuted <root> <export> <sum> <count>\n"
                 "       pointer_map_peer conflicting <root> <export>\n");
    return 2;
  }
  const uint64_t sum = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 0;
  const uint64_t count = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 0;
  return puddles::Run(argv[1], argv[2], argv[3], sum, count);
}
