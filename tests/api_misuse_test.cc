// Misuse coverage for the typed transaction-context API (DESIGN.md §9):
// every escape the old TLS-singleton surface turned into a segfault or
// silent corruption must surface as a Status here — stale Tx handles, nested
// pool.Run, use-after-free inside a transaction, DRAM pointers in the undo
// log, and pointer-map registrations that disagree with sizeof(T).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "src/libpuddles/libpuddles.h"

namespace puddles {

struct MisuseNode {
  MisuseNode* next;
  uint64_t value;
};

namespace {

namespace fs = std::filesystem;

class ApiMisuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)TypeRegistry::Instance().Register<MisuseNode>(&MisuseNode::next);
    root_ = fs::temp_directory_path() /
            ("api_misuse_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    auto daemon = puddled::Daemon::Start({.root_dir = root_.string()});
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(*daemon);
    auto runtime = Runtime::Create(
        std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    runtime_ = std::move(*runtime);
    auto pool = runtime_->CreatePool("misuse");
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    pool_ = *pool;
  }

  void TearDown() override {
    runtime_.reset();
    daemon_.reset();
    fs::remove_all(root_);
  }

  // A node holding `value`, allocated and committed in a transaction of its own.
  static MisuseNode* NewNode(Pool* pool, uint64_t value) {
    MisuseNode* node = nullptr;
    EXPECT_TRUE(pool->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(node, tx.Alloc<MisuseNode>());
      node->next = nullptr;
      node->value = value;
      return OkStatus();
    }).ok());
    return node;
  }

  fs::path root_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<Runtime> runtime_;
  Pool* pool_ = nullptr;
};

TEST_F(ApiMisuseTest, NestedRunRejected) {
  MisuseNode* node = NewNode(pool_, 1);

  puddles::Status outer = pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogField(node, &MisuseNode::value));
    node->value = 2;
    puddles::Status inner = pool_->Run(
        [&](Tx&) -> puddles::Status { return OkStatus(); });
    EXPECT_EQ(inner.code(), StatusCode::kFailedPrecondition)
        << "pool.Run must not nest";
    return OkStatus();
  });
  EXPECT_TRUE(outer.ok()) << outer.ToString();
  EXPECT_EQ(node->value, 2u) << "outer transaction unaffected by refused nesting";

  // The refused inner Run must not have corrupted the outer transaction's
  // commit: a fresh transaction still works.
  EXPECT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogField(node, &MisuseNode::value));
    node->value = 3;
    return OkStatus();
  }).ok());
  EXPECT_EQ(node->value, 3u);
}

TEST_F(ApiMisuseTest, StaleTxHandleRejected) {
  MisuseNode* node = NewNode(pool_, 1);

  // "Double commit" in the typed API: the callback's return commits; a Tx
  // handle copied out of its Run must fail afterwards, even once a NEW
  // transaction is running on the same thread (epoch check — the stale
  // handle must not silently join it).
  Tx stale;  // Default-constructed handles are dead too.
  EXPECT_FALSE(stale.alive());
  EXPECT_EQ(stale.LogRange(node, sizeof(*node)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    stale = tx;
    return OkStatus();
  }).ok());
  EXPECT_FALSE(stale.alive());
  EXPECT_EQ(stale.Log(node).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stale.Set(&node->value, uint64_t{9}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(stale.Alloc<MisuseNode>().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(stale.Free(node).code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    EXPECT_EQ(stale.Log(node).code(), StatusCode::kFailedPrecondition)
        << "stale handle must not join the new transaction";
    return tx.Set(&node->value, uint64_t{5});
  }).ok());
  EXPECT_EQ(node->value, 5u);
}

TEST_F(ApiMisuseTest, FreeThenLogSameObjectRejected) {
  MisuseNode* node = NewNode(pool_, 77);

  puddles::Status run = pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.Free(node));
    EXPECT_EQ(tx.Log(node).code(), StatusCode::kFailedPrecondition)
        << "logging an object freed earlier in the same transaction";
    EXPECT_EQ(tx.LogField(node, &MisuseNode::value).code(),
              StatusCode::kFailedPrecondition);
    return OkStatus();
  });
  EXPECT_TRUE(run.ok()) << run.ToString();
}

TEST_F(ApiMisuseTest, LoggingDramPointerRejected) {
  alignas(64) static uint64_t dram_cell = 11;
  puddles::Status run = pool_->Run([&](Tx& tx) -> puddles::Status {
    EXPECT_EQ(tx.LogRange(&dram_cell, sizeof(dram_cell)).code(),
              StatusCode::kInvalidArgument)
        << "a stack/heap pointer must not enter the persistent undo log";
    EXPECT_EQ(tx.Set(&dram_cell, uint64_t{12}).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(tx.Free(&dram_cell).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(tx.LogRange(nullptr, 8).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(tx.LogVolatile(nullptr, 8).code(), StatusCode::kInvalidArgument);
    // Sizes that would wrap the bounds check or overflow the 32-bit on-media
    // entry size must be rejected, not truncated.
    EXPECT_EQ(tx.LogRange(&dram_cell, ~size_t{0}).code(), StatusCode::kInvalidArgument);
    // DRAM state that should roll back with the transaction goes through the
    // explicit volatile form instead.
    RETURN_IF_ERROR(tx.LogVolatile(&dram_cell, sizeof(dram_cell)));
    dram_cell = 13;
    return AbortedError("roll the volatile store back");
  });
  EXPECT_EQ(run.code(), StatusCode::kAborted);
  EXPECT_EQ(dram_cell, 11u) << "volatile undo restored on abort";
}

TEST_F(ApiMisuseTest, CrossPoolLoggingIsSupported) {
  // Counterpart to the DRAM rejection: an object from a *different pool* of
  // the same runtime is legal to log — Puddles transactions "support writing
  // to any arbitrary PM data and are not limited to a single pool" (§3.6).
  auto other = runtime_->CreatePool("sibling");
  ASSERT_TRUE(other.ok());
  MisuseNode* foreign = NewNode(*other, 1);

  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogField(foreign, &MisuseNode::value));
    foreign->value = 2;
    return OkStatus();
  }).ok());
  EXPECT_EQ(foreign->value, 2u);
}

TEST_F(ApiMisuseTest, RunCallbackExceptionAbortsAndRethrows) {
  MisuseNode* node = NewNode(pool_, 4);

  bool caught = false;
  try {
    (void)pool_->Run([&](Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogField(node, &MisuseNode::value));
      node->value = 999;
      throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(node->value, 4u) << "unwinding aborts via the undo log";
}

// ---- Pointer-map registration mismatches ----

struct ArityMismatch {  // 16 bytes: room for at most two pointer slots.
  ArityMismatch* a;
  uint64_t pad;
};

TEST(TypeRegistryMisuseTest, ArityBeyondSizeofRejected) {
  // A record claiming more pointer fields than sizeof(T) can hold (the
  // "wrong arity vs. sizeof(T)" drift the declarative macro prevents) must
  // be rejected at registration, not discovered during relocation.
  PtrMapRecord record{};
  record.type_id = TypeIdOf<ArityMismatch>();
  record.object_size = sizeof(ArityMismatch);
  record.num_fields = 3;  // 3 * 8 > 16.
  record.field_offsets[0] = 0;
  record.field_offsets[1] = 0;
  record.field_offsets[2] = 0;
  EXPECT_EQ(TypeRegistry::Instance().Add(record).code(), StatusCode::kInvalidArgument);

  // Out-of-bounds single field.
  record.num_fields = 1;
  record.field_offsets[0] = sizeof(ArityMismatch);  // Starts past the end.
  EXPECT_EQ(TypeRegistry::Instance().Add(record).code(), StatusCode::kInvalidArgument);

  // Repeat region spilling past the object.
  record.num_fields = 0;
  record.repeat_offset = 8;
  record.repeat_count = 2;  // 8 + 16 > 16.
  EXPECT_EQ(TypeRegistry::Instance().Add(record).code(), StatusCode::kInvalidArgument);

  // Zero-size objects carry no pointers to map.
  record = PtrMapRecord{};
  record.type_id = TypeIdOf<ArityMismatch>();
  record.object_size = 0;
  EXPECT_EQ(TypeRegistry::Instance().Add(record).code(), StatusCode::kInvalidArgument);
}

struct DriftVictim {
  DriftVictim* first;
  DriftVictim* second;
  uint64_t value;
};

TEST(TypeRegistryMisuseTest, ConflictingReRegistrationRejected) {
  ASSERT_TRUE(TypeRegistry::Instance()
                  .Register<DriftVictim>(&DriftVictim::first, &DriftVictim::second)
                  .ok());
  // Same map again: no-op.
  EXPECT_TRUE(TypeRegistry::Instance()
                  .Register<DriftVictim>(&DriftVictim::first, &DriftVictim::second)
                  .ok());
  // Its members listed the other way round: the same map, so a no-op too.
  EXPECT_TRUE(TypeRegistry::Instance()
                  .Register<DriftVictim>(&DriftVictim::second, &DriftVictim::first)
                  .ok());
  // A different shape for the same type is the drift bug — reject loudly.
  EXPECT_EQ(
      TypeRegistry::Instance().Register<DriftVictim>(&DriftVictim::first).code(),
      StatusCode::kAlreadyExists);
}

struct WideArray {
  WideArray* slots[6];
  uint64_t tag;
};

TEST(TypeRegistryMisuseTest, ArrayMemberDeducesRepeatRegion) {
  ASSERT_TRUE(TypeRegistry::Instance().Register<WideArray>(&WideArray::slots).ok());
  const PtrMapRecord* record = TypeRegistry::Instance().Lookup(TypeIdOf<WideArray>());
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->num_fields, 0u);
  EXPECT_EQ(record->repeat_offset, 0u);
  EXPECT_EQ(record->repeat_count, 6u) << "count must come from the array extent";
  EXPECT_EQ(record->object_size, sizeof(WideArray));
}

}  // namespace
}  // namespace puddles
