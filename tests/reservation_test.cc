#include "src/pmem/reservation.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <csetjmp>
#include <csignal>
#include <cstring>
#include <filesystem>

#include "src/common/align.h"
#include "src/pmem/mapped_file.h"

namespace pmem {
namespace {

constexpr size_t kSpace = 64ULL << 20;  // 64 MiB reservation for tests.

TEST(ReservationTest, ReserveAndRelease) {
  AddressReservation reservation;
  ASSERT_TRUE(reservation.Reserve(kDefaultPuddleSpaceBase, kSpace).ok());
  EXPECT_TRUE(reservation.reserved());
  EXPECT_EQ(reservation.size(), kSpace);
  EXPECT_TRUE(reservation.Contains(reservation.base()));
  EXPECT_TRUE(reservation.Contains(reservation.base() + kSpace - 1));
  EXPECT_FALSE(reservation.Contains(reservation.base() + kSpace));
  reservation.Release();
  EXPECT_FALSE(reservation.reserved());
}

TEST(ReservationTest, DoubleReserveFails) {
  AddressReservation reservation;
  ASSERT_TRUE(reservation.Reserve(kDefaultPuddleSpaceBase, kSpace).ok());
  EXPECT_FALSE(reservation.Reserve(kDefaultPuddleSpaceBase, kSpace).ok());
}

TEST(ReservationTest, TwoReservationsCoexist) {
  // The second one cannot get the same hint; it must fall back gracefully.
  AddressReservation a;
  AddressReservation b;
  ASSERT_TRUE(a.Reserve(kDefaultPuddleSpaceBase, kSpace).ok());
  ASSERT_TRUE(b.Reserve(kDefaultPuddleSpaceBase, kSpace).ok());
  EXPECT_NE(a.base(), b.base());
}

TEST(ReservationTest, ClaimSpecificRange) {
  AddressReservation reservation;
  ASSERT_TRUE(reservation.Reserve(kDefaultPuddleSpaceBase, kSpace).ok());
  uintptr_t target = reservation.base() + (8 << 20);
  ASSERT_TRUE(reservation.ClaimRange(target, 1 << 20).ok());
  EXPECT_EQ(reservation.claimed_ranges(), 1u);
  EXPECT_FALSE(reservation.ClaimRange(target, 1 << 20).ok());
  // Overlapping claim fails.
  EXPECT_FALSE(reservation.ClaimRange(target + 4096, 4096).ok());
  EXPECT_FALSE(reservation.ClaimRange(target - 4096, 8192).ok());
  // So does one that runs past the reservation, or whose end wraps past zero.
  EXPECT_EQ(reservation.ClaimRange(reservation.base() + kSpace - 4096, 8192).code(),
            puddles::StatusCode::kOutOfRange);
  EXPECT_EQ(reservation.ClaimRange(~uintptr_t{0xfff}, 8192).code(),
            puddles::StatusCode::kOutOfRange);
}

TEST(ReservationTest, FreeRangeAllowsReclaim) {
  AddressReservation reservation;
  ASSERT_TRUE(reservation.Reserve(kDefaultPuddleSpaceBase, kSpace).ok());
  const uintptr_t target = reservation.base() + (4 << 20);
  ASSERT_TRUE(reservation.ClaimRange(target, 1 << 20).ok());
  EXPECT_FALSE(reservation.FreeRange(target + 4096).ok()) << "not a claim's start";
  ASSERT_TRUE(reservation.FreeRange(target).ok());
  EXPECT_EQ(reservation.claimed_ranges(), 0u);
  ASSERT_TRUE(reservation.ClaimRange(target, 1 << 20).ok());
}

TEST(ReservationTest, MapFileIntoReservation) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / ("resv_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  AddressReservation reservation;
  ASSERT_TRUE(reservation.Reserve(kDefaultPuddleSpaceBase, kSpace).ok());

  constexpr size_t kFileSize = 2 << 20;
  auto file = PmemFile::Create((dir / "pud.bin").string(), kFileSize);
  ASSERT_TRUE(file.ok());

  const uintptr_t range = reservation.base() + (2 << 20);
  ASSERT_TRUE(reservation.ClaimRange(range, kFileSize).ok());
  ASSERT_TRUE(reservation.MapFileAt(file->fd(), range, kFileSize, /*writable=*/true).ok());
  EXPECT_FALSE(reservation.MapFileAt(file->fd(), range, kFileSize + 4096, true).ok())
      << "mapping past the claim";

  auto* data = reinterpret_cast<uint8_t*>(range);
  std::memset(data, 0x3c, kFileSize);
  EXPECT_EQ(data[kFileSize - 1], 0x3c);

  // Unmapping returns the range to PROT_NONE but keeps it claimed.
  ASSERT_TRUE(reservation.UnmapToReserved(range, kFileSize).ok());
  EXPECT_FALSE(reservation.ClaimRange(range, kFileSize).ok());

  // Remap and verify contents survived in the file.
  ASSERT_TRUE(reservation.MapFileAt(file->fd(), range, kFileSize, /*writable=*/true).ok());
  EXPECT_EQ(data[100], 0x3c);

  fs::remove_all(dir);
}

TEST(ReservationTest, MapOutsideClaimFails) {
  AddressReservation reservation;
  ASSERT_TRUE(reservation.Reserve(kDefaultPuddleSpaceBase, kSpace).ok());
  // No claim at base: mapping must be refused.
  EXPECT_FALSE(reservation.MapFileAt(-1, reservation.base(), 4096, true).ok());
}

}  // namespace
}  // namespace pmem
