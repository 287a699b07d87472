// Shared-BasisStore suite (ctest labels: serve, chaos): the file-locked
// load→merge→save mode that lets N daemon processes share one on-disk
// basis store.
//
// Layers:
//   * util::FileLock semantics (advisory flock, RAII release);
//   * save_shared merge semantics against plain save/load — disk entries
//     this process never saw survive, in-memory entries win collisions;
//   * the acceptance drill: two child processes (self-exec, the pattern
//     from journal_test) hammer save_shared into ONE file concurrently,
//     and every entry from both survives. With plain save() this is a
//     last-writer-wins clobber and the drill fails.
//
// This file supplies its own main(): the drill needs argv[0] and an
// environment-variable child mode, which gtest_main cannot provide.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "resilience/chaos.h"
#include "solver/basis_store.h"
#include "util/clock.h"
#include "util/fs.h"

namespace arrow {
namespace {

const char* g_argv0 = "";

// Child-mode markers: the store path, and a per-child key base so the two
// children write disjoint entry sets.
constexpr const char* kSharedStoreChildEnv = "ARROW_SHARED_STORE_CHILD";
constexpr const char* kSharedStoreBaseEnv = "ARROW_SHARED_STORE_BASE";

constexpr int kChildRounds = 24;

std::string temp_path(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "arrow_shared_store_test";
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

solver::Basis make_basis(int cols, solver::BasisStatus fill) {
  solver::Basis b;
  b.status.assign(static_cast<std::size_t>(cols), fill);
  return b;
}

// --- FileLock ---------------------------------------------------------------

TEST(FileLock, AcquiresCreatesAndReleases) {
  const std::string path = temp_path("lockfile");
  std::filesystem::remove(path);
  {
    util::FileLock lock(path);
    EXPECT_TRUE(lock.held());
    EXPECT_TRUE(std::filesystem::exists(path));  // lock file created
  }
  // Released on destruction: re-acquiring must not block.
  util::FileLock again(path);
  EXPECT_TRUE(again.held());
}

TEST(FileLock, UnopenablePathReportsNotHeld) {
  util::FileLock lock("/nonexistent-dir-zzz/lock");
  EXPECT_FALSE(lock.held());
}

// --- merge semantics --------------------------------------------------------

TEST(SharedStore, SaveSharedMergesDiskEntriesItNeverSaw) {
  const std::string path = temp_path("merge.bin");
  std::filesystem::remove(path);

  // Process A's view: one entry, saved plainly.
  solver::BasisStore a;
  a.store({1, 2, 10, 10}, make_basis(10, solver::BasisStatus::kBasic));
  ASSERT_TRUE(a.save(path));

  // Process B never loaded the file; it has a colliding key (different
  // basis) and a fresh one.
  solver::BasisStore b;
  b.store({1, 2, 10, 10},
          make_basis(10, solver::BasisStatus::kNonbasicLower));
  b.store({1, 2, 20, 20}, make_basis(20, solver::BasisStatus::kBasic));
  ASSERT_TRUE(b.save_shared(path));

  // The file now holds the union; on the collision B's (in-memory) basis
  // won — B's is the freshest, A's copy is still on disk via A if it saves
  // again.
  solver::BasisStore merged;
  ASSERT_TRUE(merged.load(path));
  EXPECT_EQ(merged.size(), 2u);
  solver::Basis out;
  ASSERT_TRUE(merged.load({1, 2, 10, 10}, &out));
  EXPECT_EQ(out.num_basic(), 0);  // B's kNonbasicLower fill, not A's
  ASSERT_TRUE(merged.load({1, 2, 20, 20}, &out));
  EXPECT_EQ(out.num_basic(), 20);
}

TEST(SharedStore, SaveSharedWithoutExistingFileJustSaves) {
  const std::string path = temp_path("fresh.bin");
  std::filesystem::remove(path);
  solver::BasisStore s;
  s.store({3, 4, 5, 5}, make_basis(5, solver::BasisStatus::kBasic));
  ASSERT_TRUE(s.save_shared(path));
  solver::BasisStore back;
  ASSERT_TRUE(back.load(path));
  EXPECT_EQ(back.size(), 1u);
}

TEST(SharedStore, PlainSaveStillClobbers) {
  // Documents the contrast save_shared exists for: plain save is
  // last-writer-wins by design (single-process runs want exactly that).
  const std::string path = temp_path("clobber.bin");
  std::filesystem::remove(path);
  solver::BasisStore a;
  a.store({1, 1, 7, 7}, make_basis(7, solver::BasisStatus::kBasic));
  ASSERT_TRUE(a.save(path));
  solver::BasisStore b;
  b.store({1, 1, 9, 9}, make_basis(9, solver::BasisStatus::kBasic));
  ASSERT_TRUE(b.save(path));
  solver::BasisStore back;
  ASSERT_TRUE(back.load(path));
  EXPECT_EQ(back.size(), 1u);  // A's entry is gone
}

// --- concurrent multi-process drill -----------------------------------------

// Child role: accumulate kChildRounds entries (keys disjoint per child via
// the base) into an in-memory store, calling save_shared after EVERY
// addition — maximal read-merge-write interleaving with the sibling.
int shared_store_child(const std::string& path, std::uint64_t base) {
  solver::BasisStore store;
  for (int i = 0; i < kChildRounds; ++i) {
    const int cols = 4 + i;
    store.store({base, 1, 100 + i, cols},
                make_basis(cols, solver::BasisStatus::kBasic));
    if (!store.save_shared(path)) return 3;
  }
  return 0;
}

TEST(SharedStoreChaos, TwoProcessesSavingConcurrentlyLoseNothing) {
  const std::string path = temp_path("concurrent.bin");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");

  const int pid1 = resilience::spawn_self(
      g_argv0, {{kSharedStoreChildEnv, path}, {kSharedStoreBaseEnv, "1"}});
  const int pid2 = resilience::spawn_self(
      g_argv0, {{kSharedStoreChildEnv, path}, {kSharedStoreBaseEnv, "2"}});
  ASSERT_GT(pid1, 0);
  ASSERT_GT(pid2, 0);
  const auto exit1 = resilience::wait_child(pid1);
  const auto exit2 = resilience::wait_child(pid2);
  EXPECT_FALSE(exit1.signaled);
  EXPECT_EQ(exit1.code, 0);
  EXPECT_FALSE(exit2.signaled);
  EXPECT_EQ(exit2.code, 0);

  // Both children's FULL entry sets must be in the final file. Before the
  // flock+merge this raced: whichever child saved last clobbered the
  // other's entries wholesale.
  solver::BasisStore merged;
  ASSERT_TRUE(merged.load(path));
  EXPECT_EQ(merged.size(), 2u * kChildRounds);
  solver::Basis out;
  for (std::uint64_t base : {std::uint64_t{1}, std::uint64_t{2}}) {
    for (int i = 0; i < kChildRounds; ++i) {
      EXPECT_TRUE(merged.load({base, 1, 100 + i, 4 + i}, &out))
          << "lost entry " << i << " of child " << base;
    }
  }
}

}  // namespace
}  // namespace arrow

int main(int argc, char** argv) {
  if (const char* path = std::getenv(arrow::kSharedStoreChildEnv)) {
    const char* base = std::getenv(arrow::kSharedStoreBaseEnv);
    return arrow::shared_store_child(path,
                                     base ? std::strtoull(base, nullptr, 10)
                                          : 1);
  }
  arrow::g_argv0 = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
