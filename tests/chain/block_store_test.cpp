#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>

#include "chain/block_store.hpp"
#include "common/rng.hpp"

namespace zc::chain {
namespace {

std::vector<LoggedRequest> make_requests(std::size_t n, std::uint64_t salt) {
    std::vector<LoggedRequest> reqs;
    Rng rng(salt);
    for (std::size_t i = 0; i < n; ++i) {
        LoggedRequest r;
        r.payload = rng.bytes(48);
        r.origin = 0;
        r.seq = salt * 100 + i;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

void extend(BlockStore& store, int blocks) {
    for (int i = 0; i < blocks; ++i) {
        const Height h = store.head_height() + 1;
        store.append(Block::build(h, store.head_hash(), static_cast<std::int64_t>(h),
                                  make_requests(5, h)));
    }
}

TEST(BlockStore, StartsWithGenesis) {
    BlockStore store;
    EXPECT_EQ(store.head_height(), 0u);
    EXPECT_EQ(store.base_height(), 0u);
    ASSERT_NE(store.get(0), nullptr);
    EXPECT_EQ(store.get(0)->hash(), make_genesis().hash());
}

TEST(BlockStore, AppendExtendsHead) {
    BlockStore store;
    extend(store, 3);
    EXPECT_EQ(store.head_height(), 3u);
    EXPECT_TRUE(store.validate(0, 3));
}

TEST(BlockStore, RejectsWrongHeight) {
    BlockStore store;
    EXPECT_THROW(store.append(Block::build(5, store.head_hash(), 0, {})),
                 std::invalid_argument);
}

TEST(BlockStore, RejectsWrongParent) {
    BlockStore store;
    crypto::Digest bogus{};
    EXPECT_THROW(store.append(Block::build(1, bogus, 0, {})), std::invalid_argument);
}

TEST(BlockStore, RejectsBadPayloadRoot) {
    BlockStore store;
    Block b = Block::build(1, store.head_hash(), 0, make_requests(3, 1));
    b.requests[0].payload[0] ^= 1;
    EXPECT_THROW(store.append(std::move(b)), std::invalid_argument);
}

TEST(BlockStore, ValidateDetectsRangeErrors) {
    BlockStore store;
    extend(store, 5);
    EXPECT_TRUE(store.validate(0, 5));
    EXPECT_FALSE(store.validate(3, 2));   // inverted
    EXPECT_FALSE(store.validate(0, 99));  // beyond head
}

TEST(BlockStore, PruneRemovesOldBlocksKeepsBase) {
    BlockStore store;
    extend(store, 10);
    store.prune_to(6, to_bytes("delete-cert"));
    EXPECT_EQ(store.base_height(), 6u);
    EXPECT_EQ(store.get(5), nullptr);
    EXPECT_NE(store.get(6), nullptr);
    EXPECT_NE(store.get(10), nullptr);
    EXPECT_TRUE(store.validate(6, 10));
    EXPECT_FALSE(store.validate(0, 10));  // below base

    ASSERT_TRUE(store.anchor().has_value());
    EXPECT_EQ(store.anchor()->base_height, 6u);
    EXPECT_EQ(store.anchor()->base_hash, store.get(6)->hash());
    EXPECT_EQ(store.anchor()->evidence, to_bytes("delete-cert"));
}

TEST(BlockStore, PruneBeyondHeadThrows) {
    BlockStore store;
    extend(store, 2);
    EXPECT_THROW(store.prune_to(5, {}), std::invalid_argument);
}

TEST(BlockStore, DoublePruneBackwardIsNoop) {
    BlockStore store;
    extend(store, 10);
    store.prune_to(8, to_bytes("c1"));
    store.prune_to(4, to_bytes("c2"));  // older than base: ignored
    EXPECT_EQ(store.base_height(), 8u);
    EXPECT_EQ(store.anchor()->evidence, to_bytes("c1"));
}

TEST(BlockStore, PruneReducesStoredBytes) {
    BlockStore store;
    extend(store, 10);
    const std::size_t before = store.stored_bytes();
    store.prune_to(9, {});
    EXPECT_LT(store.stored_bytes(), before);
}

TEST(BlockStore, TrimBodiesKeepsHeaders) {
    BlockStore store;
    extend(store, 6);
    const std::size_t before = store.stored_bytes();
    store.trim_bodies_to(4);
    EXPECT_LT(store.stored_bytes(), before);
    EXPECT_EQ(store.get(3), nullptr);
    EXPECT_NE(store.header(3), nullptr);
    EXPECT_NE(store.get(5), nullptr);
    // Chain still validates: links intact, trimmed bodies skipped.
    EXPECT_TRUE(store.validate(0, 6));
}

TEST(BlockStore, RangeSkipsTrimmed) {
    BlockStore store;
    extend(store, 6);
    store.trim_bodies_to(2);
    const auto blocks = store.range(0, 6);
    EXPECT_EQ(blocks.size(), 4u);  // heights 3..6
    EXPECT_EQ(blocks.front().header.height, 3u);
}

TEST(BlockStore, GaugeTracksBytes) {
    metrics::MemoryTracker tracker;
    metrics::Gauge* gauge = tracker.gauge("chain");
    BlockStore store(gauge);
    extend(store, 4);
    EXPECT_EQ(static_cast<std::size_t>(gauge->value()), store.stored_bytes());
    store.prune_to(3, {});
    EXPECT_EQ(static_cast<std::size_t>(gauge->value()), store.stored_bytes());
    EXPECT_EQ(tracker.underflows(), 0u);
}

TEST(BlockStore, AdoptAppendsOnlyARangeEndingAtTheCheckpoint) {
    // The peer holds heights 1..7; we hold 1..2 and stage 3..7 against
    // the checkpoint digest of height 7.
    BlockStore peer;
    extend(peer, 7);
    const Height target = 7;
    const crypto::Digest state = peer.header(target)->hash();

    struct Case {
        const char* name;
        std::function<void(std::vector<Block>&)> mutate;
        crypto::Digest state;
        bool ok;
        std::size_t charged;  ///< blocks charged before the verdict
        std::size_t left;     ///< blocks left in the range on failure
    };
    const auto keep = [](std::vector<Block>&) {};
    const std::vector<Case> cases = {
        {"valid", keep, state, true, 5, 0},
        {"duplicates and out-of-window heights ignored",
         [&](std::vector<Block>& r) {
             r.push_back(r[1]);          // height 4 again
             r.push_back(*peer.get(2));  // at our head
             r.push_back(*peer.get(1));  // below it
             r.push_back(Block::build(8, state, 8, make_requests(1, 8)));  // above target
             std::reverse(r.begin(), r.end());
         },
         state, true, 5, 0},
        {"gap", [](std::vector<Block>& r) { r.erase(r.begin() + 2); }, state, false, 0, 4},
        {"short range", [](std::vector<Block>& r) { r.resize(2); }, state, false, 0, 2},
        {"wrong parent", [](std::vector<Block>& r) { r[1].header.parent_hash = {}; }, state,
         false, 2, 5},
        {"bad payload root", [](std::vector<Block>& r) { r[2].requests[0].payload[0] ^= 1; },
         state, false, 3, 5},
        {"digest mismatch", keep, crypto::Digest{}, false, 5, 5},
    };

    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        BlockStore store;
        for (Height h = 1; h <= 2; ++h) store.append(*peer.get(h));
        const crypto::Digest head_hash = store.head_hash();
        std::vector<Block> staged = peer.range(3, target);
        c.mutate(staged);

        std::size_t charged = 0;
        std::size_t charged_bytes = 0;
        const ChargeFn charge = [&](std::size_t bytes) {
            charged += 1;
            charged_bytes += bytes;
        };
        std::vector<Block> pure = staged;
        EXPECT_EQ(extends(store.head_height(), head_hash, pure, target, c.state, charge), c.ok);
        EXPECT_EQ(charged, c.charged);

        charged = 0;
        charged_bytes = 0;
        std::vector<Height> adopted;
        const bool ok = store.adopt(staged, target, c.state, charge, [&](const Block& b) {
            EXPECT_EQ(b.header.height, store.head_height() + 1);  // not yet appended
            adopted.push_back(b.header.height);
        });
        EXPECT_EQ(ok, c.ok);
        EXPECT_EQ(charged, c.charged);
        EXPECT_EQ(staged.size(), c.left);
        if (c.ok) {
            EXPECT_EQ(adopted, (std::vector<Height>{3, 4, 5, 6, 7}));
            EXPECT_EQ(store.head_height(), target);
            EXPECT_EQ(store.head_hash(), state);
            EXPECT_TRUE(store.validate(0, target));
            std::size_t bytes = 0;
            for (Height h = 3; h <= target; ++h) bytes += peer.get(h)->size_bytes();
            EXPECT_EQ(charged_bytes, bytes);
        } else {
            EXPECT_TRUE(adopted.empty());
            EXPECT_EQ(store.head_height(), 2u);
            EXPECT_EQ(store.head_hash(), head_hash);
            EXPECT_EQ(store.size(), 3u);
        }
    }
}

class PersistentStoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("zc_store_test_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }
    std::filesystem::path dir_;
};

TEST_F(PersistentStoreTest, SurvivesReload) {
    {
        BlockStore store(nullptr, dir_);
        extend(store, 5);
    }
    BlockStore restored = BlockStore::load(dir_);
    EXPECT_EQ(restored.head_height(), 5u);
    EXPECT_TRUE(restored.validate(0, 5));
}

TEST_F(PersistentStoreTest, PruneRemovesFilesAndAnchorPersists) {
    {
        BlockStore store(nullptr, dir_);
        extend(store, 8);
        store.prune_to(5, to_bytes("evidence"));
    }
    BlockStore restored = BlockStore::load(dir_);
    EXPECT_EQ(restored.base_height(), 5u);
    EXPECT_EQ(restored.head_height(), 8u);
    EXPECT_EQ(restored.get(4), nullptr);
    ASSERT_TRUE(restored.anchor().has_value());
    EXPECT_EQ(restored.anchor()->base_height, 5u);
    EXPECT_EQ(restored.anchor()->evidence, to_bytes("evidence"));
    EXPECT_TRUE(restored.validate(5, 8));
}

TEST_F(PersistentStoreTest, AppendAfterReloadContinuesChain) {
    {
        BlockStore store(nullptr, dir_);
        extend(store, 3);
    }
    BlockStore restored = BlockStore::load(dir_);
    extend(restored, 2);
    EXPECT_EQ(restored.head_height(), 5u);
    EXPECT_TRUE(restored.validate(0, 5));
}

TEST_F(PersistentStoreTest, LoadTruncatesTornFinalBlock) {
    std::filesystem::path last;
    {
        BlockStore store(nullptr, dir_);
        extend(store, 5);
    }
    // Tear the newest block file in half (power loss mid-append on a
    // filesystem without atomic rename would look like this).
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
        if (e.path().filename().string().rfind("block_", 0) == 0 &&
            (last.empty() || e.path().filename() > last.filename())) {
            last = e.path();
        }
    }
    ASSERT_FALSE(last.empty());
    std::filesystem::resize_file(last, std::filesystem::file_size(last) / 2);

    RecoveryReport report;
    BlockStore restored = BlockStore::load(dir_, nullptr, &report);
    EXPECT_EQ(restored.head_height(), 4u);
    EXPECT_TRUE(restored.validate(0, 4));
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(report.unrepairable);
    EXPECT_EQ(report.blocks_discarded, 1u);
    EXPECT_EQ(report.recovered_head, 4u);
    ASSERT_EQ(report.discarded_files.size(), 1u);
    EXPECT_EQ(report.discarded_files[0], last.string());
    // The corrupt file stays on disk for offline repair/forensics.
    EXPECT_TRUE(std::filesystem::exists(last));

    // Appending continues from the recovered head.
    extend(restored, 1);
    EXPECT_EQ(restored.head_height(), 5u);
}

TEST_F(PersistentStoreTest, LoadDiscardsBitFlippedBlockAndSuffix) {
    {
        BlockStore store(nullptr, dir_);
        extend(store, 6);
    }
    // Flip one bit in the middle of block 4's body: the checksum trailer
    // catches it, and blocks 5..6 no longer link to a trusted parent.
    const std::filesystem::path victim = dir_ / "block_000000000004.bin";
    ASSERT_TRUE(std::filesystem::exists(victim));
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    char byte;
    f.seekg(10);
    f.get(byte);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(10);
    f.put(byte);
    f.close();

    RecoveryReport report;
    BlockStore restored = BlockStore::load(dir_, nullptr, &report);
    EXPECT_EQ(restored.head_height(), 3u);
    EXPECT_TRUE(restored.validate(0, 3));
    EXPECT_EQ(report.blocks_discarded, 3u);  // 4 (corrupt) + 5, 6 (unlinked)
    EXPECT_EQ(report.recovered_head, 3u);
    EXPECT_FALSE(report.unrepairable);
}

TEST_F(PersistentStoreTest, LoadIgnoresLeftoverTmpFile) {
    {
        BlockStore store(nullptr, dir_);
        extend(store, 3);
    }
    // A crash between tmp-write and rename leaves a .tmp behind; load
    // must never read it as a valid block.
    std::ofstream(dir_ / "block_000000000004.bin.tmp", std::ios::binary) << "partial";

    RecoveryReport report;
    BlockStore restored = BlockStore::load(dir_, nullptr, &report);
    EXPECT_EQ(restored.head_height(), 3u);
    EXPECT_EQ(report.blocks_discarded, 0u);
    ASSERT_EQ(report.discarded_files.size(), 1u);
    EXPECT_NE(report.discarded_files[0].find(".tmp"), std::string::npos);
}

TEST_F(PersistentStoreTest, LoadReportsUnrepairableBaseCorruption) {
    {
        BlockStore store(nullptr, dir_);
        extend(store, 2);
    }
    // Corrupt every block file: nothing trustworthy remains.
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
        if (e.path().filename().string().rfind("block_", 0) != 0) continue;
        std::ofstream(e.path(), std::ios::binary | std::ios::trunc) << "garbage";
    }
    RecoveryReport report;
    BlockStore restored = BlockStore::load(dir_, nullptr, &report);
    EXPECT_TRUE(report.unrepairable);
    EXPECT_FALSE(report.clean());
    // The in-memory store falls back to genesis but must not clobber the
    // evidence on disk.
    EXPECT_EQ(restored.head_height(), 0u);
    std::size_t block_files = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
        if (e.path().filename().string().rfind("block_", 0) == 0) ++block_files;
    }
    EXPECT_EQ(block_files, 3u);  // 0, 1, 2 all untouched
}

TEST(BlockStore, RebaseAdoptsPeerPruneBase) {
    // The peer recorded 8 blocks and pruned below 5 after an export.
    BlockStore peer;
    extend(peer, 8);
    peer.prune_to(5, Bytes{0xde, 0x1e});
    ASSERT_NE(peer.get(5), nullptr);

    // A wiped rejoiner adopts the peer's base block and continues from it.
    BlockStore rejoiner;
    rejoiner.rebase(*peer.get(5), Bytes{0xde, 0x1e});
    EXPECT_EQ(rejoiner.base_height(), 5u);
    EXPECT_EQ(rejoiner.head_height(), 5u);
    EXPECT_EQ(rejoiner.head_hash(), peer.get(5)->hash());
    ASSERT_TRUE(rejoiner.anchor().has_value());
    EXPECT_EQ(rejoiner.anchor()->base_height, 5u);
    EXPECT_EQ(rejoiner.anchor()->base_hash, peer.get(5)->hash());
    EXPECT_EQ(rejoiner.anchor()->evidence, (Bytes{0xde, 0x1e}));
    EXPECT_EQ(rejoiner.get(0), nullptr);  // genesis discarded with the prefix

    // Normal appends continue the adopted chain.
    for (Height h = 6; h <= 8; ++h) rejoiner.append(*peer.get(h));
    EXPECT_EQ(rejoiner.head_hash(), peer.head_hash());
    EXPECT_TRUE(rejoiner.validate(5, 8));
}

TEST(BlockStore, RebaseRejectsBaseAtOrBelowHead) {
    BlockStore peer;
    extend(peer, 4);
    BlockStore store;
    extend(store, 4);
    EXPECT_THROW(store.rebase(*peer.get(3), Bytes{}), std::invalid_argument);
    EXPECT_THROW(store.rebase(*peer.get(4), Bytes{}), std::invalid_argument);
}

TEST(BlockStore, RebasePersistsAcrossReload) {
    const auto dir = std::filesystem::temp_directory_path() / "zc_rebase_store";
    std::filesystem::remove_all(dir);

    BlockStore peer;
    extend(peer, 6);
    peer.prune_to(4, Bytes{0x01});
    {
        BlockStore store(nullptr, dir);
        store.rebase(*peer.get(4), Bytes{0x01});
        store.append(*peer.get(5));
    }
    RecoveryReport report;
    BlockStore reloaded = BlockStore::load(dir, nullptr, &report);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(reloaded.base_height(), 4u);
    EXPECT_EQ(reloaded.head_height(), 5u);
    EXPECT_EQ(reloaded.head_hash(), peer.get(5)->hash());
    ASSERT_TRUE(reloaded.anchor().has_value());
    EXPECT_EQ(reloaded.anchor()->base_height, 4u);
    std::filesystem::remove_all(dir);
}

// -- find_forks: the offline cross-replica check -------------------------------

/// Appends one block at the next height built from `salt`'s requests: two
/// stores given different salts at one height fork there.
void extend_salted(BlockStore& store, std::uint64_t salt) {
    const Height h = store.head_height() + 1;
    store.append(Block::build(h, store.head_hash(), static_cast<std::int64_t>(h),
                              make_requests(5, salt)));
}

TEST(ReplicaForks, StoresThatDivergeAtOneHeightAreFlagged) {
    BlockStore a, b, c;
    for (BlockStore* s : {&a, &b, &c}) extend(*s, 4);
    extend_salted(a, 50);
    extend_salted(b, 51);  // b forks at height 5
    extend_salted(c, 50);
    for (BlockStore* s : {&a, &b, &c}) extend(*s, 3);
    ASSERT_TRUE(b.validate(0, b.head_height()));  // each store is sound alone

    const auto forks = find_forks({&a, &b, &c});
    ASSERT_EQ(forks.size(), 2u);
    EXPECT_EQ(forks[0].height, 5u);
    EXPECT_EQ(forks[0].a, 0u);
    EXPECT_EQ(forks[0].b, 1u);
    EXPECT_EQ(forks[1].height, 5u);
    EXPECT_EQ(forks[1].a, 1u);
    EXPECT_EQ(forks[1].b, 2u);

    // Pruned above the fork, a still disagrees with b at its new base:
    // the base header links to a different parent.
    a.prune_to(7, to_bytes("delete-cert"));
    const auto after_prune = find_forks({&a, &b});
    ASSERT_EQ(after_prune.size(), 1u);
    EXPECT_EQ(after_prune[0].height, 7u);
}

TEST(ReplicaForks, StoresPrunedToDifferentBasesAgree) {
    BlockStore a, b, c;
    for (BlockStore* s : {&a, &b, &c}) extend(*s, 10);
    a.prune_to(6, to_bytes("c1"));
    b.prune_to(3, to_bytes("c2"));
    extend(c, 2);  // c runs ahead of the others
    EXPECT_TRUE(find_forks({&a, &b, &c}).empty());

    // Stores that share no height cannot disagree.
    BlockStore d;
    extend(d, 4);
    EXPECT_TRUE(find_forks({&a, &d}).empty());
}

}  // namespace
}  // namespace zc::chain
