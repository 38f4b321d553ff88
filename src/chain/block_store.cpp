#include "chain/block_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "crypto/sha256.hpp"
#include "prof/prof.hpp"

namespace zc::chain {

namespace {

Bytes read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path.string());
    return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& path, BytesView data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + path.string());
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

/// Block files end with a sha256 trailer over the encoded block: the
/// recovery marker. A torn or bit-flipped file fails the trailer check
/// and is never served as a valid block.
constexpr std::size_t kChecksumBytes = sizeof(crypto::Digest);

void write_file_durable(const std::filesystem::path& path, BytesView data) {
    Bytes framed(data.begin(), data.end());
    const crypto::Digest sum = crypto::sha256(data);
    framed.insert(framed.end(), sum.begin(), sum.end());
    // Write-to-temp + rename so a crash mid-write leaves either the old
    // file or a discardable .tmp, never a half-written "valid" block.
    const std::filesystem::path tmp = path.string() + ".tmp";
    write_file(tmp, framed);
    std::filesystem::rename(tmp, path);
}

/// Strips and verifies the checksum trailer; returns false on a torn,
/// truncated, or corrupted file.
bool unframe_checked(Bytes& data) noexcept {
    if (data.size() < kChecksumBytes) return false;
    const std::size_t body = data.size() - kChecksumBytes;
    const crypto::Digest sum = crypto::sha256(BytesView(data.data(), body));
    if (std::memcmp(sum.data(), data.data() + body, kChecksumBytes) != 0) return false;
    data.resize(body);
    return true;
}

/// Height encoded in a `block_%012llu.bin` filename, or nullopt when the
/// name does not match (so corrupt files still have a known height).
std::optional<Height> height_from_name(const std::string& name) {
    if (!name.starts_with("block_") || !name.ends_with(".bin")) return std::nullopt;
    const std::string digits = name.substr(6, name.size() - 6 - 4);
    if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    return static_cast<Height>(std::strtoull(digits.c_str(), nullptr, 10));
}

/// The body of `extends`; `on_linked` sees each block once it has passed
/// its own checks, before the final digest comparison.
template <typename OnLinked>
bool check_extension(Height from_height, crypto::Digest prev, std::vector<Block>& blocks,
                     Height target, const crypto::Digest& state, const ChargeFn& charge,
                     OnLinked&& on_linked) {
    std::sort(blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
        return a.header.height < b.header.height;
    });
    std::vector<Block> kept;
    kept.reserve(blocks.size());
    for (Block& b : blocks) {
        if (b.header.height <= from_height || b.header.height > target) continue;
        if (!kept.empty() && kept.back().header.height == b.header.height) continue;
        kept.push_back(std::move(b));
    }
    blocks = std::move(kept);
    if (target < from_height || blocks.size() != target - from_height) return false;

    Height expect = from_height + 1;
    for (Block& b : blocks) {
        charge(b.size_bytes());
        if (b.header.height != expect || b.header.parent_hash != prev || !b.payload_valid()) {
            return false;
        }
        prev = b.hash();
        expect += 1;
        on_linked(b);
    }
    return prev == state;
}

}  // namespace

bool extends(Height from_height, const crypto::Digest& from_hash, std::vector<Block>& blocks,
             Height target, const crypto::Digest& state, const ChargeFn& charge) {
    return check_extension(from_height, from_hash, blocks, target, state, charge,
                           [](const Block&) {});
}

BlockStore::BlockStore(metrics::Gauge* gauge, std::optional<std::filesystem::path> dir)
    : gauge_(gauge), dir_(std::move(dir)) {
    if (dir_) std::filesystem::create_directories(*dir_);
    Block genesis = make_genesis();
    head_hash_ = genesis.hash();
    head_height_ = 0;
    base_height_ = 0;
    account(static_cast<std::int64_t>(genesis.size_bytes()));
    if (dir_) persist(genesis);
    entries_.emplace(0, Entry{std::move(genesis), true});
}

BlockStore::BlockStore(LoadTag, metrics::Gauge* gauge, std::filesystem::path dir)
    : gauge_(gauge), dir_(std::move(dir)) {}

BlockStore::~BlockStore() { release_accounting(); }

BlockStore::BlockStore(BlockStore&& other) noexcept
    : entries_(std::move(other.entries_)),
      base_height_(other.base_height_),
      head_height_(other.head_height_),
      head_hash_(other.head_hash_),
      anchor_(std::move(other.anchor_)),
      gauge_(other.gauge_),
      dir_(std::move(other.dir_)),
      stored_bytes_(other.stored_bytes_),
      trace_(other.trace_) {
    // The moved-from store no longer owns the gauge accounting.
    other.gauge_ = nullptr;
    other.stored_bytes_ = 0;
    other.entries_.clear();
}

BlockStore& BlockStore::operator=(BlockStore&& other) noexcept {
    if (this == &other) return *this;
    release_accounting();
    entries_ = std::move(other.entries_);
    base_height_ = other.base_height_;
    head_height_ = other.head_height_;
    head_hash_ = other.head_hash_;
    anchor_ = std::move(other.anchor_);
    gauge_ = other.gauge_;
    dir_ = std::move(other.dir_);
    stored_bytes_ = other.stored_bytes_;
    trace_ = other.trace_;
    other.gauge_ = nullptr;
    other.stored_bytes_ = 0;
    other.entries_.clear();
    return *this;
}

void BlockStore::release_accounting() noexcept {
    if (gauge_ != nullptr && stored_bytes_ > 0)
        gauge_->add(-static_cast<std::int64_t>(stored_bytes_));
    stored_bytes_ = 0;
}

BlockStore BlockStore::load(const std::filesystem::path& dir, metrics::Gauge* gauge,
                            RecoveryReport* report) {
    ZC_PROF_SCOPE(kStoreLoad);
    RecoveryReport local;
    RecoveryReport& rep = report != nullptr ? *report : local;
    rep = RecoveryReport{};

    if (!std::filesystem::exists(dir)) return BlockStore(gauge, dir);

    BlockStore store(LoadTag{}, gauge, dir);

    const auto anchor_path = dir / "anchor.bin";
    if (std::filesystem::exists(anchor_path)) {
        store.anchor_ = codec::decode_from_bytes<PruneAnchor>(read_file(anchor_path));
    }

    // Pass 1: decode every block file, separating verifiable blocks from
    // torn/corrupt ones. Heights come from the filename so even an
    // undecodable file is attributed to a definite position in the chain.
    std::map<Height, Block> blocks;
    std::map<Height, std::string> bad;  // height -> rejected file
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const auto name = entry.path().filename().string();
        if (name.ends_with(".tmp")) {
            // Interrupted append: the rename never happened, so the block
            // (if any) was re-proposed after restart. Always discard.
            rep.discarded_files.push_back(entry.path().string());
            rep.notes.push_back("interrupted write: " + name);
            continue;
        }
        if (!name.starts_with("block_")) continue;
        const std::optional<Height> named_height = height_from_name(name);
        if (!named_height) {
            rep.discarded_files.push_back(entry.path().string());
            rep.notes.push_back("unrecognized block file name: " + name);
            continue;
        }
        Bytes data = read_file(entry.path());
        if (!unframe_checked(data)) {
            bad.emplace(*named_height, entry.path().string());
            rep.notes.push_back("checksum mismatch (torn or corrupt): " + name);
            continue;
        }
        try {
            Block b = codec::decode_from_bytes<Block>(data);
            if (b.header.height != *named_height) {
                bad.emplace(*named_height, entry.path().string());
                rep.notes.push_back("height/filename mismatch: " + name);
                continue;
            }
            blocks.emplace(b.header.height, std::move(b));
        } catch (const std::exception&) {
            bad.emplace(*named_height, entry.path().string());
            rep.notes.push_back("undecodable block: " + name);
        }
    }
    if (blocks.empty() && bad.empty()) return BlockStore(gauge, dir);  // empty dir: fresh chain

    // Pass 2: keep the longest contiguous, hash-linked, payload-valid
    // prefix starting at the lowest on-disk height. Everything above the
    // first violation is untrusted — state transfer refills it.
    Height lowest = blocks.empty() ? bad.begin()->first : blocks.begin()->first;
    if (!bad.empty()) lowest = std::min(lowest, bad.begin()->first);
    Height keep_end = lowest;  // exclusive: first height NOT kept
    const Block* prev = nullptr;
    for (Height h = lowest;; ++h) {
        const auto it = blocks.find(h);
        if (it == blocks.end()) break;
        const Block& b = it->second;
        if (prev != nullptr && b.header.parent_hash != prev->hash()) {
            rep.notes.push_back("hash link broken at block " + std::to_string(h));
            break;
        }
        if (!b.payload_valid()) {
            rep.notes.push_back("payload root mismatch at block " + std::to_string(h));
            break;
        }
        prev = &b;
        keep_end = h + 1;
    }

    for (const auto& [h, block] : blocks) {
        if (h >= keep_end) {
            rep.blocks_discarded += 1;
            rep.discarded_files.push_back(store.block_path(h).string());
        }
    }
    for (const auto& [h, path] : bad) {
        rep.blocks_discarded += 1;
        rep.discarded_files.push_back(path);
    }

    if (keep_end == lowest) {
        // No valid prefix at all (e.g. the base block itself is corrupt):
        // the chain cannot anchor, so report unrepairable and hand back a
        // fresh in-memory genesis. Nothing on disk is overwritten here —
        // the first post-recovery append rewrites from height 1.
        rep.unrepairable = true;
        rep.notes.push_back("no valid prefix: store unrepairable, restarting from genesis");
        BlockStore fresh(LoadTag{}, gauge, dir);
        Block genesis = make_genesis();
        fresh.head_hash_ = genesis.hash();
        fresh.account(static_cast<std::int64_t>(genesis.size_bytes()));
        fresh.entries_.emplace(0, Entry{std::move(genesis), true});
        return fresh;
    }

    store.base_height_ = lowest;
    for (auto& [height, block] : blocks) {
        if (height >= keep_end) continue;
        store.account(static_cast<std::int64_t>(block.size_bytes()));
        store.head_height_ = height;
        store.head_hash_ = block.hash();
        store.entries_.emplace(height, Entry{std::move(block), true});
        rep.blocks_loaded += 1;
    }
    rep.recovered_head = store.head_height_;
    return store;
}

void BlockStore::account(std::int64_t delta) {
    stored_bytes_ = static_cast<std::size_t>(static_cast<std::int64_t>(stored_bytes_) + delta);
    if (gauge_) gauge_->add(delta);
}

std::size_t BlockStore::body_bytes(const Block& block) noexcept {
    std::size_t bytes = 0;
    for (const LoggedRequest& req : block.requests) bytes += req.size_bytes();
    return bytes;
}

std::filesystem::path BlockStore::block_path(Height height) const {
    char name[32];
    std::snprintf(name, sizeof name, "block_%012llu.bin",
                  static_cast<unsigned long long>(height));
    return *dir_ / name;
}

void BlockStore::persist(const Block& block) const {
    write_file_durable(block_path(block.header.height), codec::encode_to_bytes(block));
}

void BlockStore::append(Block block) {
    ZC_PROF_SCOPE(kStoreAppend);
    if (block.header.height != head_height_ + 1)
        throw std::invalid_argument("block height does not extend head");
    if (block.header.parent_hash != head_hash_)
        throw std::invalid_argument("block parent hash mismatch");
    if (!block.payload_valid()) throw std::invalid_argument("block payload root mismatch");

    head_height_ = block.header.height;
    head_hash_ = block.hash();
    account(static_cast<std::int64_t>(block.size_bytes()));
    if (dir_) persist(block);
    const Height h = block.header.height;
    trace_.event(trace::Phase::kBlockPersist, h, block.size_bytes());
    entries_.emplace(h, Entry{std::move(block), true});
}

bool BlockStore::adopt(std::vector<Block>& blocks, Height target, const crypto::Digest& state,
                       const ChargeFn& charge, const AdoptedFn& on_adopted) {
    const auto append_one = [&](Block& b) {
        if (on_adopted) on_adopted(b);
        append(std::move(b));
    };
#ifdef ZC_BREAK_VALIDATION
    // Pre-hardening behaviour, kept so CI can prove the safety auditor
    // catches the resulting poisoning: every block that links enters the
    // store before the checkpoint-digest check runs.
    const bool ok =
        check_extension(head_height_, head_hash_, blocks, target, state, charge, append_one);
#else
    const bool ok = extends(head_height_, head_hash_, blocks, target, state, charge);
    if (ok) std::for_each(blocks.begin(), blocks.end(), append_one);
#endif
    if (ok) blocks.clear();
    return ok;
}

const Block* BlockStore::get(Height height) const {
    const auto it = entries_.find(height);
    if (it == entries_.end() || !it->second.body_present) return nullptr;
    return &it->second.block;
}

const BlockHeader* BlockStore::header(Height height) const {
    const auto it = entries_.find(height);
    return it == entries_.end() ? nullptr : &it->second.block.header;
}

void BlockStore::prune_to(Height base, Bytes evidence) {
    if (base > head_height_) throw std::invalid_argument("prune base beyond head");
    if (base < base_height_) return;  // already pruned further

    const BlockHeader* base_header = header(base);
    if (base_header == nullptr) throw std::invalid_argument("prune base unknown");

    PruneAnchor anchor;
    anchor.base_height = base;
    anchor.base_hash = base_header->hash();
    anchor.evidence = std::move(evidence);

    for (auto it = entries_.begin(); it != entries_.end() && it->first < base;) {
        std::size_t bytes = sizeof(BlockHeader);
        if (it->second.body_present) bytes += body_bytes(it->second.block);
        account(-static_cast<std::int64_t>(bytes));
        if (dir_) std::filesystem::remove(block_path(it->first));
        it = entries_.erase(it);
    }
    base_height_ = base;
    anchor_ = std::move(anchor);
    if (dir_) write_file(*dir_ / "anchor.bin", codec::encode_to_bytes(*anchor_));
    trace_.event(trace::Phase::kPrune, base, stored_bytes_);
}

void BlockStore::rebase(Block base_block, Bytes evidence) {
    const Height base = base_block.header.height;
    if (base <= head_height_) throw std::invalid_argument("rebase not above head");

    for (auto it = entries_.begin(); it != entries_.end();) {
        std::size_t bytes = sizeof(BlockHeader);
        if (it->second.body_present) bytes += body_bytes(it->second.block);
        account(-static_cast<std::int64_t>(bytes));
        if (dir_) std::filesystem::remove(block_path(it->first));
        it = entries_.erase(it);
    }

    PruneAnchor anchor;
    anchor.base_height = base;
    anchor.base_hash = base_block.hash();
    anchor.evidence = std::move(evidence);

    head_hash_ = base_block.hash();
    head_height_ = base;
    base_height_ = base;
    account(static_cast<std::int64_t>(base_block.size_bytes()));
    if (dir_) persist(base_block);
    entries_.emplace(base, Entry{std::move(base_block), true});
    anchor_ = std::move(anchor);
    if (dir_) write_file(*dir_ / "anchor.bin", codec::encode_to_bytes(*anchor_));
    trace_.event(trace::Phase::kPrune, base, stored_bytes_);
}

void BlockStore::trim_bodies_to(Height height) {
    for (auto& [h, entry] : entries_) {
        if (h > height || !entry.body_present) continue;
        account(-static_cast<std::int64_t>(body_bytes(entry.block)));
        entry.block.requests.clear();
        entry.body_present = false;
    }
    trace_.event(trace::Phase::kTrimBodies, height, stored_bytes_);
}

bool BlockStore::validate(Height from, Height to) const {
    if (from > to || to > head_height_ || from < base_height_) return false;
    const BlockHeader* prev = nullptr;
    for (Height h = from; h <= to; ++h) {
        const auto it = entries_.find(h);
        if (it == entries_.end()) return false;
        const Entry& entry = it->second;
        if (prev != nullptr && entry.block.header.parent_hash != prev->hash()) return false;
        if (entry.body_present && !entry.block.payload_valid()) return false;
        prev = &entry.block.header;
    }
    return true;
}

std::vector<Block> BlockStore::range(Height from, Height to) const {
    std::vector<Block> out;
    for (Height h = from; h <= to; ++h) {
        const Block* b = get(h);
        if (b != nullptr) out.push_back(*b);
    }
    return out;
}

std::vector<Fork> find_forks(const std::vector<const BlockStore*>& replicas) {
    std::vector<Fork> forks;
    for (std::size_t a = 0; a < replicas.size(); ++a) {
        for (std::size_t b = a + 1; b < replicas.size(); ++b) {
            const BlockStore& x = *replicas[a];
            const BlockStore& y = *replicas[b];
            const Height hi = std::min(x.head_height(), y.head_height());
            for (Height h = std::max(x.base_height(), y.base_height()); h <= hi; ++h) {
                const BlockHeader* hx = x.header(h);
                const BlockHeader* hy = y.header(h);
                if (hx != nullptr && hy != nullptr && hx->hash() != hy->hash()) {
                    forks.push_back({h, a, b});
                    break;
                }
            }
        }
    }
    return forks;
}

}  // namespace zc::chain

