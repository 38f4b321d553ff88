// zc_inspect — offline inspection of a persisted ZugChain block store
// (what an investigator runs against a salvaged node's flash).
//
//   zc_inspect <store-dir>              summary + integrity verification
//   zc_inspect <store-dir> --dump H     decode the records of block H
//   zc_inspect <store-dir> --events     list juridically notable events
//   zc_inspect <store-dir> --health     offline chain health: recording
//                                       cadence, gaps/stalls, body and
//                                       export coverage (alarm-typed)
//   zc_inspect <store-dir> --verify     strict check: exit 0 only if the
//                                       store loads without discarding
//                                       anything and the chain validates
//   zc_inspect <store-dir> --repair     truncate a torn/corrupt tail:
//                                       delete the block files load
//                                       refused to trust, print each one
//
// Fleet mode — a salvaged fleet store root with per-train subdirectories
// (as written by `zugchain_sim --fleet N --store-dir DIR`, i.e.
// DIR/train-<t>/node-<i>):
//
//   zc_inspect --store-dir DIR          per-train summary table, every
//                                       shard store verified and the
//                                       shard's replicas cross-checked
//   zc_inspect --store-dir DIR --verify strict: exit 0 only if every
//                                       store is clean and validates and
//                                       no two replicas of a shard hold
//                                       different headers at one height
//                                       ("fork at height H: node-a vs
//                                       node-b")
//   zc_inspect --store-dir DIR --repair truncate torn tails in every
//                                       store that has one
//
// --json switches the summary, --verify, --health and --store-dir walks
// to a machine-readable single-line JSON report on stdout (exit codes
// unchanged); it does not combine with --dump/--events/--repair.
//
// Exit codes: 0 ok, 1 integrity/recovery findings, 2 usage,
// 3 unrepairable store (no valid prefix behind the corruption).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "chain/block_store.hpp"
#include "common/hex.hpp"
#include "export/messages.hpp"
#include "health/health.hpp"
#include "train/signal.hpp"

using namespace zc;

namespace {

const char* signal_name(train::SignalKind kind) {
    switch (kind) {
        case train::SignalKind::kSpeed: return "speed(c-km/h)";
        case train::SignalKind::kOdometer: return "odometer(m)";
        case train::SignalKind::kBrakePressure: return "brake-pipe(mbar)";
        case train::SignalKind::kEmergencyBrake: return "EMERGENCY-BRAKE";
        case train::SignalKind::kDoorState: return "doors";
        case train::SignalKind::kAtpIntervention: return "ATP-INTERVENTION";
        case train::SignalKind::kTractionCommand: return "traction(permille)";
        case train::SignalKind::kHorn: return "horn";
        case train::SignalKind::kCabSignal: return "cab-signal";
    }
    return "?";
}

void dump_block(const chain::BlockStore& store, Height height) {
    const chain::Block* block = store.get(height);
    if (block == nullptr) {
        std::printf("block %llu: body not available (pruned or trimmed)\n",
                    static_cast<unsigned long long>(height));
        return;
    }
    std::printf("block %llu  hash=%s\n", static_cast<unsigned long long>(height),
                to_hex(crypto::view(block->hash())).c_str());
    std::printf("  parent=%s\n", to_hex(crypto::view(block->header.parent_hash)).c_str());
    std::printf("  %u requests, payload root ok: %s\n", block->header.request_count,
                block->payload_valid() ? "yes" : "NO");
    for (const auto& req : block->requests) {
        const auto record = codec::try_decode<train::LogRecord>(req.payload);
        if (!record) {
            std::printf("  seq %-6llu origin %u: %zu B (not a JRU record — flagged)\n",
                        static_cast<unsigned long long>(req.seq), req.origin,
                        req.payload.size());
            continue;
        }
        std::printf("  seq %-6llu origin %u cycle %-8llu t=%.3fs:",
                    static_cast<unsigned long long>(req.seq), req.origin,
                    static_cast<unsigned long long>(record->cycle),
                    static_cast<double>(record->timestamp_ns) / 1e9);
        for (const auto& s : record->signals) {
            std::printf(" %s=%lld", signal_name(s.kind), static_cast<long long>(s.value));
        }
        std::printf("\n");
    }
}

void list_events(const chain::BlockStore& store) {
    std::printf("%-10s %-8s %-8s %s\n", "time (s)", "block", "origin", "event");
    for (Height h = store.base_height(); h <= store.head_height(); ++h) {
        const chain::Block* block = store.get(h);
        if (block == nullptr) continue;
        for (const auto& req : block->requests) {
            const auto record = codec::try_decode<train::LogRecord>(req.payload);
            if (!record) {
                std::printf("%-10s %-8llu %-8u foreign payload (%zu B)\n", "-",
                            static_cast<unsigned long long>(h), req.origin,
                            req.payload.size());
                continue;
            }
            for (const auto& s : record->signals) {
                const bool notable =
                    (s.kind == train::SignalKind::kEmergencyBrake && s.value != 0) ||
                    (s.kind == train::SignalKind::kAtpIntervention && s.value != 0) ||
                    s.kind == train::SignalKind::kDoorState ||
                    (s.kind == train::SignalKind::kHorn && s.value != 0);
                if (!notable) continue;
                std::printf("%-10.3f %-8llu %-8u %s=%lld\n",
                            static_cast<double>(record->timestamp_ns) / 1e9,
                            static_cast<unsigned long long>(h), req.origin,
                            signal_name(s.kind), static_cast<long long>(s.value));
            }
        }
    }
}

/// What a stored chain alone reveals about how recording went, computed
/// once and rendered as either the human table or the --json report.
struct HealthReadout {
    std::size_t trimmed_bodies = 0;
    double median_cadence_s = 0;
    double max_gap_s = 0;
    std::vector<health::Alarm> alarms;
};

/// Offline health read-out, reported with the same alarm vocabulary the
/// online watchdogs use (so an investigator sees "stalled_view" both in a
/// live health dump and on the salvaged flash).
HealthReadout compute_health(const chain::BlockStore& store) {
    const Height base = store.base_height();
    const Height head = store.head_height();
    HealthReadout readout;
    std::vector<health::Alarm>& alarms = readout.alarms;

    // Block headers are timestamped with the consensus sequence number
    // (deterministic across replicas); wall-clock style times live inside
    // the logged JRU records. Recording cadence therefore comes from the
    // newest record timestamp of each block body.
    std::size_t missing_headers = 0;
    std::size_t& trimmed_bodies = readout.trimmed_bodies;
    std::vector<std::pair<Height, double>> block_times;  // height -> latest record t (s)
    for (Height h = base; h <= head; ++h) {
        const chain::BlockHeader* hdr = store.header(h);
        if (hdr == nullptr) {
            ++missing_headers;
            health::Alarm a;
            a.kind = health::AlarmKind::kChainGap;
            a.detail = "header missing at block " + std::to_string(h);
            alarms.push_back(std::move(a));
            continue;
        }
        const chain::Block* block = store.get(h);
        if (block == nullptr) {
            if (h > base) ++trimmed_bodies;  // the base block legitimately has no body
            continue;
        }
        double t = -1;
        for (const auto& req : block->requests) {
            const auto record = codec::try_decode<train::LogRecord>(req.payload);
            if (record) t = std::max(t, static_cast<double>(record->timestamp_ns) / 1e9);
        }
        if (t >= 0) block_times.emplace_back(h, t);
    }

    std::vector<double> gaps_s;
    for (std::size_t i = 1; i < block_times.size(); ++i) {
        gaps_s.push_back(block_times[i].second - block_times[i - 1].second);
    }
    double median_s = 0, max_gap_s = 0;
    Height max_gap_after = base;
    double max_gap_at_s = 0;
    if (!gaps_s.empty()) {
        std::vector<double> sorted = gaps_s;
        std::sort(sorted.begin(), sorted.end());
        median_s = sorted[sorted.size() / 2];
        for (std::size_t i = 0; i < gaps_s.size(); ++i) {
            if (gaps_s[i] > max_gap_s) {
                max_gap_s = gaps_s[i];
                max_gap_after = block_times[i].first;
                max_gap_at_s = block_times[i].second;
            }
        }
    }

    readout.median_cadence_s = median_s;
    readout.max_gap_s = max_gap_s;

    // A recording stall shows up on the flash as a timestamp gap between
    // consecutive blocks far beyond the steady cadence (timeouts + view
    // change before the next block could form).
    if (max_gap_s > 1.0 && median_s > 0 && max_gap_s > 5.0 * median_s) {
        health::Alarm a;
        a.kind = health::AlarmKind::kStalledView;
        a.first_seen = millis_f(max_gap_at_s * 1000.0);
        char detail[128];
        std::snprintf(detail, sizeof detail,
                      "recording gap of %.3f s after block %llu (median cadence %.3f s)",
                      max_gap_s, static_cast<unsigned long long>(max_gap_after), median_s);
        a.detail = detail;
        alarms.push_back(std::move(a));
    }

    return readout;
}

void print_health(const chain::BlockStore& store, const HealthReadout& readout) {
    const Height base = store.base_height();
    const Height head = store.head_height();
    std::printf("\n-- health --\n");
    std::printf("blocks retained         : %llu..%llu (%zu headers, %zu bodies trimmed)\n",
                static_cast<unsigned long long>(base), static_cast<unsigned long long>(head),
                store.size(), readout.trimmed_bodies);
    std::printf("block cadence           : median %.3f s, max gap %.3f s\n",
                readout.median_cadence_s, readout.max_gap_s);

    if (store.anchor()) {
        std::printf("export coverage         : pruned below block %llu (delete evidence "
                    "anchored), %llu blocks unexported\n",
                    static_cast<unsigned long long>(store.anchor()->base_height),
                    static_cast<unsigned long long>(head - base));
    } else {
        std::printf("export coverage         : no prune anchor — nothing exported yet "
                    "(%llu blocks on flash)\n",
                    static_cast<unsigned long long>(head - base));
    }

    std::printf("alarms                  : %zu\n", readout.alarms.size());
    for (const auto& alarm : readout.alarms) {
        std::printf("  %s: %s\n", health::alarm_kind_name(alarm.kind), alarm.detail.c_str());
    }
}

std::string health_json(const HealthReadout& readout) {
    std::string out;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "{\"trimmed_bodies\":%zu,\"median_cadence_s\":%.3f,\"max_gap_s\":%.3f,"
                  "\"alarms\":[",
                  readout.trimmed_bodies, readout.median_cadence_s, readout.max_gap_s);
    out += buf;
    for (std::size_t i = 0; i < readout.alarms.size(); ++i) {
        if (i > 0) out += ',';
        out += "{\"kind\":\"";
        out += health::alarm_kind_name(readout.alarms[i].kind);
        out += "\",\"detail\":\"" + health::json_escape(readout.alarms[i].detail) + "\"}";
    }
    out += "]}";
    return out;
}

/// Fleet store root: DIR/train-<t>/node-<i> per shard replica (a root
/// holding bare node-<i> directories is treated as one unnamed train).
/// Verifies (and with `repair`, truncates) every store and prints one row
/// per replica, every fork between two of a shard's replicas
/// (chain::find_forks), and a per-train verdict.
int inspect_fleet_root(const std::string& root, bool verify, bool repair, bool json) {
    namespace fs = std::filesystem;
    // train label -> sorted node store directories
    std::map<std::string, std::vector<fs::path>> trains;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(root, ec)) {
        if (!entry.is_directory()) continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("train-", 0) == 0) {
            auto& nodes = trains[name];
            for (const auto& sub : fs::directory_iterator(entry.path())) {
                if (sub.is_directory() &&
                    sub.path().filename().string().rfind("node-", 0) == 0) {
                    nodes.push_back(sub.path());
                }
            }
        } else if (name.rfind("node-", 0) == 0) {
            trains[""].push_back(entry.path());
        }
    }
    if (ec) {
        std::fprintf(stderr, "cannot read %s: %s\n", root.c_str(), ec.message().c_str());
        return 2;
    }
    if (trains.empty()) {
        std::fprintf(stderr, "%s: no train-*/node-* or node-* store directories\n",
                     root.c_str());
        return 2;
    }
    for (auto& [train, nodes] : trains) std::sort(nodes.begin(), nodes.end());

    if (!json) {
        std::printf("fleet store root: %s (%zu trains)\n\n", root.c_str(), trains.size());
        std::printf("%-10s %-8s %12s %10s %10s  %s\n", "train", "node", "blocks", "retained",
                    "discarded", "integrity");
    }

    int rc = 0;
    std::size_t stores = 0, clean_stores = 0;
    std::string jout = "{\"root\":\"" + health::json_escape(root) + "\",\"trains\":[";
    bool first_train = true;
    for (const auto& [train, nodes] : trains) {
        const std::string train_label = train.empty() ? "(root)" : train;
        if (!first_train) jout += ',';
        first_train = false;
        jout += "{\"train\":\"" + health::json_escape(train_label) + "\",\"nodes\":[";
        bool train_clean = true;
        bool first_node = true;
        std::vector<chain::BlockStore> loaded;
        std::vector<std::string> loaded_names;
        for (const fs::path& dir : nodes) {
            ++stores;
            chain::RecoveryReport report;
            chain::BlockStore store = chain::BlockStore::load(dir.string(), nullptr, &report);
            const bool valid = store.validate(store.base_height(), store.head_height());
            const bool clean = report.clean() && valid;

            char range[32];
            std::snprintf(range, sizeof range, "%llu..%llu",
                          static_cast<unsigned long long>(store.base_height()),
                          static_cast<unsigned long long>(store.head_height()));
            if (json) {
                char row[256];
                std::snprintf(row, sizeof row,
                              "%s{\"node\":\"%s\",\"base\":%llu,\"head\":%llu,"
                              "\"retained\":%zu,\"discarded\":%llu,\"valid\":%s,"
                              "\"clean\":%s,\"unrepairable\":%s}",
                              first_node ? "" : ",", dir.filename().string().c_str(),
                              static_cast<unsigned long long>(store.base_height()),
                              static_cast<unsigned long long>(store.head_height()),
                              store.size(),
                              static_cast<unsigned long long>(report.blocks_discarded),
                              valid ? "true" : "false", report.clean() ? "true" : "false",
                              report.unrepairable ? "true" : "false");
                jout += row;
                first_node = false;
            } else {
                std::printf("%-10s %-8s %12s %10zu %10llu  %s%s\n", train_label.c_str(),
                            dir.filename().string().c_str(), range, store.size(),
                            static_cast<unsigned long long>(report.blocks_discarded),
                            valid ? (report.clean() ? "VERIFIED" : "RECOVERED") : "BROKEN",
                            report.unrepairable ? " (UNREPAIRABLE)" : "");
                for (const auto& note : report.notes) {
                    std::printf("%-10s %-8s   note: %s\n", "", "", note.c_str());
                }
            }

            if (report.unrepairable) {
                rc = 3;
                train_clean = false;
                continue;
            }
            loaded.push_back(std::move(store));
            loaded_names.push_back(dir.filename().string());
            if (repair && !report.discarded_files.empty()) {
                for (const auto& file : report.discarded_files) {
                    std::error_code rm_ec;
                    fs::remove(fs::path(file), rm_ec);
                    std::printf("%-10s %-8s   repair: removed %s%s\n", "", "", file.c_str(),
                                rm_ec ? " (FAILED)" : "");
                    if (rm_ec && rc == 0) rc = 1;
                }
                std::printf("%-10s %-8s   repair: truncated to block %llu\n", "", "",
                            static_cast<unsigned long long>(report.recovered_head));
            }
            if (!clean) {
                train_clean = false;
                if (!repair && rc == 0) rc = 1;
            } else {
                ++clean_stores;
            }
        }
        std::vector<const chain::BlockStore*> replicas;
        for (const chain::BlockStore& st : loaded) replicas.push_back(&st);
        jout += "],\"forks\":[";
        bool first_fork = true;
        for (const chain::Fork& fork : chain::find_forks(replicas)) {
            const auto height = static_cast<unsigned long long>(fork.height);
            const std::string& a = loaded_names[fork.a];
            const std::string& b = loaded_names[fork.b];
            if (json) {
                jout += std::string(first_fork ? "" : ",") + "{\"height\":" +
                        std::to_string(height) + ",\"a\":\"" + health::json_escape(a) + "\",\"b\":\"" +
                        health::json_escape(b) + "\"}";
            } else {
                std::printf("%-10s %-8s   fork at height %llu: %s vs %s\n", train_label.c_str(),
                            "--", height, a.c_str(), b.c_str());
            }
            first_fork = false;
            train_clean = false;
            if (rc == 0) rc = 1;
        }
        jout += std::string("],\"clean\":") + (train_clean ? "true" : "false") + "}";
        if (!json) {
            std::printf("%-10s %-8s %12s %10s %10s  %s\n", train_label.c_str(), "--", "", "",
                        "", train_clean ? "shard ok" : "shard has findings");
        }
    }
    if (verify && clean_stores != stores && rc == 0) rc = 1;
    if (json) {
        char tail[96];
        std::snprintf(tail, sizeof tail, "],\"stores\":%zu,\"clean_stores\":%zu,\"exit\":%d}",
                      stores, clean_stores, rc);
        jout += tail;
        std::printf("%s\n", jout.c_str());
    } else {
        std::printf("\n%zu/%zu stores clean\n", clean_stores, stores);
    }
    return rc;
}

void print_recovery(const chain::RecoveryReport& report) {
    std::printf("recovery: %llu blocks restored, %llu discarded%s\n",
                static_cast<unsigned long long>(report.blocks_loaded),
                static_cast<unsigned long long>(report.blocks_discarded),
                report.unrepairable ? " — UNREPAIRABLE (no valid prefix)" : "");
    for (const auto& note : report.notes) std::printf("  note: %s\n", note.c_str());
}

}  // namespace

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <store-dir> [--dump HEIGHT | --events | --health | --verify |"
                 " --repair] [--json]\n"
                 "       %s --store-dir <fleet-root> [--verify | --repair] [--json]\n",
                 argv0, argv0);
    return 2;
}

int main(int argc, char** argv) {
    std::string dir, fleet_root, cmd;
    Height dump_height = 0;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--store-dir") {
            if (i + 1 >= argc) return usage(argv[0]);
            fleet_root = argv[++i];
        } else if (arg == "--dump") {
            if (i + 1 >= argc) return usage(argv[0]);
            cmd = arg;
            dump_height = static_cast<Height>(std::stoull(argv[++i]));
        } else if (arg == "--events" || arg == "--health" || arg == "--verify" ||
                   arg == "--repair") {
            cmd = arg;
        } else if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "%s: unknown flag: %s\n", argv[0], arg.c_str());
            return usage(argv[0]);
        } else if (dir.empty()) {
            dir = arg;
        } else {
            std::fprintf(stderr, "%s: unexpected argument: %s\n", argv[0], arg.c_str());
            return usage(argv[0]);
        }
    }
    if (dir.empty() && fleet_root.empty()) return usage(argv[0]);
    if (!dir.empty() && !fleet_root.empty()) return usage(argv[0]);
    // --json reports on store state; the record dumps and the mutating
    // repair keep their line-oriented output.
    if (json && (cmd == "--dump" || cmd == "--events" || cmd == "--repair")) {
        std::fprintf(stderr, "%s: --json does not combine with %s\n", argv[0], cmd.c_str());
        return usage(argv[0]);
    }

    if (!fleet_root.empty()) {
        if (cmd != "" && cmd != "--verify" && cmd != "--repair") {
            std::fprintf(stderr, "%s: %s needs a single <store-dir>\n", argv[0], cmd.c_str());
            return usage(argv[0]);
        }
        return inspect_fleet_root(fleet_root, cmd == "--verify", cmd == "--repair", json);
    }

    const bool verify = cmd == "--verify";
    const bool repair = cmd == "--repair";

    chain::RecoveryReport report;
    chain::BlockStore store = chain::BlockStore::load(dir, nullptr, &report);
    const bool valid = store.validate(store.base_height(), store.head_height());

    if (json) {
        // One line, one object: the summary an automated salvage pipeline
        // consumes. `exit` mirrors the process exit code.
        const int rc = report.unrepairable ? 3 : ((report.clean() && valid) ? 0 : 1);
        std::string out;
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\"store\":\"%s\",\"base\":%llu,\"head\":%llu,\"retained\":%zu,"
                      "\"stored_bytes\":%llu,\"valid\":%s,\"clean\":%s,"
                      "\"unrepairable\":%s,\"blocks_loaded\":%llu,\"blocks_discarded\":%llu,"
                      "\"head_hash\":\"%s\"",
                      health::json_escape(dir).c_str(),
                      static_cast<unsigned long long>(store.base_height()),
                      static_cast<unsigned long long>(store.head_height()), store.size(),
                      static_cast<unsigned long long>(store.stored_bytes()),
                      valid ? "true" : "false", report.clean() ? "true" : "false",
                      report.unrepairable ? "true" : "false",
                      static_cast<unsigned long long>(report.blocks_loaded),
                      static_cast<unsigned long long>(report.blocks_discarded),
                      to_hex(crypto::view(store.head_hash())).c_str());
        out += buf;
        if (store.anchor()) {
            const auto deletes = exporter::decode_delete_evidence(store.anchor()->evidence);
            std::snprintf(buf, sizeof buf,
                          ",\"anchor\":{\"base_height\":%llu,\"delete_signatures\":%zu}",
                          static_cast<unsigned long long>(store.anchor()->base_height),
                          deletes ? deletes->size() : 0);
            out += buf;
        } else {
            out += ",\"anchor\":null";
        }
        if (cmd == "--health") out += ",\"health\":" + health_json(compute_health(store));
        std::snprintf(buf, sizeof buf, ",\"exit\":%d}", rc);
        out += buf;
        std::printf("%s\n", out.c_str());
        return rc;
    }

    std::printf("store: %s\n", dir.c_str());
    std::printf("blocks %llu..%llu (%zu retained, %zu KiB)\n",
                static_cast<unsigned long long>(store.base_height()),
                static_cast<unsigned long long>(store.head_height()), store.size(),
                store.stored_bytes() / 1024);

    std::printf("integrity: %s\n", valid ? "VERIFIED" : "BROKEN (tampering or corruption)");
    std::printf("head hash: %s\n", to_hex(crypto::view(store.head_hash())).c_str());
    if (!report.clean()) print_recovery(report);

    if (store.anchor()) {
        const auto deletes = exporter::decode_delete_evidence(store.anchor()->evidence);
        std::printf("prune anchor: base %llu, %s data-center delete signatures\n",
                    static_cast<unsigned long long>(store.anchor()->base_height),
                    deletes ? std::to_string(deletes->size()).c_str() : "undecodable");
    }

    if (repair) {
        // Offline torn-tail truncation: the load already decided which
        // files cannot be part of a valid prefix; removing them leaves a
        // store that reloads cleanly. The restored prefix stays untouched.
        if (report.unrepairable) {
            std::printf("repair: refusing — no valid prefix to keep (preserve the directory "
                        "for forensics)\n");
            return 3;
        }
        if (report.discarded_files.empty()) {
            std::printf("repair: nothing to do, store is clean\n");
            return 0;
        }
        for (const auto& file : report.discarded_files) {
            std::error_code ec;
            std::filesystem::remove(std::filesystem::path(file), ec);
            std::printf("repair: removed %s%s\n", file.c_str(),
                        ec ? " (FAILED)" : "");
            if (ec) return 1;
        }
        std::printf("repair: store truncated to block %llu\n",
                    static_cast<unsigned long long>(report.recovered_head));
        return 0;
    }
    if (verify) {
        if (report.unrepairable) return 3;
        return (report.clean() && valid) ? 0 : 1;
    }

    if (cmd == "--dump") {
        dump_block(store, dump_height);
    } else if (cmd == "--events") {
        list_events(store);
    } else if (cmd == "--health") {
        print_health(store, compute_health(store));
    }
    return valid ? 0 : 1;
}
