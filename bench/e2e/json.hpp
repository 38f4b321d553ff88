// Minimal JSON document model for the benchmark's own files: the result
// line a child run prints, BENCH_e2e.json, and BENCHMARK.json. Objects keep
// insertion order so every file zc_bench writes is byte-stable for equal
// content. Numbers are doubles; strings are byte strings with the standard
// escapes (no \u decoding beyond ASCII), which is all these files use.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zc::e2e::json {

class Value {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Value() = default;
    Value(bool b) : type_(Type::kBool), bool_(b) {}
    Value(double v) : type_(Type::kNumber), num_(v) {}
    Value(int v) : Value(static_cast<double>(v)) {}
    Value(unsigned v) : Value(static_cast<double>(v)) {}
    Value(long v) : Value(static_cast<double>(v)) {}
    Value(unsigned long v) : Value(static_cast<double>(v)) {}
    Value(long long v) : Value(static_cast<double>(v)) {}
    Value(unsigned long long v) : Value(static_cast<double>(v)) {}
    Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
    Value(const char* s) : Value(std::string(s)) {}

    static Value array() { return Value(Type::kArray); }
    static Value object() { return Value(Type::kObject); }

    Type type() const noexcept { return type_; }
    bool is_null() const noexcept { return type_ == Type::kNull; }
    bool is_number() const noexcept { return type_ == Type::kNumber; }
    bool is_object() const noexcept { return type_ == Type::kObject; }

    bool as_bool() const noexcept { return type_ == Type::kBool && bool_; }
    double as_number() const noexcept { return type_ == Type::kNumber ? num_ : 0.0; }
    const std::string& as_string() const noexcept { return str_; }
    const std::vector<Value>& items() const noexcept { return arr_; }
    const std::vector<std::pair<std::string, Value>>& members() const noexcept { return obj_; }

    /// Object member, or null when absent (or when this is no object).
    const Value* find(std::string_view key) const noexcept;
    /// Object member; throws std::runtime_error when absent.
    const Value& at(std::string_view key) const;

    /// Appends to an array.
    Value& push(Value v);
    /// Sets an object member, replacing an existing one of the same name.
    Value& set(std::string key, Value v);

    /// Compact serialization; numbers print with 17 significant digits,
    /// non-finite numbers as null.
    std::string dump() const;

private:
    explicit Value(Type t) : type_(t) {}
    void dump_to(std::string& out) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

/// Parses one JSON document; on failure returns nullopt and describes the
/// first error in `error` (when given).
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// Reads and parses a file; nullopt (with `error`) when unreadable or invalid.
std::optional<Value> parse_file(const std::string& path, std::string* error = nullptr);

}  // namespace zc::e2e::json
