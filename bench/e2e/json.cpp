#include "json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace zc::e2e::json {

const Value* Value::find(std::string_view key) const noexcept {
    for (const auto& [k, v] : obj_) {
        if (k == key) return &v;
    }
    return nullptr;
}

const Value& Value::at(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr) throw std::runtime_error("JSON member \"" + std::string(key) + "\" missing");
    return *v;
}

Value& Value::push(Value v) {
    arr_.push_back(std::move(v));
    return arr_.back();
}

Value& Value::set(std::string key, Value v) {
    for (auto& [k, existing] : obj_) {
        if (k == key) {
            existing = std::move(v);
            return existing;
        }
    }
    obj_.emplace_back(std::move(key), std::move(v));
    return obj_.back().second;
}

namespace {

void dump_string(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

class Parser {
public:
    explicit Parser(std::string_view text) : s_(text) {}

    std::optional<Value> document(std::string* error) {
        std::optional<Value> v = value();
        skip_ws();
        if (v && pos_ != s_.size()) fail("trailing characters");
        if (!error_.empty()) {
            if (error != nullptr) *error = error_ + " at offset " + std::to_string(pos_);
            return std::nullopt;
        }
        return v;
    }

private:
    void fail(const char* what) {
        if (error_.empty()) error_ = what;
    }
    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' || s_[pos_] == '\t')) {
            ++pos_;
        }
    }
    bool consume(std::string_view lit) {
        if (s_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    std::optional<Value> value() {
        if (++depth_ > 64) {
            fail("nesting too deep");
            return std::nullopt;
        }
        skip_ws();
        std::optional<Value> out;
        if (pos_ >= s_.size()) {
            fail("unexpected end");
        } else if (s_[pos_] == '{') {
            out = object();
        } else if (s_[pos_] == '[') {
            out = array();
        } else if (s_[pos_] == '"') {
            if (auto str = string()) out = Value(std::move(*str));
        } else if (consume("true")) {
            out = Value(true);
        } else if (consume("false")) {
            out = Value(false);
        } else if (consume("null")) {
            out = Value();
        } else {
            out = number();
        }
        --depth_;
        return out;
    }

    std::optional<Value> object() {
        Value obj = Value::object();
        ++pos_;  // '{'
        skip_ws();
        if (consume("}")) return obj;
        while (true) {
            skip_ws();
            std::optional<std::string> key = string();
            if (!key) return std::nullopt;
            skip_ws();
            if (!consume(":")) {
                fail("expected ':'");
                return std::nullopt;
            }
            std::optional<Value> v = value();
            if (!v) return std::nullopt;
            obj.set(std::move(*key), std::move(*v));
            skip_ws();
            if (consume("}")) return obj;
            if (!consume(",")) {
                fail("expected ',' or '}'");
                return std::nullopt;
            }
        }
    }

    std::optional<Value> array() {
        Value arr = Value::array();
        ++pos_;  // '['
        skip_ws();
        if (consume("]")) return arr;
        while (true) {
            std::optional<Value> v = value();
            if (!v) return std::nullopt;
            arr.push(std::move(*v));
            skip_ws();
            if (consume("]")) return arr;
            if (!consume(",")) {
                fail("expected ',' or ']'");
                return std::nullopt;
            }
        }
    }

    std::optional<std::string> string() {
        if (pos_ >= s_.size() || s_[pos_] != '"') {
            fail("expected string");
            return std::nullopt;
        }
        ++pos_;
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size()) break;
                const char e = s_[pos_++];
                switch (e) {
                    case 'n': c = '\n'; break;
                    case 't': c = '\t'; break;
                    case 'r': c = '\r'; break;
                    case 'b': c = '\b'; break;
                    case 'f': c = '\f'; break;
                    case 'u': {
                        if (pos_ + 4 > s_.size()) {
                            fail("short \\u escape");
                            return std::nullopt;
                        }
                        const long code =
                            std::strtol(std::string(s_.substr(pos_, 4)).c_str(), nullptr, 16);
                        pos_ += 4;
                        c = code < 0x80 ? static_cast<char>(code) : '?';
                        break;
                    }
                    default: c = e;  // '"', '\\', '/'
                }
            }
            out += c;
        }
        if (pos_ >= s_.size()) {
            fail("unterminated string");
            return std::nullopt;
        }
        ++pos_;  // closing '"'
        return out;
    }

    std::optional<Value> number() {
        const std::size_t start = pos_;
        while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                    s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                                    s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
        }
        const std::string token(s_.substr(start, pos_ - start));
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (token.empty() || end != token.c_str() + token.size()) {
            fail("invalid value");
            return std::nullopt;
        }
        return Value(v);
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

}  // namespace

void Value::dump_to(std::string& out) const {
    switch (type_) {
        case Type::kNull: out += "null"; break;
        case Type::kBool: out += bool_ ? "true" : "false"; break;
        case Type::kNumber: {
            if (!std::isfinite(num_)) {
                out += "null";
                break;
            }
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", num_);
            out += buf;
            break;
        }
        case Type::kString: dump_string(out, str_); break;
        case Type::kArray: {
            out += '[';
            for (std::size_t i = 0; i < arr_.size(); ++i) {
                if (i != 0) out += ',';
                arr_[i].dump_to(out);
            }
            out += ']';
            break;
        }
        case Type::kObject: {
            out += '{';
            for (std::size_t i = 0; i < obj_.size(); ++i) {
                if (i != 0) out += ',';
                dump_string(out, obj_[i].first);
                out += ':';
                obj_[i].second.dump_to(out);
            }
            out += '}';
            break;
        }
    }
}

std::string Value::dump() const {
    std::string out;
    dump_to(out);
    return out;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
    return Parser(text).document(error);
}

std::optional<Value> parse_file(const std::string& path, std::string* error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) *error = "cannot read " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string parse_error;
    std::optional<Value> v = parse(buf.str(), &parse_error);
    if (!v && error != nullptr) *error = path + ": " + parse_error;
    return v;
}

}  // namespace zc::e2e::json
