#include "json.hpp"

#include <cstdlib>
#include <stdexcept>

namespace perfbench::json {

const Value* Value::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

bool Value::is_true(std::string_view key) const {
  const Value* v = get(key);
  return v != nullptr && v->kind == Kind::kBool && v->boolean;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value document() {
    Value v = value();
    skip_space();
    if (pos_ != s_.size()) fail("trailing bytes");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at byte " +
                             std::to_string(pos_));
  }
  void skip_space() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  bool take(char c) {
    skip_space();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!take(c)) fail("unexpected character");
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value value() {
    skip_space();
    if (pos_ >= s_.size()) fail("unexpected end");
    Value v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.kind = Value::Kind::kObject;
      if (take('}')) return v;
      do {
        skip_space();
        std::string key = string();
        expect(':');
        v.object.emplace_back(std::move(key), value());
      } while (take(','));
      expect('}');
    } else if (c == '[') {
      ++pos_;
      v.kind = Value::Kind::kArray;
      if (take(']')) return v;
      do v.array.push_back(value());
      while (take(','));
      expect(']');
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string = string();
    } else if (literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.kind = Value::Kind::kBool;
    } else if (literal("null")) {
      v.kind = Value::Kind::kNull;
    } else {
      v.kind = Value::Kind::kNumber;
      const std::string token(s_.substr(pos_, 40));
      char* end = nullptr;
      v.number = std::strtod(token.c_str(), &end);
      if (end == token.c_str()) fail("bad number");
      pos_ += static_cast<std::size_t>(end - token.c_str());
    }
    return v;
  }

  std::string string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad escape");
            const std::string hex(s_.substr(pos_, 4));
            pos_ += 4;
            c = static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
            break;
          }
          default: c = e;
        }
      }
      out += c;
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace perfbench::json
