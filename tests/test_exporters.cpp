// Exporter round-trips (src/phch/obs/export.h): the metrics JSON and the
// chrome trace are re-parsed with a strict parser — not grepped — so
// escaping bugs (raw newlines or control characters inside string literals)
// fail the test instead of producing files that only *look* parseable. Hostile span/mark
// labels containing quotes, backslashes, newlines and control bytes
// exercise the escaping paths directly.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "phch/core/deterministic_table.h"
#include "phch/core/table_common.h"
#include "phch/obs/export.h"
#include "phch/obs/telemetry.h"
#include "phch/obs/trace.h"
#include "phch/parallel/scheduler.h"

namespace phch {
namespace {

// ---------------------------------------------------------------------------
// A deliberately strict recursive-descent JSON parser: no trailing commas,
// no unescaped control characters in strings, full escape validation. It
// only validates + decodes strings; the tests assert on well-formedness and
// on specific decoded keys.

class json_checker {
 public:
  explicit json_checker(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  const std::vector<std::string>& strings() const { return strings_; }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (peek() != '"' || !string_lit()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string_lit() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        strings_.push_back(out);
        return true;
      }
      if (c < 0x20) return false;  // raw control char: invalid JSON
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char e = s_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_ + static_cast<std::size_t>(i)];
              if (!std::isxdigit(static_cast<unsigned char>(h))) return false;
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            pos_ += 4;
            out += static_cast<char>(code < 0x80 ? code : '?');
            break;
          }
          default: return false;  // unknown escape
        }
        continue;
      }
      out += static_cast<char>(c);
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::vector<std::string> strings_;
};

std::string slurp(const char* path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool contains(const std::vector<std::string>& haystack, const std::string& s) {
  for (const auto& h : haystack) {
    if (h == s) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------

TEST(ExportersOff, WritersRefuseWhenCompiledOut) {
  if (obs::compiled) GTEST_SKIP() << "telemetry compiled in";
  EXPECT_FALSE(obs::write_metrics_json("/tmp/phch_exp_off.json"));
  EXPECT_FALSE(obs::write_chrome_trace("/tmp/phch_exp_off_trace.json"));
}

class ExportersOn : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::compiled) GTEST_SKIP() << "telemetry compiled out";
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    if (obs::compiled) {
      obs::set_enabled(false);
      scheduler::get().set_num_workers(4);
    }
  }
};

// Labels chosen to break naive writers: quotes, backslashes, newline, tab,
// and a raw control byte.
constexpr const char kHostile[] = "ho\"st\\ile\nlab\tel\x01!";

TEST_F(ExportersOn, MetricsJsonRoundTripsHostileLabels) {
  {
    obs::span sp(kHostile);
    deterministic_table<> t(128);
    t.insert(7);
  }
  obs::mark(kHostile);
  const char* path = "/tmp/phch_exp_metrics.json";
  ASSERT_TRUE(obs::write_metrics_json(path));
  const std::string text = slurp(path);
  json_checker jc(text);
  ASSERT_TRUE(jc.parse()) << text;
  // The hostile mark label must survive the escape/unescape round trip
  // bit-for-bit (control byte included).
  EXPECT_TRUE(contains(jc.strings(), kHostile));
  EXPECT_TRUE(contains(jc.strings(), "insert_commits"));
  EXPECT_TRUE(contains(jc.strings(), "histograms"));
  EXPECT_TRUE(contains(jc.strings(), "probe_depth"));
}

TEST_F(ExportersOn, ChromeTraceRoundTripsHostileLabels) {
  {
    obs::span sp(kHostile);
    deterministic_table<> t(128);
    t.insert(7);
    (void)t.find(7);
  }
  obs::mark(kHostile);
  const char* path = "/tmp/phch_exp_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  const std::string text = slurp(path);
  json_checker jc(text);
  ASSERT_TRUE(jc.parse()) << text;
  EXPECT_TRUE(contains(jc.strings(), kHostile));
  // The probe-depth counter track rides along with every mark.
  EXPECT_TRUE(contains(jc.strings(), "probe_depth"));
}

}  // namespace
}  // namespace phch
