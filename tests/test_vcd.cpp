// VCD writer golden-parse: the header structure, $enddefinitions
// placement, value-change ordering and wide-signal formatting of
// obs::VcdTrace, plus its construction-time checks (no duplicate names,
// no width the dump cannot express).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/gauges.hpp"
#include "sim/kernel.hpp"

namespace ouessant {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::size_t find_line(const std::vector<std::string>& lines,
                      const std::string& needle, std::size_t from = 0) {
  for (std::size_t i = from; i < lines.size(); ++i) {
    if (lines[i].find(needle) != std::string::npos) return i;
  }
  ADD_FAILURE() << "no line containing: " << needle;
  return lines.size();
}

TEST(Vcd, GoldenParse) {
  const std::string path = temp_path("vcd_golden.vcd");
  sim::Kernel k;
  {
    obs::VcdTrace trace(
        k, path,
        {{.name = "busy", .width = 1,
          .read = [&] { return k.now() >= 2 ? 1 : 0; }},
         {.name = "count", .width = 4, .read = [&] { return k.now(); }},
         {.name = "constant", .width = 8, .read = [] { return u64{0xAB}; }}},
        "dut");
    k.run(3);
    trace.close();
  }
  const auto lines = read_lines(path);
  ASSERT_FALSE(lines.empty());

  // Header: declarations in registration order inside one scope, sealed
  // by $enddefinitions before the first timestamp.
  const std::size_t scope = find_line(lines, "$scope module dut $end");
  const std::size_t busy = find_line(lines, "$var wire 1 ! busy $end");
  const std::size_t count = find_line(lines, "$var wire 4 \" count $end");
  const std::size_t constant =
      find_line(lines, "$var wire 8 # constant $end");
  const std::size_t enddefs = find_line(lines, "$enddefinitions $end");
  const std::size_t first_stamp = find_line(lines, "#1");
  EXPECT_LT(scope, busy);
  EXPECT_LT(busy, count);
  EXPECT_LT(count, constant);
  EXPECT_LT(constant, enddefs);
  EXPECT_LT(enddefs, first_stamp);

  // Timestamps strictly increasing, and every value change belongs to
  // some timestamp section after the header.
  std::vector<u64> stamps;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty() && lines[i][0] == '#') {
      EXPECT_GT(i, enddefs);
      stamps.push_back(std::stoull(lines[i].substr(1)));
    }
  }
  ASSERT_EQ(stamps.size(), 3u);  // samples at cycles 1, 2, 3
  EXPECT_TRUE(std::is_sorted(stamps.begin(), stamps.end()));
  EXPECT_EQ(stamps.front(), 1u);
  EXPECT_EQ(stamps.back(), 3u);

  // First sample dumps every signal once; afterwards only changes.
  const std::size_t stamp2 = find_line(lines, "#2");
  EXPECT_LT(find_line(lines, "0!"), stamp2);          // busy low at #1
  EXPECT_LT(find_line(lines, "b0001 \""), stamp2);    // count = 1
  EXPECT_LT(find_line(lines, "b10101011 #"), stamp2); // constant, width 8
  // busy rises exactly once, at the #2 sample.
  const std::size_t rise = find_line(lines, "1!");
  EXPECT_GT(rise, stamp2);
  // The constant signal appears exactly once in the whole dump.
  std::size_t constant_changes = 0;
  for (std::size_t i = enddefs; i < lines.size(); ++i) {
    if (lines[i].find(" #") != std::string::npos &&
        lines[i][0] == 'b') {
      ++constant_changes;
    }
  }
  EXPECT_EQ(constant_changes, 1u);
}

TEST(Vcd, WideValueTruncatedToDeclaredWidth) {
  const std::string path = temp_path("vcd_width.vcd");
  sim::Kernel k;
  // A width the dump cannot express is rejected before the file opens.
  for (const unsigned width : {0u, 65u}) {
    EXPECT_THROW(obs::VcdTrace(k, path,
                               {{.name = "bad", .width = width,
                                 .read = [] { return u64{0}; }}}),
                 ConfigError)
        << width;
  }
  {
    // A 4-bit signal fed a value wider than its declaration: the dump
    // must carry exactly the low 4 bits, never more.
    obs::VcdTrace trace(
        k, path,
        {{.name = "nibble", .width = 4, .read = [] { return u64{0xFF}; }}},
        "dut");
    k.run(1);
    trace.close();
  }
  const auto lines = read_lines(path);
  find_line(lines, "b1111 !");
  for (const auto& line : lines) {
    EXPECT_EQ(line.find("b11111111"), std::string::npos) << line;
  }
}

TEST(Vcd, DuplicateSignalNameRejected) {
  sim::Kernel k;
  const auto zero = [] { return u64{0}; };
  EXPECT_THROW(obs::VcdTrace(k, temp_path("vcd_dup.vcd"),
                             {{.name = "sig", .width = 1, .read = zero},
                              {.name = "sig", .width = 2, .read = zero}}),
               ConfigError);
}

}  // namespace
}  // namespace ouessant
