#include "l3/asm.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <optional>
#include <sstream>

#include "util/parse.hpp"

namespace ouessant::l3 {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  return s;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string strip_comment(const std::string& line) {
  std::size_t cut = line.size();
  for (const char* marker : {";", "#", "//"}) {
    const auto pos = line.find(marker);
    if (pos != std::string::npos) cut = std::min(cut, pos);
  }
  return line.substr(0, cut);
}

struct Line {
  unsigned number;
  std::string label;
  std::string mnemonic;
  std::vector<std::string> operands;
};

std::vector<Line> split(const std::string& source) {
  std::vector<Line> out;
  std::istringstream in(source);
  std::string raw;
  unsigned number = 0;
  while (std::getline(in, raw)) {
    ++number;
    std::string text = trim(strip_comment(raw));
    if (text.empty()) continue;
    Line line;
    line.number = number;
    const auto colon = text.find(':');
    // A ':' before any whitespace marks a label.
    const auto sp0 = text.find_first_of(" \t");
    if (colon != std::string::npos && (sp0 == std::string::npos || colon < sp0)) {
      line.label = lower(trim(text.substr(0, colon)));
      if (line.label.empty()) throw AsmError(number, "empty label");
      text = trim(text.substr(colon + 1));
    }
    if (!text.empty()) {
      const auto sp = text.find_first_of(" \t");
      line.mnemonic = lower(sp == std::string::npos ? text
                                                    : trim(text.substr(0, sp)));
      if (sp != std::string::npos) {
        std::istringstream ops(text.substr(sp + 1));
        std::string tok;
        while (std::getline(ops, tok, ',')) {
          tok = trim(tok);
          if (tok.empty()) throw AsmError(number, "empty operand");
          line.operands.push_back(tok);
        }
      }
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// Words this statement expands to (li is always two).
u32 size_of(const Line& line) {
  if (line.mnemonic.empty()) return 0;
  if (line.mnemonic == "li") return 2;
  return 1;
}

u8 parse_reg(const Line& line, const std::string& tok) {
  const std::string t = lower(tok);
  if (t.size() < 2 || t[0] != 'r' ||
      t.find_first_not_of("0123456789", 1) != std::string::npos) {
    throw AsmError(line.number, "expected a register, got '" + tok + "'");
  }
  const auto n = util::read_uint(std::string_view(t).substr(1), kNumRegs - 1);
  if (!n) throw AsmError(line.number, "no register " + tok);
  return static_cast<u8>(*n);
}

constexpr i64 kI32Min = std::numeric_limits<i32>::min();
constexpr i64 kI32Max = std::numeric_limits<i32>::max();
constexpr i64 kU32Max = std::numeric_limits<u32>::max();

/// A numeric operand in [@p lo, @p hi]: an immediate or displacement is
/// an i32 (encode then checks the ISA's narrower range), a li or .word
/// value any 32-bit word, unsigned or negative.
i64 operand(const Line& line, const std::string& s, i64 lo = kI32Min,
            i64 hi = kI32Max) {
  const std::optional<i64> v = util::read_int(s, lo, hi);
  if (!v) {
    throw AsmError(line.number, "expected a number in " + std::to_string(lo) +
                                    ".." + std::to_string(hi) + ", got '" +
                                    s + "'");
  }
  return *v;
}

/// A number, not a label: it starts with a digit or a sign.
bool numeric(const std::string& tok) {
  return std::isdigit(static_cast<unsigned char>(tok[0])) != 0 ||
         tok[0] == '-' || tok[0] == '+';
}

/// "imm(rN)" memory operand.
void parse_mem(const Line& line, const std::string& tok, i32& imm, u8& base) {
  const auto open = tok.find('(');
  const auto close = tok.find(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    throw AsmError(line.number, "expected imm(reg), got '" + tok + "'");
  }
  const std::string off = trim(tok.substr(0, open));
  imm = off.empty() ? 0 : static_cast<i32>(operand(line, off));
  base = parse_reg(line, trim(tok.substr(open + 1, close - open - 1)));
}

void expect(const Line& line, std::size_t n) {
  if (line.operands.size() != n) {
    throw AsmError(line.number,
                   line.mnemonic + " expects " + std::to_string(n) +
                       " operand(s), got " +
                       std::to_string(line.operands.size()));
  }
}

const std::map<std::string, Op>& rrr_ops() {
  static const std::map<std::string, Op> table = {
      {"add", Op::kAdd}, {"sub", Op::kSub}, {"and", Op::kAnd},
      {"or", Op::kOr},   {"xor", Op::kXor}, {"sll", Op::kSll},
      {"srl", Op::kSrl}, {"sra", Op::kSra}, {"mul", Op::kMul},
      {"div", Op::kDiv}, {"sltu", Op::kSltu}};
  return table;
}

const std::map<std::string, Op>& rri_ops() {
  static const std::map<std::string, Op> table = {
      {"addi", Op::kAddi}, {"andi", Op::kAndi}, {"ori", Op::kOri},
      {"xori", Op::kXori}, {"slli", Op::kSlli}, {"srli", Op::kSrli},
      {"srai", Op::kSrai}};
  return table;
}

const std::map<std::string, Op>& branch_ops() {
  static const std::map<std::string, Op> table = {{"beq", Op::kBeq},
                                                  {"bne", Op::kBne},
                                                  {"blt", Op::kBlt},
                                                  {"bge", Op::kBge}};
  return table;
}

}  // namespace

Assembly assemble(const std::string& source, Addr base) {
  const auto lines = split(source);

  // Pass 1: label addresses (word indices).
  std::map<std::string, u32> labels;
  u32 index = 0;
  for (const Line& line : lines) {
    if (!line.label.empty()) {
      if (labels.count(line.label) != 0) {
        throw AsmError(line.number, "duplicate label '" + line.label + "'");
      }
      labels[line.label] = index;
    }
    index += size_of(line);
  }

  auto resolve = [&](const Line& line, const std::string& tok) -> u32 {
    const auto it = labels.find(lower(tok));
    if (it == labels.end()) {
      throw AsmError(line.number, "unknown label '" + tok + "'");
    }
    return it->second;
  };
  auto branch_disp = [&](const Line& line, const std::string& tok,
                         u32 here) -> i32 {
    if (numeric(tok)) return static_cast<i32>(operand(line, tok));
    return static_cast<i32>(resolve(line, tok)) - static_cast<i32>(here) - 1;
  };

  // Pass 2: encode.
  Assembly out;
  out.labels = labels;
  index = 0;
  for (const Line& line : lines) {
    if (line.mnemonic.empty()) continue;
    const std::string& m = line.mnemonic;
    try {
      if (auto it = rrr_ops().find(m); it != rrr_ops().end()) {
        expect(line, 3);
        out.words.push_back(encode({.op = it->second,
                                    .rd = parse_reg(line, line.operands[0]),
                                    .rs1 = parse_reg(line, line.operands[1]),
                                    .rs2 = parse_reg(line, line.operands[2])}));
      } else if (auto it2 = rri_ops().find(m); it2 != rri_ops().end()) {
        expect(line, 3);
        out.words.push_back(encode(
            {.op = it2->second,
             .rd = parse_reg(line, line.operands[0]),
             .rs1 = parse_reg(line, line.operands[1]),
             .imm = static_cast<i32>(operand(line, line.operands[2]))}));
      } else if (auto it3 = branch_ops().find(m); it3 != branch_ops().end()) {
        expect(line, 3);
        out.words.push_back(encode(
            {.op = it3->second,
             .rs1 = parse_reg(line, line.operands[0]),
             .rs2 = parse_reg(line, line.operands[1]),
             .imm = branch_disp(line, line.operands[2], index)}));
      } else if (m == "lw" || m == "sw") {
        expect(line, 2);
        i32 imm = 0;
        u8 mem_base = 0;
        parse_mem(line, line.operands[1], imm, mem_base);
        if (m == "lw") {
          out.words.push_back(encode({.op = Op::kLw,
                                      .rd = parse_reg(line, line.operands[0]),
                                      .rs1 = mem_base,
                                      .imm = imm}));
        } else {
          out.words.push_back(encode({.op = Op::kSw,
                                      .rs1 = mem_base,
                                      .rs2 = parse_reg(line, line.operands[0]),
                                      .imm = imm}));
        }
      } else if (m == "lui") {
        expect(line, 2);
        out.words.push_back(encode(
            {.op = Op::kLui,
             .rd = parse_reg(line, line.operands[0]),
             .imm = static_cast<i32>(operand(line, line.operands[1]))}));
      } else if (m == "li") {
        expect(line, 2);
        const u8 rd = parse_reg(line, line.operands[0]);
        u32 value;
        if (numeric(line.operands[1])) {
          value = static_cast<u32>(
              operand(line, line.operands[1], kI32Min, kU32Max));
        } else {
          value = base + resolve(line, line.operands[1]) * 4;  // label addr
        }
        out.words.push_back(encode(
            {.op = Op::kLui, .rd = rd, .imm = static_cast<i32>(value >> 14)}));
        out.words.push_back(encode({.op = Op::kOri,
                                    .rd = rd,
                                    .rs1 = rd,
                                    .imm = static_cast<i32>(value & 0x3FFF)}));
      } else if (m == "mv") {
        expect(line, 2);
        out.words.push_back(encode({.op = Op::kAddi,
                                    .rd = parse_reg(line, line.operands[0]),
                                    .rs1 = parse_reg(line, line.operands[1]),
                                    .imm = 0}));
      } else if (m == "jal") {
        expect(line, 2);
        out.words.push_back(
            encode({.op = Op::kJal,
                    .rd = parse_reg(line, line.operands[0]),
                    .imm = branch_disp(line, line.operands[1], index)}));
      } else if (m == "call") {
        expect(line, 1);
        out.words.push_back(
            encode({.op = Op::kJal,
                    .rd = 15,
                    .imm = branch_disp(line, line.operands[0], index)}));
      } else if (m == "j") {
        expect(line, 1);
        out.words.push_back(
            encode({.op = Op::kJal,
                    .rd = 0,
                    .imm = branch_disp(line, line.operands[0], index)}));
      } else if (m == "jr") {
        expect(line, 1);
        out.words.push_back(
            encode({.op = Op::kJr, .rs1 = parse_reg(line, line.operands[0])}));
      } else if (m == "ret") {
        expect(line, 0);
        out.words.push_back(encode({.op = Op::kJr, .rs1 = 15}));
      } else if (m == "nop") {
        expect(line, 0);
        out.words.push_back(encode({.op = Op::kNop}));
      } else if (m == "halt") {
        expect(line, 0);
        out.words.push_back(encode({.op = Op::kHalt}));
      } else if (m == "wfi") {
        expect(line, 0);
        out.words.push_back(encode({.op = Op::kWfi}));
      } else if (m == ".word") {
        expect(line, 1);
        out.words.push_back(static_cast<u32>(
            operand(line, line.operands[0], kI32Min, kU32Max)));
      } else {
        throw AsmError(line.number, "unknown mnemonic '" + m + "'");
      }
    } catch (const AsmError&) {
      throw;
    } catch (const SimError& e) {
      throw AsmError(line.number, e.what());
    }
    index += size_of(line);
  }
  return out;
}

std::string disassemble(const std::vector<u32>& words) {
  std::ostringstream os;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const auto ins = decode(words[i]);
    os << i << ":\t";
    if (ins) {
      os << to_string(*ins);
    } else {
      os << ".word 0x" << std::hex << words[i] << std::dec;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace ouessant::l3
