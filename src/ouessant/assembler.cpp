#include "ouessant/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "util/parse.hpp"

namespace ouessant::core {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string strip_comment(const std::string& line) {
  std::size_t cut = line.size();
  const auto slashes = line.find("//");
  if (slashes != std::string::npos) cut = std::min(cut, slashes);
  const auto hash = line.find('#');
  if (hash != std::string::npos) cut = std::min(cut, hash);
  const auto semi = line.find(';');
  if (semi != std::string::npos) cut = std::min(cut, semi);
  return line.substr(0, cut);
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// A logical source line: optional label, optional mnemonic + operands.
struct Line {
  unsigned number;  // 1-based
  std::string label;
  std::string mnemonic;
  std::vector<std::string> operands;
};

std::vector<Line> split_lines(const std::string& source) {
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
    if (colon != std::string::npos) {
      line.label = trim(text.substr(0, colon));
      if (line.label.empty()) throw AsmError(number, "empty label");
      text = trim(text.substr(colon + 1));
    }
    if (!text.empty()) {
      const auto sp = text.find_first_of(" \t");
      if (sp == std::string::npos) {
        line.mnemonic = lower(text);
      } else {
        line.mnemonic = lower(trim(text.substr(0, sp)));
        std::string rest = text.substr(sp + 1);
        std::string tok;
        std::istringstream ops(rest);
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

/// An unsigned operand bound for a @p T field. A value past the field's
/// width is refused here; one past the ISA's by isa::encode.
template <class T>
T parse_operand(const Line& line, const std::string& s) {
  constexpr u64 kMax = std::numeric_limits<T>::max();
  const std::optional<u64> v = util::read_uint(s, kMax);
  if (!v) {
    throw AsmError(line.number, "expected a number in 0.." +
                                    std::to_string(kMax) + ", got '" + s +
                                    "'");
  }
  return static_cast<T>(*v);
}

/// Parse "BANK3" / "DMA64" / "FIFO1" style operands, or a bare number.
template <class T>
T parse_prefixed(const Line& line, const std::string& tok,
                 const char* prefix) {
  const std::string low = lower(tok);
  const std::string pfx = lower(prefix);
  if (low.rfind(pfx, 0) == 0) {
    return parse_operand<T>(line, low.substr(pfx.size()));
  }
  return parse_operand<T>(line, tok);
}

void expect_operands(const Line& line, std::size_t n) {
  if (line.operands.size() != n) {
    throw AsmError(line.number, line.mnemonic + " expects " +
                                    std::to_string(n) + " operand(s), got " +
                                    std::to_string(line.operands.size()));
  }
}

}  // namespace

Program assemble(const std::string& source) {
  const std::vector<Line> lines = split_lines(source);

  // Pass 1: label -> instruction index.
  std::map<std::string, u32> labels;
  u32 index = 0;
  for (const Line& line : lines) {
    if (!line.label.empty()) {
      if (labels.count(lower(line.label)) != 0) {
        throw AsmError(line.number, "duplicate label '" + line.label + "'");
      }
      labels[lower(line.label)] = index;
    }
    if (!line.mnemonic.empty()) ++index;
  }

  // Pass 2: encode.
  Program prog;
  for (const Line& line : lines) {
    if (line.mnemonic.empty()) continue;
    const std::string& m = line.mnemonic;
    try {
      if (m == "mvtc" || m == "mvfc") {
        expect_operands(line, 4);
        isa::Instruction ins;
        ins.op = (m == "mvtc") ? isa::Opcode::kMvtc : isa::Opcode::kMvfc;
        ins.bank = parse_prefixed<u8>(line, line.operands[0], "bank");
        ins.offset = parse_operand<u32>(line, line.operands[1]);
        ins.len = parse_prefixed<u32>(line, line.operands[2], "dma");
        ins.fifo = parse_prefixed<u8>(line, line.operands[3], "fifo");
        prog.push(ins);
      } else if (m == "exec") {
        expect_operands(line, 0);
        prog.exec();
      } else if (m == "execs") {
        expect_operands(line, 0);
        prog.execs();
      } else if (m == "eop") {
        expect_operands(line, 0);
        prog.eop();
      } else if (m == "nop") {
        expect_operands(line, 0);
        prog.nop();
      } else if (m == "wait") {
        expect_operands(line, 0);
        prog.wait();
      } else if (m == "irq") {
        expect_operands(line, 0);
        prog.irq();
      } else if (m == "loop") {
        expect_operands(line, 2);
        u32 target = 0;
        const std::string tgt = lower(line.operands[0]);
        if (std::isdigit(static_cast<unsigned char>(tgt[0])) != 0) {
          target = parse_operand<u32>(line, tgt);
        } else {
          auto it = labels.find(tgt);
          if (it == labels.end()) {
            throw AsmError(line.number, "unknown label '" + line.operands[0] + "'");
          }
          target = it->second;
        }
        prog.loop(target, parse_operand<u32>(line, line.operands[1]));
      } else {
        throw AsmError(line.number, "unknown mnemonic '" + m + "'");
      }
      // Validate field widths eagerly so errors carry line numbers.
      (void)isa::encode(prog.code().back());
    } catch (const AsmError&) {
      throw;
    } catch (const SimError& e) {
      throw AsmError(line.number, e.what());
    }
  }
  return prog;
}

std::string disassemble(const std::vector<u32>& image) {
  std::ostringstream os;
  for (std::size_t i = 0; i < image.size(); ++i) {
    const auto ins = isa::decode(image[i]);
    if (!ins) {
      os << i << ":\t.word 0x" << std::hex << image[i] << std::dec << '\n';
      continue;
    }
    os << i << ":\t" << isa::to_string(*ins) << '\n';
  }
  return os.str();
}

}  // namespace ouessant::core
