// ouasm — command-line microcode tool: assemble, disassemble, and verify
// Ouessant programs. The kind of utility an open-source release of the
// paper's project ships for firmware authors.
//
//   ouasm asm <file.s>     assemble, print the binary image (hex words)
//   ouasm dis <file.hex>   disassemble a hex word list
//   ouasm check <file.s>   assemble + static verification report
//   ouasm demo             print the paper's Fig. 4 program
//   ouasm rtl <core>       emit the VHDL shell + OCP wrapper for a preset
//                          core (idct | dft256 | fir16 | cfir | pass48)
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "ouessant/assembler.hpp"
#include "ouessant/codegen.hpp"
#include "ouessant/rtlgen.hpp"
#include "rac/configurable_fir.hpp"
#include "rac/dft.hpp"
#include "rac/fir.hpp"
#include "rac/idct.hpp"
#include "rac/passthrough.hpp"
#include "util/parse.hpp"

using namespace ouessant;

namespace {

std::string read_file(const char* path) {
  std::ifstream in(path);
  if (!in) {
    throw SimError(std::string("cannot open ") + path);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A `dis` input that is not the word list `ouasm asm` prints.
struct BadHexWord : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The word list `ouasm asm` prints: whitespace-separated bare hex words
/// of 1-8 digits. BadHexWord names the first other token and its line.
std::vector<u32> parse_hex_words(const std::string& text) {
  std::vector<u32> words;
  std::istringstream lines(text);
  std::string line;
  for (int number = 1; std::getline(lines, line); ++number) {
    std::istringstream in(line);
    std::string tok;
    while (in >> tok) {
      const std::optional<u64> w =
          tok.size() <= 8 ? util::read_uint("0x" + tok, UINT32_MAX)
                          : std::nullopt;
      if (!w) {
        throw BadHexWord("line " + std::to_string(number) + ": '" + tok +
                         "' is not a hex word of 1-8 digits");
      }
      words.push_back(static_cast<u32>(*w));
    }
  }
  return words;
}

int usage() {
  std::fprintf(stderr,
               "usage: ouasm asm <file.s> | dis <file.hex> | check <file.s> "
               "| demo | rtl <core>\n");
  return 2;
}

int emit_rtl(const std::string& which) {
  sim::Kernel kernel;  // models are introspected, never ticked
  std::unique_ptr<core::Rac> rac;
  if (which == "idct") {
    rac = std::make_unique<rac::IdctRac>(kernel, which);
  } else if (which == "dft256") {
    rac = std::make_unique<rac::DftRac>(kernel, which,
                                        rac::DftRacConfig{.points = 256});
  } else if (which == "fir16") {
    rac = std::make_unique<rac::FirRac>(
        kernel, which, std::vector<i32>(16, 1 << 12), 256);
  } else if (which == "cfir") {
    rac = std::make_unique<rac::ConfigurableFirRac>(kernel, which, 16, 256);
  } else if (which == "pass48") {
    rac = std::make_unique<rac::PassthroughRac>(kernel, which, 32, 48);
  } else {
    std::fprintf(stderr, "ouasm: unknown core '%s'\n", which.c_str());
    return 2;
  }
  const auto spec = core::rtlgen::spec_from_rac(*rac, which);
  std::printf("%s\n%s\n%s\n%s",
              core::rtlgen::generate_width_fifo_package().c_str(),
              core::rtlgen::generate_rac_entity(spec).c_str(),
              core::rtlgen::generate_ocp_wrapper(spec).c_str(),
              core::rtlgen::generate_instantiation(spec).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "demo") {
      const core::Program p = core::figure4_program();
      std::printf("// paper Fig. 4: 256-pt DFT microcode\n%s",
                  p.listing().c_str());
      std::printf("// binary image:\n");
      for (const u32 w : p.image()) std::printf("%08x\n", w);
      return 0;
    }
    if (argc < 3) return usage();
    if (cmd == "rtl") return emit_rtl(argv[2]);
    if (cmd == "asm") {
      const core::Program p = core::assemble(read_file(argv[2]));
      for (const u32 w : p.image()) std::printf("%08x\n", w);
      return 0;
    }
    if (cmd == "dis") {
      std::printf("%s",
                  core::disassemble(parse_hex_words(read_file(argv[2])))
                      .c_str());
      return 0;
    }
    if (cmd == "check") {
      const core::Program p = core::assemble(read_file(argv[2]));
      const auto result = core::verify(p);
      if (result.ok) {
        std::printf("OK: %zu instructions, all static checks pass\n",
                    p.size());
        return 0;
      }
      std::printf("FAIL:\n%s", result.to_string().c_str());
      return 1;
    }
    return usage();
  } catch (const BadHexWord& e) {
    std::fprintf(stderr, "ouasm: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ouasm: %s\n", e.what());
    return 1;
  }
}
