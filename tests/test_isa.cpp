// Unit and property tests for the Ouessant ISA: encoding, decoding, the
// assembler/disassembler, program containers, verification, and codegen.
#include <gtest/gtest.h>

#include "ouessant/assembler.hpp"
#include "ouessant/codegen.hpp"
#include "ouessant/isa.hpp"
#include "ouessant/program.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

using isa::Instruction;
using isa::Opcode;

// -------------------------------------------------------------- encoding --

TEST(Isa, OpcodeField) {
  const u32 w = isa::encode({.op = Opcode::kEop});
  EXPECT_EQ(w >> 27, static_cast<u32>(Opcode::kEop));
}

TEST(Isa, MvtcFieldPacking) {
  const Instruction ins{.op = Opcode::kMvtc, .bank = 5, .offset = 0x1234,
                        .fifo = 2, .len = 64};
  const u32 w = isa::encode(ins);
  EXPECT_EQ((w >> 27) & 0x1F, 1u);
  EXPECT_EQ((w >> 24) & 0x7, 5u);
  EXPECT_EQ((w >> 10) & 0x3FFF, 0x1234u);
  EXPECT_EQ((w >> 8) & 0x3, 2u);
  EXPECT_EQ(w & 0xFF, 64u);
}

TEST(Isa, Dma256EncodesAsZero) {
  const u32 w = isa::encode({.op = Opcode::kMvfc, .len = 256});
  EXPECT_EQ(w & 0xFF, 0u);
  const auto back = isa::decode(w);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->len, 256u);
}

TEST(Isa, FieldRangeChecks) {
  EXPECT_THROW((void)isa::encode({.op = Opcode::kMvtc, .bank = 8}), SimError);
  EXPECT_THROW((void)isa::encode({.op = Opcode::kMvtc, .offset = 1u << 14}),
               SimError);
  EXPECT_THROW((void)isa::encode({.op = Opcode::kMvtc, .fifo = 4}), SimError);
  EXPECT_THROW((void)isa::encode({.op = Opcode::kMvtc, .len = 0}), SimError);
  EXPECT_THROW((void)isa::encode({.op = Opcode::kMvtc, .len = 257}), SimError);
  EXPECT_THROW((void)isa::encode({.op = Opcode::kLoop, .target = 1u << 14}),
               SimError);
  EXPECT_THROW((void)isa::encode({.op = Opcode::kLoop, .count = 256}), SimError);
}

TEST(Isa, UnassignedOpcodesDecodeToNullopt) {
  for (u32 op = 9; op < 32; ++op) {
    EXPECT_FALSE(isa::decode(op << 27).has_value()) << "opcode " << op;
    EXPECT_FALSE(isa::opcode_valid(static_cast<u8>(op)));
  }
}

TEST(Isa, V1Subset) {
  EXPECT_TRUE(isa::is_v1_opcode(Opcode::kMvtc));
  EXPECT_TRUE(isa::is_v1_opcode(Opcode::kMvfc));
  EXPECT_TRUE(isa::is_v1_opcode(Opcode::kExec));
  EXPECT_TRUE(isa::is_v1_opcode(Opcode::kExecs));
  EXPECT_TRUE(isa::is_v1_opcode(Opcode::kEop));
  EXPECT_FALSE(isa::is_v1_opcode(Opcode::kNop));
  EXPECT_FALSE(isa::is_v1_opcode(Opcode::kWait));
  EXPECT_FALSE(isa::is_v1_opcode(Opcode::kLoop));
}

TEST(Isa, EncodeDecodeRoundTripProperty) {
  util::Rng rng(101);
  for (int trial = 0; trial < 2000; ++trial) {
    Instruction ins;
    const u32 pick = rng.below(8);
    ins.op = static_cast<Opcode>(pick);
    switch (ins.op) {
      case Opcode::kMvtc:
      case Opcode::kMvfc:
        ins.bank = static_cast<u8>(rng.below(8));
        ins.offset = rng.below(1u << 14);
        ins.fifo = static_cast<u8>(rng.below(4));
        ins.len = 1 + rng.below(256);
        break;
      case Opcode::kLoop:
        ins.target = rng.below(1u << 14);
        ins.count = rng.below(256);
        break;
      default:
        break;
    }
    const auto back = isa::decode(isa::encode(ins));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, ins) << "trial " << trial;
  }
}

TEST(Isa, Mnemonics) {
  EXPECT_EQ(isa::mnemonic(Opcode::kMvtc), "mvtc");
  EXPECT_EQ(isa::mnemonic(Opcode::kExecs), "execs");
  EXPECT_EQ(isa::mnemonic(Opcode::kLoop), "loop");
  EXPECT_EQ(isa::mnemonic(Opcode::kIrq), "irq");
}

TEST(Isa, IrqRoundTrips) {
  const auto back = isa::decode(isa::encode({.op = Opcode::kIrq}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, Opcode::kIrq);
  EXPECT_FALSE(isa::is_v1_opcode(Opcode::kIrq));
  // And through the assembler.
  const core::Program p = core::assemble("irq\neop\n");
  EXPECT_EQ(p.at(0).op, Opcode::kIrq);
}

TEST(Isa, ToStringFormats) {
  EXPECT_EQ(isa::to_string({.op = Opcode::kMvtc, .bank = 1, .offset = 64,
                            .fifo = 0, .len = 64}),
            "mvtc BANK1,64,DMA64,FIFO0");
  EXPECT_EQ(isa::to_string({.op = Opcode::kLoop, .target = 2, .count = 6}),
            "loop 2,6");
  EXPECT_EQ(isa::to_string({.op = Opcode::kEop}), "eop");
}

// ------------------------------------------------------------- assembler --

TEST(Assembler, Figure4Verbatim) {
  // The paper's Fig. 4 microcode, abbreviated ladders written in full.
  std::string src = "// 64 words from offset 0 of bank 1\n"
                    "// to coprocessor FIFO 0\n";
  for (u32 off = 0; off <= 448; off += 64) {
    src += "mvtc BANK1," + std::to_string(off) + ",DMA64,FIFO0\n";
  }
  src += "execs\n";
  for (u32 off = 0; off <= 448; off += 64) {
    src += "mvfc BANK2," + std::to_string(off) + ",DMA64,FIFO0\n";
  }
  src += "eop\n";
  const core::Program p = core::assemble(src);
  ASSERT_EQ(p.size(), 18u);
  EXPECT_EQ(p.at(0).op, Opcode::kMvtc);
  EXPECT_EQ(p.at(8).op, Opcode::kExecs);
  EXPECT_EQ(p.at(17).op, Opcode::kEop);
  // It must equal the codegen'd Fig. 4 program.
  EXPECT_EQ(p.image(), core::figure4_program().image());
}

TEST(Assembler, CaseAndNumberFlexibility) {
  const core::Program p = core::assemble(
      "MVTC bank3, 0x10, dma32, fifo1\n"
      "ExEc\n"
      "EOP\n");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.at(0).bank, 3);
  EXPECT_EQ(p.at(0).offset, 16u);
  EXPECT_EQ(p.at(0).len, 32u);
  EXPECT_EQ(p.at(0).fifo, 1);
}

TEST(Assembler, BareNumericOperands) {
  const core::Program p = core::assemble("mvfc 2, 128, 64, 0\neop\n");
  EXPECT_EQ(p.at(0).bank, 2);
  EXPECT_EQ(p.at(0).offset, 128u);
}

TEST(Assembler, LabelsAndLoop) {
  const core::Program p = core::assemble(
      "start:\n"
      "  mvtc BANK1,0,DMA64,FIFO0\n"
      "  loop start, 7\n"
      "  execs\n"
      "body: mvfc BANK2,0,DMA64,FIFO0\n"
      "  loop body, 7\n"
      "  eop\n");
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p.at(1).op, Opcode::kLoop);
  EXPECT_EQ(p.at(1).target, 0u);
  EXPECT_EQ(p.at(1).count, 7u);
  EXPECT_EQ(p.at(4).target, 3u);
}

TEST(Assembler, CommentsAndBlankLines) {
  const core::Program p = core::assemble(
      "\n"
      "# hash comment\n"
      "; semicolon comment\n"
      "nop // trailing comment\n"
      "eop\n");
  EXPECT_EQ(p.size(), 2u);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    (void)core::assemble("nop\nbogus\n");
    FAIL() << "expected AsmError";
  } catch (const core::AsmError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(Assembler, RejectsBadOperandCounts) {
  EXPECT_THROW(core::assemble("mvtc BANK1,0,DMA64\neop\n"), core::AsmError);
  EXPECT_THROW(core::assemble("eop 3\n"), core::AsmError);
  EXPECT_THROW(core::assemble("loop nowhere, 3\neop\n"), core::AsmError);
  EXPECT_THROW(core::assemble("mvtc BANK9,0,DMA64,FIFO0\neop\n"),
               core::AsmError);
  EXPECT_THROW(core::assemble("a:\na: nop\neop\n"), core::AsmError);
  // Numbers past their field, or in a form strtoul misread, are refused
  // rather than truncated, and a huge one is an AsmError too.
  for (const char* bad : {
           "mvtc BANK258,0,DMA64,FIFO0\neop\n",
           "mvtc BANK1,4294967296,DMA64,FIFO0\neop\n",
           "mvtc BANK1,0,DMA64,FIFO256\neop\n",
           "mvtc BANK1,0,DMA4294967360,FIFO0\neop\n",
           "loop 0,4294967297\neop\n",
           "mvtc BANK1,12345678901234567890123,DMA64,FIFO0\neop\n",
           "mvtc BANK1,010,DMA64,FIFO0\neop\n",
           "mvtc BANK1,+16,DMA64,FIFO0\neop\n",
           "mvtc BANK1,0x,DMA64,FIFO0\neop\n",
       }) {
    EXPECT_THROW(core::assemble(bad), core::AsmError) << bad;
  }
}

TEST(Assembler, DisassembleRoundTrip) {
  const core::Program p = core::build_stream_program(
      {.in_words = 256, .out_words = 256, .burst = 64, .overlap = true,
       .use_loop = true});
  const std::string text = core::disassemble(p.image());
  // Strip the "idx:\t" prefixes; the assembler accepts label-like "0:".
  const core::Program back = core::assemble(text);
  EXPECT_EQ(back.image(), p.image());
}

TEST(Assembler, DisassemblesUnknownOpcodesAsWords) {
  const std::string text = core::disassemble({0xF800'0000u});
  EXPECT_NE(text.find(".word"), std::string::npos);
}

// --------------------------------------------------------------- program --

TEST(Program, BuilderAndListing) {
  core::Program p;
  p.mvtc(1, 0, 64).execs().mvfc(2, 0, 64).eop();
  EXPECT_EQ(p.size(), 4u);
  const std::string listing = p.listing();
  EXPECT_NE(listing.find("mvtc BANK1,0,DMA64,FIFO0"), std::string::npos);
  EXPECT_NE(listing.find("execs"), std::string::npos);
}

TEST(Program, ImageRoundTrip) {
  core::Program p;
  p.mvtc(1, 0, 64).exec().mvfc(2, 0, 64).eop();
  const core::Program back = core::Program::from_image(p.image());
  EXPECT_EQ(back.image(), p.image());
  EXPECT_THROW(core::Program::from_image({0xFFFF'FFFFu}), SimError);
}

TEST(Verify, AcceptsGoodPrograms) {
  EXPECT_TRUE(core::verify(core::figure4_program()).ok);
  core::Program looped;
  looped.mvtc(1, 0, 64).loop(0, 7).exec().mvfc(2, 0, 64).loop(3, 7).eop();
  EXPECT_TRUE(core::verify(looped).ok);
}

TEST(Verify, RejectsEmpty) {
  EXPECT_FALSE(core::verify(core::Program{}).ok);
}

TEST(Verify, RejectsMissingEop) {
  core::Program p;
  p.mvtc(1, 0, 64);
  const auto r = core::verify(p);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.to_string().find("eop"), std::string::npos);
}

TEST(Verify, RejectsBadFifoIds) {
  core::Program p;
  p.mvtc(1, 0, 64, /*fifo=*/3).eop();
  EXPECT_TRUE(core::verify(p, 4, 4).ok);
  EXPECT_FALSE(core::verify(p, 1, 1).ok);
}

TEST(Verify, RejectsForwardLoops) {
  core::Program p;
  p.loop(1, 3).nop().eop();  // forward target
  EXPECT_FALSE(core::verify(p).ok);
  core::Program p2;
  p2.nop();
  p2.push({.op = Opcode::kLoop, .target = 99, .count = 1});
  p2.eop();
  EXPECT_FALSE(core::verify(p2).ok);
}

// --------------------------------------------------------------- codegen --

TEST(Codegen, UnrolledStructure) {
  const core::Program p = core::build_stream_program(
      {.in_words = 512, .out_words = 512, .burst = 64, .overlap = true});
  ASSERT_EQ(p.size(), 18u);  // 8 mvtc + execs + 8 mvfc + eop
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(p.at(i).op, Opcode::kMvtc);
    EXPECT_EQ(p.at(i).offset, i * 64);
  }
  EXPECT_EQ(p.at(8).op, Opcode::kExecs);
}

TEST(Codegen, LoopedStructure) {
  const core::Program p = core::build_stream_program(
      {.in_words = 512, .out_words = 512, .burst = 64, .overlap = true,
       .use_loop = true});
  ASSERT_EQ(p.size(), 6u);  // mvtc + loop + execs + mvfc + loop + eop
  EXPECT_EQ(p.at(1).op, Opcode::kLoop);
  EXPECT_EQ(p.at(1).count, 7u);
  EXPECT_TRUE(core::verify(p).ok);
}

TEST(Codegen, BlockingVariantUsesExec) {
  const core::Program p = core::build_stream_program(
      {.in_words = 64, .out_words = 64, .burst = 64, .overlap = false});
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.at(1).op, Opcode::kExec);
}

TEST(Codegen, RejectsBadJobs) {
  EXPECT_THROW(core::build_stream_program({.in_words = 100, .out_words = 64,
                                           .burst = 64}),
               ConfigError);
  EXPECT_THROW(core::build_stream_program({.in_words = 0, .out_words = 0}),
               ConfigError);
  EXPECT_THROW(core::build_stream_program({.in_words = 64, .out_words = 64,
                                           .burst = 0}),
               ConfigError);
}

TEST(Codegen, AllProgramsVerify) {
  for (const u32 words : {64u, 128u, 512u, 1024u}) {
    for (const u32 burst : {16u, 64u, 256u}) {
      if (words % burst != 0) continue;
      for (const bool overlap : {false, true}) {
        for (const bool use_loop : {false, true}) {
          const core::Program p = core::build_stream_program(
              {.in_words = words, .out_words = words, .burst = burst,
               .overlap = overlap, .use_loop = use_loop});
          EXPECT_TRUE(core::verify(p).ok)
              << words << "/" << burst << "/" << overlap << "/" << use_loop;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ouessant
