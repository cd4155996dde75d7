// Tests for the L3 instruction-level CPU: ISA encode/decode, assembler,
// per-instruction semantics, program execution, cycle accounting, and —
// the point of the exercise — an OCP baremetal driver written in L3
// assembly driving a real coprocessor invocation over MMIO.
#include <gtest/gtest.h>

#include "drv/ocp_driver.hpp"
#include "l3/asm.hpp"
#include "l3/core.hpp"
#include "l3/kernels.hpp"
#include "ouessant/codegen.hpp"
#include "ouessant/ocp.hpp"
#include "rac/passthrough.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"
#include "util/transforms.hpp"

namespace ouessant {
namespace {

// -------------------------------------------------------------- encoding --

TEST(L3Isa, RoundTripProperty) {
  util::Rng rng(5);
  const l3::Op all[] = {
      l3::Op::kAdd,  l3::Op::kSub,  l3::Op::kAnd,  l3::Op::kOr,
      l3::Op::kXor,  l3::Op::kSll,  l3::Op::kSrl,  l3::Op::kSra,
      l3::Op::kMul,  l3::Op::kDiv,  l3::Op::kSltu, l3::Op::kAddi,
      l3::Op::kAndi, l3::Op::kOri,  l3::Op::kXori, l3::Op::kSlli,
      l3::Op::kSrli, l3::Op::kSrai, l3::Op::kLui,  l3::Op::kLw,
      l3::Op::kSw,   l3::Op::kBeq,  l3::Op::kBne,  l3::Op::kBlt,
      l3::Op::kBge,  l3::Op::kJal,  l3::Op::kJr,   l3::Op::kNop,
      l3::Op::kHalt};
  for (int trial = 0; trial < 2000; ++trial) {
    l3::Instr ins;
    ins.op = all[rng.below(sizeof(all) / sizeof(all[0]))];
    ins.rd = static_cast<u8>(rng.below(16));
    ins.rs1 = static_cast<u8>(rng.below(16));
    ins.rs2 = static_cast<u8>(rng.below(16));
    if (ins.op == l3::Op::kLui) {
      ins.imm = static_cast<i32>(rng.below(1u << 18));
      ins.rs1 = 0;
      ins.rs2 = 0;
    } else {
      ins.imm = rng.range(-(1 << 13), (1 << 13) - 1);
    }
    const auto back = l3::decode(l3::encode(ins));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, ins) << trial;
  }
}

TEST(L3Isa, FieldChecks) {
  EXPECT_THROW((void)l3::encode({.op = l3::Op::kAdd, .rd = 16}), SimError);
  EXPECT_THROW((void)l3::encode({.op = l3::Op::kAddi, .imm = 1 << 13}), SimError);
  EXPECT_THROW((void)l3::encode({.op = l3::Op::kLui, .imm = -1}), SimError);
  EXPECT_THROW((void)l3::encode({.op = l3::Op::kLui, .imm = 1 << 18}), SimError);
  EXPECT_FALSE(l3::decode(0xFFFF'FFFF).has_value());
}

// ------------------------------------------------------------- assembler --

TEST(L3Asm, BasicsAndLabels) {
  const auto a = l3::assemble(
      "start: addi r1, r0, 5\n"
      "loop:  addi r1, r1, -1\n"
      "       bne  r1, r0, loop\n"
      "       halt\n");
  ASSERT_EQ(a.words.size(), 4u);
  EXPECT_EQ(a.labels.at("start"), 0u);
  EXPECT_EQ(a.labels.at("loop"), 1u);
  const auto br = l3::decode(a.words[2]);
  ASSERT_TRUE(br.has_value());
  EXPECT_EQ(br->imm, -2);  // back to index 1 from index 2: 1 - 2 - 1
}

TEST(L3Asm, LiExpandsToTwoWords) {
  const auto a = l3::assemble("li r3, 0x80000000\nhalt\n");
  ASSERT_EQ(a.words.size(), 3u);
  const auto lui = l3::decode(a.words[0]);
  const auto ori = l3::decode(a.words[1]);
  EXPECT_EQ(lui->op, l3::Op::kLui);
  EXPECT_EQ(ori->op, l3::Op::kOri);
  EXPECT_EQ((static_cast<u32>(lui->imm) << 14) | static_cast<u32>(ori->imm),
            0x8000'0000u);
}

TEST(L3Asm, MemOperands) {
  const auto a = l3::assemble("lw r1, 8(r2)\nsw r1, -4(r3)\nhalt\n");
  const auto lw = l3::decode(a.words[0]);
  EXPECT_EQ(lw->rs1, 2);
  EXPECT_EQ(lw->imm, 8);
  const auto sw = l3::decode(a.words[1]);
  EXPECT_EQ(sw->rs2, 1);
  EXPECT_EQ(sw->imm, -4);
}

TEST(L3Asm, Errors) {
  EXPECT_THROW(l3::assemble("frobnicate r1\n"), l3::AsmError);
  EXPECT_THROW(l3::assemble("add r1, r2\n"), l3::AsmError);
  EXPECT_THROW(l3::assemble("addi r1, r2, r3\n"), l3::AsmError);
  EXPECT_THROW(l3::assemble("beq r1, r2, nowhere\n"), l3::AsmError);
  EXPECT_THROW(l3::assemble("add r99, r0, r0\n"), l3::AsmError);
  EXPECT_THROW(l3::assemble("x: nop\nx: nop\n"), l3::AsmError);
  // Numbers past their field, or in a form strtoll misread, are refused
  // rather than truncated, and a huge one is an AsmError too.
  for (const char* bad : {
           "addi r1, r0, 4294967297\n",
           ".word 4294967297\n",
           "lw r1, 4294967300(r2)\n",
           "lui r1, 4294967296\n",
           "add r99999999999999999999999, r0, r0\n",
           "addi r1, r0, 12345678901234567890123\n",
           "addi r1, r0, 010\n",
           "addi r1, r0, +5\n",
           "li r1, -2147483649\n",
       }) {
    EXPECT_THROW(l3::assemble(bad), l3::AsmError) << bad;
  }
  // A word operand takes any 32-bit value, unsigned or negative.
  EXPECT_EQ(l3::assemble(".word 4294967295\n.word -1\n").words,
            (std::vector<u32>{0xFFFF'FFFFu, 0xFFFF'FFFFu}));
  EXPECT_NO_THROW(l3::assemble("addi r1, r0, -8192\nli r2, -16384\n"));
}

TEST(L3Asm, DisassembleRenders) {
  const auto a = l3::assemble("add r1, r2, r3\nlw r4, 4(r5)\nhalt\n");
  const std::string d = l3::disassemble(a.words);
  EXPECT_NE(d.find("add r1,r2,r3"), std::string::npos);
  EXPECT_NE(d.find("lw r4,4(r5)"), std::string::npos);
  EXPECT_NE(d.find("halt"), std::string::npos);
}

// --------------------------------------------------------------- execute --

struct L3Rig {
  L3Rig() : bus(kernel, "ahb"), sram("sram", 0x4000'0000, 1 << 20) {
    bus.connect_slave(sram, 0x4000'0000, 1 << 20);
  }

  /// Load @p source at 0x4000'0000 and run to halt. Returns cycles.
  u64 run(const std::string& source, u64 timeout = 2'000'000) {
    const auto a = l3::assemble(source, 0x4000'0000);
    sram.load(0x4000'0000, a.words);
    cpu = std::make_unique<l3::Cpu>(kernel, "l3", sram, bus,
                                    l3::CpuConfig{.reset_pc = 0x4000'0000});
    const Cycle t0 = kernel.now();
    kernel.run_until([&] { return cpu->halted(); }, timeout);
    return kernel.now() - t0;
  }

  sim::Kernel kernel;
  bus::AhbBus bus;
  mem::Sram sram;
  std::unique_ptr<l3::Cpu> cpu;
};

TEST(L3Asm, LiLoadsEveryValue) {
  // ori zero-extends its 14 bits, so li must encode any low half, bit 13
  // set included, and the pair must rebuild the whole word.
  std::string src =
      "li r1, 0x2000\n"
      "li r2, 0x3FFF\n"
      "li r3, 0xFFFFFFFF\n"
      "li r4, -1\n"
      "li r5, 0x80002000\n"
      "li r6, far\n"
      "halt\n";
  for (int i = 0; i < 2048; ++i) src += ".word 0\n";
  src += "far: .word 0\n";
  const auto a = l3::assemble(src, 0x4000'0000);
  const u32 far = 0x4000'0000 + a.labels.at("far") * 4;
  ASSERT_NE(far & 0x2000u, 0u) << "the label must sit past byte 0x2000";
  L3Rig rig;
  rig.run(src);
  ASSERT_TRUE(rig.cpu->halted());
  EXPECT_EQ(rig.cpu->reg(1), 0x2000u);
  EXPECT_EQ(rig.cpu->reg(2), 0x3FFFu);
  EXPECT_EQ(rig.cpu->reg(3), 0xFFFF'FFFFu);
  EXPECT_EQ(rig.cpu->reg(4), 0xFFFF'FFFFu);
  EXPECT_EQ(rig.cpu->reg(5), 0x8000'2000u);
  EXPECT_EQ(rig.cpu->reg(6), far);
}

TEST(L3Cpu, ArithmeticAndLogic) {
  L3Rig rig;
  rig.run(
      "addi r1, r0, 7\n"
      "addi r2, r0, -3\n"
      "add  r3, r1, r2\n"      // 4
      "sub  r4, r1, r2\n"      // 10
      "mul  r5, r1, r2\n"      // -21
      "and  r6, r1, r2\n"      // 7 & -3 = 5
      "xor  r7, r1, r1\n"      // 0
      "sra  r8, r2, r3\n"      // -3 >> 4 = -1
      "sltu r9, r1, r2\n"      // 7 < 0xFFFFFFFD unsigned => 1
      "div  r10, r4, r1\n"     // 10 / 7 = 1
      "halt\n");
  EXPECT_EQ(rig.cpu->reg(3), 4u);
  EXPECT_EQ(rig.cpu->reg(4), 10u);
  EXPECT_EQ(static_cast<i32>(rig.cpu->reg(5)), -21);
  EXPECT_EQ(rig.cpu->reg(6), 5u);
  EXPECT_EQ(rig.cpu->reg(7), 0u);
  EXPECT_EQ(static_cast<i32>(rig.cpu->reg(8)), -1);
  EXPECT_EQ(rig.cpu->reg(9), 1u);
  EXPECT_EQ(rig.cpu->reg(10), 1u);
}

TEST(L3Cpu, R0IsHardwiredZero) {
  L3Rig rig;
  rig.run("addi r0, r0, 123\nadd r1, r0, r0\nhalt\n");
  EXPECT_EQ(rig.cpu->reg(0), 0u);
  EXPECT_EQ(rig.cpu->reg(1), 0u);
}

TEST(L3Cpu, LoadsAndStores) {
  L3Rig rig;
  rig.sram.poke(0x4000'1000, 42);
  rig.run(
      "li  r1, 0x40001000\n"
      "lw  r2, 0(r1)\n"
      "addi r2, r2, 1\n"
      "sw  r2, 4(r1)\n"
      "halt\n");
  EXPECT_EQ(rig.sram.peek(0x4000'1004), 43u);
  EXPECT_EQ(rig.cpu->stats().loads, 1u);
  EXPECT_EQ(rig.cpu->stats().stores, 1u);
  EXPECT_EQ(rig.cpu->stats().bus_accesses, 0u);  // cached region
}

TEST(L3Cpu, LoopSemantics) {
  // Sum 1..10 = 55.
  L3Rig rig;
  rig.run(
      "addi r1, r0, 10\n"
      "addi r2, r0, 0\n"
      "loop: add r2, r2, r1\n"
      "addi r1, r1, -1\n"
      "bne r1, r0, loop\n"
      "halt\n");
  EXPECT_EQ(rig.cpu->reg(2), 55u);
  EXPECT_EQ(rig.cpu->stats().branches_taken, 9u);
}

TEST(L3Cpu, CallAndReturn) {
  L3Rig rig;
  rig.run(
      "addi r1, r0, 5\n"
      "call double_it\n"
      "call double_it\n"
      "halt\n"
      "double_it: add r1, r1, r1\n"
      "ret\n");
  EXPECT_EQ(rig.cpu->reg(1), 20u);
}

TEST(L3Cpu, Fibonacci) {
  L3Rig rig;
  rig.run(
      "addi r1, r0, 0\n"    // fib(0)
      "addi r2, r0, 1\n"    // fib(1)
      "addi r3, r0, 20\n"   // count
      "loop: add r4, r1, r2\n"
      "mv r1, r2\n"
      "mv r2, r4\n"
      "addi r3, r3, -1\n"
      "bne r3, r0, loop\n"
      "halt\n");
  EXPECT_EQ(rig.cpu->reg(1), 6765u);  // fib(20)
}

TEST(L3Cpu, CycleCostsMatchTheModel) {
  // 100 iterations of {addi, bne}: 100*(1 + 2) - 1 (last not taken => 1)
  // + setup 1 + halt 1.
  L3Rig rig;
  const u64 cycles = rig.run(
      "addi r1, r0, 100\n"
      "loop: addi r1, r1, -1\n"
      "bne r1, r0, loop\n"
      "halt\n");
  const u64 expected = 1 + 99 * (1 + 2) + (1 + 1) + 1;
  EXPECT_EQ(cycles, expected);
  EXPECT_EQ(rig.cpu->stats().instructions, 1u + 200u + 1u);
}

TEST(L3Cpu, MulCostsMoreThanAdd) {
  L3Rig rig1;
  const u64 adds = rig1.run(
      "addi r1, r0, 50\n"
      "loop: add r2, r2, r2\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n");
  L3Rig rig2;
  const u64 muls = rig2.run(
      "addi r1, r0, 50\n"
      "loop: mul r2, r2, r2\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n");
  EXPECT_EQ(muls - adds, 50u * 4u);  // mul(5) vs add(1)
}

TEST(L3Cpu, IllegalInstructionFaults) {
  L3Rig rig;
  rig.sram.load(0x4000'0000, {0xFFFF'FFFFu});
  rig.cpu = std::make_unique<l3::Cpu>(rig.kernel, "l3", rig.sram, rig.bus,
                                      l3::CpuConfig{.reset_pc = 0x4000'0000});
  EXPECT_THROW(rig.kernel.run(4), SimError);
}

TEST(L3Cpu, DivisionByZeroFaults) {
  L3Rig rig;
  EXPECT_THROW(rig.run("div r1, r2, r0\nhalt\n"), SimError);
}

TEST(L3Cpu, MemcpyCrossValidatesTheCostModel) {
  // The same word-copy loop, measured two ways: executed instruction by
  // instruction on the ISS, and charged analytically by the CostMeter
  // model cpu::sw uses. The two substrates must agree to within the loop
  // bookkeeping the analytic model abstracts away.
  const u32 words = 256;
  L3Rig rig;
  util::Rng rng(3);
  for (u32 i = 0; i < words; ++i) {
    rig.sram.poke(0x4001'0000 + i * 4, rng.next_u32());
  }
  const u64 executed = rig.run(
      "li r1, 0x40010000\n"       // src
      "li r2, 0x40020000\n"       // dst
      "addi r3, r0, 256\n"        // count
      "loop: lw r4, 0(r1)\n"
      "sw r4, 0(r2)\n"
      "addi r1, r1, 4\n"
      "addi r2, r2, 4\n"
      "addi r3, r3, -1\n"
      "bne r3, r0, loop\n"
      "halt\n");
  for (u32 i = 0; i < words; ++i) {
    ASSERT_EQ(rig.sram.peek(0x4002'0000 + i * 4),
              rig.sram.peek(0x4001'0000 + i * 4));
  }

  // Analytic model: ld + st + alu + branch per word (cpu::sw::sw_copy_words
  // charges 2+2+1+2 = 7 with default costs... see charge loop there).
  cpu::CostMeter m{cpu::CpuCosts{}};
  for (u32 i = 0; i < words; ++i) {
    m.load(1);
    m.store(1);
    m.alu(1);
    m.branch(1);
  }
  const u64 analytic = m.cycles();
  // The ISS loop carries two extra address increments per word; accept
  // the band rather than the exact figure.
  EXPECT_GT(executed, analytic);
  EXPECT_LT(executed, analytic * 2);
  const double per_word = static_cast<double>(executed) / words;
  EXPECT_GT(per_word, 6.0);
  EXPECT_LT(per_word, 11.0);
}

TEST(L3Kernels, AssemblyIdctIsBitExactWithTheSharedDatapath) {
  // The assembly IDCT executed on the ISS must reproduce
  // util::fixed_idct8x8 bit for bit over the JPEG coefficient range —
  // three independent implementations (C++ datapath, RAC model, L3
  // assembly) of one numerical contract.
  L3Rig rig;
  const l3::IdctLayout lay{};
  rig.sram.load(lay.table, l3::idct_basis_image());

  util::Rng rng(31);
  i32 coef[64];
  for (int i = 0; i < 64; ++i) {
    coef[i] = rng.range(-1024, 1023);
    rig.sram.poke(lay.src + static_cast<Addr>(i) * 4,
                  util::to_word(coef[i]));
  }

  const auto program = l3::assemble(l3::idct8x8_source(lay), 0x4000'0000);
  rig.sram.load(0x4000'0000, program.words);
  rig.cpu = std::make_unique<l3::Cpu>(rig.kernel, "l3", rig.sram, rig.bus,
                                      l3::CpuConfig{.reset_pc = 0x4000'0000});
  const Cycle t0 = rig.kernel.now();
  rig.kernel.run_until([&] { return rig.cpu->halted(); }, 200'000);
  const u64 executed = rig.kernel.now() - t0;

  i32 expected[64];
  util::fixed_idct8x8(coef, expected);
  for (u32 i = 0; i < 64; ++i) {
    EXPECT_EQ(util::from_word(rig.sram.peek(lay.dst + i * 4)), expected[i])
        << "sample " << i;
  }

  // Cycle cross-validation: the executed (lightly optimized) assembly
  // lands in the same band as the analytic model of Table I's
  // "time-optimized" software (4812 cycles) — within its bookkeeping
  // overhead, well below 3x.
  EXPECT_GT(executed, 4000u);
  EXPECT_LT(executed, 15'000u);
  RecordProperty("executed_cycles", static_cast<int>(executed));
}

// ------------------------------------------------- the assembly driver --

TEST(L3Cpu, AssemblyWrittenOcpDriver) {
  // A complete baremetal OCP driver in L3 assembly: configure the banks
  // and program size over MMIO, set S, poll the D bit, acknowledge, halt.
  // The Ouessant microcode and payload are staged by the testbench.
  sim::Kernel kernel;
  bus::AhbBus bus(kernel, "ahb");
  mem::Sram sram("sram", 0x4000'0000, 1 << 20);
  bus.connect_slave(sram, 0x4000'0000, 1 << 20);

  rac::PassthroughRac rac(kernel, "pass", 16, 32);
  core::Ocp ocp(kernel, "ocp", bus, rac, {.reg_base = 0x8000'0000});

  // Stage the coprocessor microcode and input data.
  const core::Program ucode = core::build_stream_program(
      {.in_words = 16, .out_words = 16, .burst = 16});
  sram.load(0x4000'0000, ucode.image());
  util::Rng rng(8);
  std::vector<u32> data(16);
  for (auto& w : data) w = rng.next_u32();
  sram.load(0x4001'0000, data);

  // The driver, assembled at 0x4008'0000.
  const std::string driver_src =
      "      li   r1, 0x80000000     ; OCP register base\n"
      "      li   r2, 0x40000000     ; microcode (bank 0)\n"
      "      sw   r2, 8(r1)\n"
      "      li   r3, 0x40010000     ; input (bank 1)\n"
      "      sw   r3, 12(r1)\n"
      "      li   r4, 0x40020000     ; output (bank 2)\n"
      "      sw   r4, 16(r1)\n"
      "      addi r5, r0, 4          ; program size\n"
      "      sw   r5, 4(r1)\n"
      "      addi r6, r0, 1          ; CTRL.S\n"
      "      sw   r6, 0(r1)\n"
      "poll: lw   r7, 0(r1)\n"
      "      andi r7, r7, 4          ; CTRL.D\n"
      "      beq  r7, r0, poll\n"
      "      sw   r7, 0(r1)          ; W1C acknowledge\n"
      "      halt\n";
  const auto drv = l3::assemble(driver_src, 0x4008'0000);
  sram.load(0x4008'0000, drv.words);

  l3::Cpu cpu(kernel, "l3", sram, bus,
              l3::CpuConfig{.reset_pc = 0x4008'0000});
  kernel.run_until([&] { return cpu.halted(); }, 100'000);

  EXPECT_EQ(sram.dump(0x4002'0000, 16), data);
  EXPECT_FALSE(ocp.iface().done());  // acknowledged by the assembly code
  EXPECT_GT(cpu.stats().bus_accesses, 6u);  // every MMIO touch was real
  EXPECT_EQ(ocp.controller().stats().runs, 1u);
}

TEST(L3Cpu, WfiSleepsUntilInterrupt) {
  // Interrupt-driven assembly driver: configure, start with IE, wfi, ack.
  sim::Kernel kernel;
  bus::AhbBus bus(kernel, "ahb");
  mem::Sram sram("sram", 0x4000'0000, 1 << 20);
  bus.connect_slave(sram, 0x4000'0000, 1 << 20);
  rac::PassthroughRac rac(kernel, "pass", 16, 32);
  core::Ocp ocp(kernel, "ocp", bus, rac, {.reg_base = 0x8000'0000});

  const core::Program ucode = core::build_stream_program(
      {.in_words = 16, .out_words = 16, .burst = 16});
  sram.load(0x4000'0000, ucode.image());
  std::vector<u32> data(16, 0xC0FFEE);
  sram.load(0x4001'0000, data);

  const auto drv = l3::assemble(
      "  li   r1, 0x80000000\n"
      "  li   r2, 0x40000000\n"
      "  sw   r2, 8(r1)\n"
      "  li   r3, 0x40010000\n"
      "  sw   r3, 12(r1)\n"
      "  li   r4, 0x40020000\n"
      "  sw   r4, 16(r1)\n"
      "  addi r5, r0, 4\n"
      "  sw   r5, 4(r1)\n"
      "  addi r6, r0, 3          ; CTRL.S | CTRL.IE\n"
      "  sw   r6, 0(r1)\n"
      "  wfi\n"
      "  addi r7, r0, 6          ; CTRL.D | CTRL.IE (W1C ack)\n"
      "  sw   r7, 0(r1)\n"
      "  halt\n",
      0x4008'0000);
  sram.load(0x4008'0000, drv.words);

  l3::Cpu cpu(kernel, "l3", sram, bus,
              l3::CpuConfig{.reset_pc = 0x4008'0000});
  cpu.set_irq_line(&ocp.irq());
  kernel.run_until([&] { return cpu.halted(); }, 100'000);

  EXPECT_EQ(sram.dump(0x4002'0000, 16), data);
  EXPECT_FALSE(ocp.irq().raised());  // acknowledged
  EXPECT_GT(cpu.stats().wfi_cycles, 10u);  // it really slept
}

TEST(L3Cpu, WfiWithoutLineFaults) {
  L3Rig rig;
  EXPECT_THROW(rig.run("wfi\nhalt\n"), SimError);
}

}  // namespace
}  // namespace ouessant
