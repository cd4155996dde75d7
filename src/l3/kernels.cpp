#include "l3/kernels.hpp"

#include <sstream>

#include "util/transforms.hpp"

namespace ouessant::l3 {

namespace {

/// Emit the unrolled even/odd accumulation for one parity class.
/// Accumulates in[k]*basis[k][n] for k in {first, first+2, first+4,
/// first+6} into @p acc_reg; r11 holds (table + n*4), r1 the input row.
void emit_half_sum(std::ostringstream& os, const char* acc_reg, int first) {
  // First term initializes the accumulator.
  os << "  lw   " << acc_reg << ", " << first * 4 << "(r1)\n";
  os << "  lw   r6, " << first * 32 << "(r11)\n";
  os << "  mul  " << acc_reg << ", " << acc_reg << ", r6\n";
  for (int k = first + 2; k < 8; k += 2) {
    os << "  lw   r7, " << k * 4 << "(r1)\n";
    os << "  lw   r6, " << k * 32 << "(r11)\n";
    os << "  mul  r7, r7, r6\n";
    os << "  add  " << acc_reg << ", " << acc_reg << ", r7\n";
  }
}

}  // namespace

std::vector<u32> idct_basis_image() {
  const auto& b = util::idct_basis_q14();
  std::vector<u32> words;
  words.reserve(64);
  for (int k = 0; k < 8; ++k) {
    for (int n = 0; n < 8; ++n) {
      words.push_back(static_cast<u32>(
          b[static_cast<std::size_t>(k)][static_cast<std::size_t>(n)]));
    }
  }
  return words;
}

std::string idct8x8_source(const IdctLayout& lay) {
  std::ostringstream os;
  os << "; 2D 8x8 fixed-point IDCT (even/odd symmetric passes, Q14 basis)\n"
     << "; register plan: r1/r2 = idct1d args, r12 = rounding constant,\n"
     << "; r13 = basis table, r14 = outer counter, r15 = link\n"
     << "main:\n"
     << "  li   r13, " << hex(lay.table) << "\n"
     << "  addi r12, r0, 1\n"
     << "  slli r12, r12, 13       ; rounding = 1 << 13\n"
     << "  addi r14, r0, 0\n"
     << "rowloop:\n"
     << "  slli r1, r14, 5\n"
     << "  li   r10, " << hex(lay.src) << "\n"
     << "  add  r1, r1, r10\n"
     << "  slli r2, r14, 5\n"
     << "  li   r10, " << hex(lay.tmp) << "\n"
     << "  add  r2, r2, r10\n"
     << "  call idct1d\n"
     << "  addi r14, r14, 1\n"
     << "  addi r10, r0, 8\n"
     << "  blt  r14, r10, rowloop\n"
     << "  addi r14, r0, 0\n"
     << "colloop:\n"
     << "  addi r4, r0, 0\n"
     << "gather:\n"
     << "  slli r7, r4, 3\n"
     << "  add  r7, r7, r14\n"
     << "  slli r7, r7, 2\n"
     << "  li   r10, " << hex(lay.tmp) << "\n"
     << "  add  r7, r7, r10\n"
     << "  lw   r8, 0(r7)\n"
     << "  slli r9, r4, 2\n"
     << "  li   r10, " << hex(lay.colbuf) << "\n"
     << "  add  r9, r9, r10\n"
     << "  sw   r8, 0(r9)\n"
     << "  addi r4, r4, 1\n"
     << "  addi r5, r0, 8\n"
     << "  blt  r4, r5, gather\n"
     << "  li   r1, " << hex(lay.colbuf) << "\n"
     << "  li   r2, " << hex(lay.colout) << "\n"
     << "  call idct1d\n"
     << "  addi r4, r0, 0\n"
     << "scatter:\n"
     << "  slli r9, r4, 2\n"
     << "  li   r10, " << hex(lay.colout) << "\n"
     << "  add  r9, r9, r10\n"
     << "  lw   r8, 0(r9)\n"
     << "  slli r7, r4, 3\n"
     << "  add  r7, r7, r14\n"
     << "  slli r7, r7, 2\n"
     << "  li   r10, " << hex(lay.dst) << "\n"
     << "  add  r7, r7, r10\n"
     << "  sw   r8, 0(r7)\n"
     << "  addi r4, r4, 1\n"
     << "  addi r5, r0, 8\n"
     << "  blt  r4, r5, scatter\n"
     << "  addi r14, r14, 1\n"
     << "  addi r5, r0, 8\n"
     << "  blt  r14, r5, colloop\n"
     << "  halt\n"
     << "\n"
     << "; one even/odd 1-D pass: r1 = in (8 words), r2 = out (8 words)\n"
     << "; clobbers r3,r5,r6,r7,r8,r9,r11\n"
     << "idct1d:\n"
     << "  addi r3, r0, 0\n"
     << "  mv   r11, r13\n"
     << "nloop:\n";
  emit_half_sum(os, "r5", 0);  // even: k = 0,2,4,6
  emit_half_sum(os, "r8", 1);  // odd:  k = 1,3,5,7
  os << "  add  r9, r5, r8\n"
     << "  add  r9, r9, r12\n"
     << "  srai r9, r9, 14\n"
     << "  slli r7, r3, 2\n"
     << "  add  r7, r7, r2\n"
     << "  sw   r9, 0(r7)          ; out[n]\n"
     << "  sub  r9, r5, r8\n"
     << "  add  r9, r9, r12\n"
     << "  srai r9, r9, 14\n"
     << "  addi r7, r0, 7\n"
     << "  sub  r7, r7, r3\n"
     << "  slli r7, r7, 2\n"
     << "  add  r7, r7, r2\n"
     << "  sw   r9, 0(r7)          ; out[7-n]\n"
     << "  addi r3, r3, 1\n"
     << "  addi r11, r11, 4\n"
     << "  addi r7, r0, 4\n"
     << "  blt  r3, r7, nloop\n"
     << "  ret\n";
  return os.str();
}

}  // namespace ouessant::l3
