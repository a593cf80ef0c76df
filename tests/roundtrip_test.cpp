// Property tests across tool layers:
//  * disassemble -> assemble -> encode is the identity for every operation;
//  * the assembler rejects malformed input with diagnostics, never crashes;
//  * assembled programs re-disassemble to the mnemonics they were written
//    with.
#include <gtest/gtest.h>

#include <random>

#include "asmgen/assembler.hpp"
#include "isa/isa.hpp"
#include "program_gen.hpp"

namespace ptaint {
namespace {

using asmgen::assemble;
using asmgen::AssemblyError;
using isa::Instruction;
using isa::Op;
using testgen::randomized;
using testgen::representative;

class DisasmAssembleRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DisasmAssembleRoundTrip, Identity) {
  const Op op = static_cast<Op>(GetParam());
  const Instruction in = representative(op);
  const uint32_t pc = isa::layout::kTextBase;
  const std::string text = ".text\n" + isa::disassemble(in, pc) + "\n";
  asmgen::Program prog;
  ASSERT_NO_THROW(prog = assemble(text)) << text;
  ASSERT_EQ(prog.text.size(), 1u) << text;
  EXPECT_EQ(prog.text[0], isa::encode(in)) << text << " -> "
      << isa::disassemble(isa::decode(prog.text[0]), pc);
}

INSTANTIATE_TEST_SUITE_P(AllOps, DisasmAssembleRoundTrip,
                         ::testing::Range(static_cast<int>(Op::kSll),
                                          static_cast<int>(Op::kJal) + 1));

// Satellite property test: disassemble -> assemble -> encode is the
// identity for EVERY operation under randomized fields, >= 10k cases.
TEST(AssemblerFuzz, RandomizedEveryOpRoundTrip10k) {
  std::mt19937 rng(0x5005);
  constexpr auto kFirst = static_cast<int>(Op::kSll);
  constexpr auto kLast = static_cast<int>(Op::kJal);
  constexpr size_t kRounds = 170;
  constexpr size_t kPerRound = 64;
  size_t cases = 0;

  for (size_t round = 0; round < kRounds; ++round) {
    // Every op at least once per round, padded with random picks.
    std::vector<Op> ops;
    for (int o = kFirst; o <= kLast; ++o) ops.push_back(static_cast<Op>(o));
    while (ops.size() < kPerRound) {
      ops.push_back(static_cast<Op>(kFirst + rng() % (kLast - kFirst + 1)));
    }

    std::string text = ".text\n";
    std::vector<Instruction> expected;
    for (size_t i = 0; i < ops.size(); ++i) {
      const Instruction in = randomized(ops[i], rng, i, ops.size());
      const uint32_t pc =
          isa::layout::kTextBase + 4 * static_cast<uint32_t>(i);
      text += isa::disassemble(in, pc) + "\n";
      expected.push_back(in);
    }

    asmgen::Program prog;
    ASSERT_NO_THROW(prog = assemble(text)) << text;
    ASSERT_EQ(prog.text.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(prog.text[i], isa::encode(expected[i]))
          << "round " << round << " line " << i << ": "
          << isa::disassemble(expected[i],
                              isa::layout::kTextBase +
                                  4 * static_cast<uint32_t>(i));
      EXPECT_EQ(isa::decode(prog.text[i]), expected[i]);
      ++cases;
    }
  }
  EXPECT_GE(cases, 10'000u);
}

TEST(AssemblerFuzz, GarbageNeverCrashes) {
  std::mt19937 rng(20050628);  // DSN'05 started June 28, 2005
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz$0123456789 .,:()#\"\\-+\n\t%";
  for (int round = 0; round < 300; ++round) {
    std::string text = ".text\n";
    const int len = 1 + static_cast<int>(rng() % 120);
    for (int i = 0; i < len; ++i) {
      text.push_back(alphabet[rng() % alphabet.size()]);
    }
    try {
      auto prog = assemble(text);
      // If it assembled, it must decode to *something* printable.
      for (uint32_t word : prog.text) {
        (void)isa::disassemble(isa::decode(word));
      }
    } catch (const AssemblyError&) {
      // expected for most inputs
    }
  }
}

TEST(AssemblerFuzz, RandomValidInstructionStreamsRoundTrip) {
  std::mt19937 rng(7);
  for (int round = 0; round < 50; ++round) {
    std::string text = ".text\n";
    std::vector<Instruction> expected;
    const int n = 1 + static_cast<int>(rng() % 30);
    for (int i = 0; i < n; ++i) {
      // Stick to ops whose representative form round-trips context-free.
      static constexpr Op kPool[] = {
          Op::kAddu, Op::kSubu, Op::kAnd, Op::kOr,  Op::kXor,  Op::kNor,
          Op::kSlt,  Op::kSltu, Op::kSll, Op::kSrl, Op::kLw,   Op::kSw,
          Op::kLb,   Op::kLbu,  Op::kSb,  Op::kAddiu, Op::kOri, Op::kLui,
      };
      Instruction in = representative(kPool[rng() % std::size(kPool)]);
      in.rd = static_cast<uint8_t>(rng() % 32);
      in.rt = static_cast<uint8_t>(rng() % 32);
      in.rs = static_cast<uint8_t>(rng() % 32);
      if (in.op == Op::kSll || in.op == Op::kSrl) {
        in.rs = 0;
        in.shamt = static_cast<uint8_t>(rng() % 32);
      }
      if (isa::op_format(in.op) == isa::Format::kI) {
        in.rd = 0;
        in.shamt = 0;
        if (in.op == Op::kOri) {
          in.imm = static_cast<int32_t>(rng() % 0x10000);
        } else if (in.op == Op::kLui) {
          in.rs = 0;
          in.imm = static_cast<int32_t>(rng() % 0x10000);
        } else {
          in.imm = static_cast<int32_t>(rng() % 0x10000) - 0x8000;
        }
      }
      expected.push_back(in);
      text += isa::disassemble(in) + "\n";
    }
    asmgen::Program prog;
    ASSERT_NO_THROW(prog = assemble(text)) << text;
    ASSERT_EQ(prog.text.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(isa::decode(prog.text[i]), expected[i])
          << "line " << i << ": " << isa::disassemble(expected[i]);
    }
  }
}

}  // namespace
}  // namespace ptaint
