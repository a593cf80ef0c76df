// Seeded generators shared by the property tests.
//
//  * representative / randomized: one canonical instruction per operation,
//    and a randomized variant with the same per-op field constraints the
//    encoder demands (the assembler round-trip tests).
//  * ProgramGenerator: whole well-formed guest programs for the engine
//    differential oracle (oracle_test.cpp).  A program reads tainted
//    stdin, runs a bounded outer loop over random constructs — ALU ops,
//    input loads, buffer loads/stores behind compare-untaint bounds
//    checks, spills, inner loops, direct and table-driven calls, a jump
//    table dispatched through data, stores that patch its own text,
//    SYS_WRITE/SYS_READ/SYS_BRK — and exits with a register digest.  Every
//    construct terminates, so a program ends by exit, by a detector alert
//    or by a fault, and all three are outcomes the engines must agree on.
#pragma once

#include <cstdint>
#include <iterator>
#include <random>
#include <string>

#include "isa/isa.hpp"

namespace ptaint::testgen {

inline isa::Instruction representative(isa::Op op) {
  using isa::Op;
  isa::Instruction in;
  in.op = op;
  switch (isa::op_format(op)) {
    case isa::Format::kR:
      in.rd = 2;
      in.rs = 4;
      in.rt = 21;
      if (op == Op::kSll || op == Op::kSrl || op == Op::kSra) {
        in.rs = 0;  // canonical shift-immediate encoding has rs = 0
        in.shamt = 7;
      }
      if (op == Op::kJr) {
        in.rd = in.rt = 0;
      }
      if (op == Op::kJalr) {
        in.rd = 31;
        in.rt = 0;
      }
      if (op == Op::kMult || op == Op::kMultu || op == Op::kDiv ||
          op == Op::kDivu) {
        in.rd = 0;
      }
      if (op == Op::kTaintSet || op == Op::kTaintClr) in.rt = 0;
      if (op == Op::kMfhi || op == Op::kMflo) in.rs = in.rt = 0;
      if (op == Op::kMthi || op == Op::kMtlo) in.rd = in.rt = 0;
      if (op == Op::kSyscall || op == Op::kBreak) in.rd = in.rs = in.rt = 0;
      break;
    case isa::Format::kI:
      in.rt = 21;
      in.rs = 4;
      in.imm = (op == Op::kAndi || op == Op::kOri || op == Op::kXori)
                   ? 0x1234
                   : -28;
      if (op == Op::kLui) {
        in.rs = 0;
        in.imm = 0x1002;
      }
      if (op == Op::kBltz || op == Op::kBgez || op == Op::kBltzal ||
          op == Op::kBgezal || op == Op::kBlez || op == Op::kBgtz) {
        in.rt = 0;
      }
      break;
    case isa::Format::kJ:
      in.target = 0x00400100;
      break;
  }
  return in;
}

/// Randomized variant of `representative`: random register/immediate fields
/// with the same per-op canonical constraints the encoder demands.  Branch
/// and jump targets land inside a stream of `n` instructions at position
/// `index` so the disassembled text reassembles in any context.
inline isa::Instruction randomized(isa::Op op, std::mt19937& rng,
                                   size_t index, size_t n) {
  using isa::Op;
  isa::Instruction in = representative(op);
  auto reg = [&] { return static_cast<uint8_t>(rng() % 32); };
  auto simm = [&] { return static_cast<int32_t>(rng() % 0x10000) - 0x8000; };
  switch (isa::op_format(op)) {
    case isa::Format::kR:
      in.rd = reg();
      in.rs = reg();
      in.rt = reg();
      if (op == Op::kSll || op == Op::kSrl || op == Op::kSra) {
        in.rs = 0;
        in.shamt = static_cast<uint8_t>(rng() % 32);
      }
      if (op == Op::kJr) in.rd = in.rt = 0;
      if (op == Op::kJalr) {
        in.rd = 31;  // canonical link register form
        in.rt = 0;
      }
      if (op == Op::kMult || op == Op::kMultu || op == Op::kDiv ||
          op == Op::kDivu) {
        in.rd = 0;
      }
      if (op == Op::kTaintSet || op == Op::kTaintClr) in.rt = 0;
      if (op == Op::kMfhi || op == Op::kMflo) in.rs = in.rt = 0;
      if (op == Op::kMthi || op == Op::kMtlo) in.rd = in.rt = 0;
      if (op == Op::kSyscall || op == Op::kBreak) in.rd = in.rs = in.rt = 0;
      break;
    case isa::Format::kI:
      in.rt = reg();
      in.rs = reg();
      in.imm = simm();
      if (op == Op::kAndi || op == Op::kOri || op == Op::kXori) {
        in.imm = static_cast<int32_t>(rng() % 0x10000);
      }
      if (op == Op::kLui) {
        in.rs = 0;
        in.imm = static_cast<int32_t>(rng() % 0x10000);
      }
      if (isa::op_class(op) == isa::OpClass::kBranch) {
        if (op != Op::kBeq && op != Op::kBne) in.rt = 0;
        // Aim at a random instruction in the stream: offset (in words)
        // from the delay-free next pc.
        const auto target = static_cast<int32_t>(rng() % n);
        in.imm = target - static_cast<int32_t>(index) - 1;
      }
      break;
    case isa::Format::kJ:
      in.target = isa::layout::kTextBase +
                  4 * static_cast<uint32_t>(rng() % n);
      break;
  }
  return in;
}

/// One generated guest program: assembly source plus the stdin bytes its
/// SYS_READs taint.
struct GeneratedProgram {
  std::string source;
  std::string input;
};

class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint32_t seed) : rng_(seed) {}

  GeneratedProgram generate() {
    functions_ = static_cast<int>(rng_() % 4);
    std::string main_body;
    body_ = &main_body;
    line("addiu $29, $29, -64");
    line("la $21, inbuf");
    line("la $22, workbuf");
    sys_read(0, 64);
    for (uint8_t r : kWork) {
      line("li " + reg(r) + ", " + std::to_string(static_cast<int32_t>(rng_() % 2000) - 1000));
    }
    // A long straight-line leaf pushes the text past one page in a third
    // of the programs, so page-granular invalidation has neighbours to
    // leave alone.
    const bool pad = rng_() % 3 == 0;
    line("li $23, " + std::to_string(3 + rng_() % 6));
    label("outer");
    label("site_main");
    line("addiu $3, $3, 1");
    if (pad) line("jal pad");
    Scope main_scope;
    main_scope.frame = 64;
    main_scope.callees = functions_;
    constructs(main_scope, 8 + rng_() % 40);
    line("addiu $23, $23, -1");
    line("bgtz $23, outer");
    line("xor $4, $8, $3");
    line("addu $4, $4, $16");
    line("li $2, 1");
    line("syscall");

    std::string fn_text;
    for (int f = 0; f < functions_; ++f) {
      std::string body;
      body_ = &body;
      label("f" + std::to_string(f));
      line("addiu $29, $29, -32");
      line("sw $31, 28($29)");
      line("sw $16, 24($29)");
      Scope scope;
      scope.frame = 24;  // spill slots below the saved registers
      scope.callees = f;
      scope.in_function = true;
      constructs(scope, 2 + rng_() % 16);
      label("site_f" + std::to_string(f));
      line("addiu $3, $3, " + std::to_string(1 + f));
      line("lw $16, 24($29)");
      line("lw $31, 28($29)");
      line("addiu $29, $29, 32");
      line("jr $31");
      fn_text += body;
    }
    if (pad) {
      std::string body;
      body_ = &body;
      label("pad");
      for (uint32_t i = 600 + rng_() % 1200; i > 0; --i) alu();
      line("jr $31");
      fn_text += body;
    }

    std::string source = "    .data\ninbuf:\n    .space 128\nworkbuf:\n    .space 256\n";
    if (functions_ > 0) {
      source += "ftbl:\n    .word ";
      for (int f = 0; f < functions_; ++f) {
        source += (f ? ", f" : "f") + std::to_string(f);
      }
      source += "\n";
    }
    source += data_;
    source += "    .text\n_start:\n" + main_body + fn_text;

    GeneratedProgram out;
    out.source = std::move(source);
    const size_t n = 64 + rng_() % 192;
    for (size_t i = 0; i < n; ++i) {
      out.input.push_back(static_cast<char>(rng_() % 256));
    }
    return out;
  }

 private:
  // Registers random constructs may overwrite.  Reserved: $2 (syscall
  // number), $4-$6 (syscall arguments), $21 inbuf, $22 workbuf, $23 outer
  // counter, $24/$26/$27 address temporaries, $25 inner counter, $29, $31.
  static constexpr uint8_t kWork[] = {3, 7, 8, 9, 10, 11, 12, 13,
                                      14, 15, 16, 17, 18, 19};

  struct Scope {
    uint32_t frame = 0;      // bytes of spill slots at 0($29)
    int callees = 0;         // functions f0..f{callees-1} are callable
    bool in_function = false;
    bool in_loop = false;
    int depth = 0;           // forward-branch nesting
  };

  static std::string reg(uint8_t r) { return "$" + std::to_string(r); }
  uint8_t work() { return kWork[rng_() % std::size(kWork)]; }
  std::string fresh(const char* stem) {
    return stem + std::to_string(labels_++);
  }
  void line(const std::string& s) { *body_ += "    " + s + "\n"; }
  void label(const std::string& l) { *body_ += l + ":\n"; }

  void sys_read(uint32_t off, uint32_t len) {
    line("li $2, 3");
    line("li $4, 0");
    line("addiu $5, $21, " + std::to_string(off));
    line("li $6, " + std::to_string(len));
    line("syscall");
  }

  void constructs(const Scope& scope, size_t n) {
    for (size_t i = 0; i < n; ++i) construct(scope);
  }

  /// One ALU/multiply/taint-primitive instruction on work registers, drawn
  /// through `randomized` so every field obeys the encoder's constraints.
  void alu() {
    using isa::Op;
    static constexpr Op kPool[] = {
        Op::kAddu,  Op::kSubu,  Op::kAnd,   Op::kOr,    Op::kXor,
        Op::kNor,   Op::kSlt,   Op::kSltu,  Op::kSll,   Op::kSrl,
        Op::kSra,   Op::kSllv,  Op::kSrlv,  Op::kSrav,  Op::kAddiu,
        Op::kAndi,  Op::kOri,   Op::kXori,  Op::kSlti,  Op::kSltiu,
        Op::kLui,   Op::kMult,  Op::kMultu, Op::kDiv,   Op::kDivu,
        Op::kMfhi,  Op::kMflo,  Op::kMthi,  Op::kMtlo,  Op::kTaintClr,
        Op::kTaintSet, Op::kAdd, Op::kSub,  Op::kAddi,
    };
    const Op op = kPool[rng_() % std::size(kPool)];
    const isa::Instruction canon = representative(op);
    isa::Instruction in = randomized(op, rng_, 0, 1);
    if (canon.rd != 0) in.rd = work();
    if (canon.rs != 0) in.rs = work();
    if (canon.rt != 0) in.rt = work();
    line(isa::disassemble(in, isa::layout::kTextBase));
  }

  /// A bounds-checked (or, rarely, unchecked) workbuf access indexed by a
  /// work register: the compare-untaint idiom that keeps a tainted index
  /// from tripping the memory detector.
  void workbuf_access(bool store) {
    static const char* kLoads[] = {"lw", "lh", "lhu", "lb", "lbu"};
    static const char* kStores[] = {"sw", "sh", "sb"};
    const char* m = store ? kStores[rng_() % 3] : kLoads[rng_() % 5];
    const char w = m[1];
    const char* mask = w == 'w' ? "252" : w == 'h' ? "254" : "255";
    const std::string skip = fresh("skip");
    line("andi $24, " + reg(work()) + ", " + mask);
    const bool checked = rng_() % 16 != 0;
    if (checked) {
      line("sltiu $26, $24, 256");
      line("beq $26, $0, " + skip);
    }
    line("addu $24, $24, $22");
    line(std::string(m) + " " + reg(work()) + ", 0($24)");
    label(skip);
  }

  void construct(const Scope& scope) {
    switch (rng_() % 20) {
      case 0: case 1: case 2: case 3: case 4: case 5:
        alu();
        return;
      case 6: {  // tainted input word/half/byte
        static const char* kLoads[] = {"lw", "lh", "lhu", "lb", "lbu"};
        const uint32_t pick = rng_() % 5;
        const uint32_t align = pick == 0 ? 4 : pick <= 2 ? 2 : 1;
        const uint32_t off = (rng_() % 128) / align * align;
        line(std::string(kLoads[pick]) + " " + reg(work()) + ", " +
             std::to_string(off) + "($21)");
        return;
      }
      case 7: case 8:
        workbuf_access(/*store=*/rng_() % 2 == 0);
        return;
      case 9: {  // spill and reload through the frame
        if (scope.frame == 0) return alu();
        const uint32_t off = 4 * (rng_() % (scope.frame / 4));
        line((rng_() % 2 ? "sw " : "lw ") + reg(work()) + ", " +
             std::to_string(off) + "($29)");
        return;
      }
      case 10: {  // address provenance: stack, text, heap
        switch (rng_() % 3) {
          case 0:
            line("addiu " + reg(work()) + ", $29, " +
                 std::to_string(rng_() % 64));
            return;
          case 1:
            line("la " + reg(work()) + ", site_main");
            return;
          default:
            line("li $2, 17");
            line("li $4, 0");
            line("syscall");
            line("move " + reg(work()) + ", $2");
            return;
        }
      }
      case 11: {  // SYS_WRITE of workbuf bytes (the leak sink)
        const uint32_t off = rng_() % 224;
        line("li $2, 4");
        line("li $4, 1");
        line("addiu $5, $22, " + std::to_string(off));
        line("li $6, " + std::to_string(1 + rng_() % 32));
        line("syscall");
        return;
      }
      case 12:  // more tainted input
        if (rng_() % 2) return alu();
        sys_read(rng_() % 64, 1 + rng_() % 64);
        return;
      case 13: {  // direct or table-driven call
        if (scope.callees == 0) return alu();
        const uint32_t f = rng_() % static_cast<uint32_t>(scope.callees);
        if (rng_() % 2) {
          line("jal f" + std::to_string(f));
        } else {
          line("la $26, ftbl");
          line("lw $27, " + std::to_string(4 * f) + "($26)");
          line("jalr $31, $27");
        }
        return;
      }
      case 14: {  // jr through a jump table in .data
        const std::string table = fresh("jt");
        const std::string join = fresh("join");
        const int cases = 4;
        line("andi $26, " + reg(work()) + ", 3");
        line("sltiu $27, $26, 4");
        line("beq $27, $0, " + join);
        line("sll $26, $26, 2");
        line("la $27, " + table);
        line("addu $26, $26, $27");
        line("lw $27, 0($26)");
        line("jr $27");
        data_ += table + ":\n    .word ";
        for (int c = 0; c < cases; ++c) {
          const std::string target = table + "_" + std::to_string(c);
          data_ += (c ? ", " : "") + target;
          label(target);
          alu();
          line("j " + join);
        }
        data_ += "\n";
        label(join);
        return;
      }
      case 15: {  // self-modifying code: rewrite a patch site
        std::string site = "site_main";
        if (functions_ > 0 && rng_() % 2) {
          site = "site_f" + std::to_string(rng_() % static_cast<uint32_t>(functions_));
        }
        isa::Instruction patch;
        patch.rt = 3;
        patch.rs = 3;
        switch (rng_() % 3) {
          case 0:
            patch.op = isa::Op::kAddiu;
            patch.imm = static_cast<int32_t>(rng_() % 200) - 100;
            break;
          case 1:
            patch.op = isa::Op::kXori;
            patch.imm = static_cast<int32_t>(rng_() % 0x10000);
            break;
          default:
            patch.op = isa::Op::kAddu;
            patch.rd = 3;
            patch.rt = work();
            break;
        }
        line("la $26, " + site);
        line("li $27, " + std::to_string(isa::encode(patch)));
        line("sw $27, 0($26)");
        return;
      }
      case 16: case 17: {  // forward branch over a few constructs
        if (scope.depth >= 2) return alu();
        static const char* kBranches[] = {"beq", "bne", "blez", "bgtz",
                                          "bltz", "bgez"};
        const uint32_t pick = rng_() % 6;
        const std::string skip = fresh("fwd");
        if (pick < 2) {
          line(std::string(kBranches[pick]) + " " + reg(work()) + ", " +
               reg(work()) + ", " + skip);
        } else {
          line(std::string(kBranches[pick]) + " " + reg(work()) + ", " +
               skip);
        }
        Scope inner = scope;
        ++inner.depth;
        constructs(inner, 1 + rng_() % 4);
        label(skip);
        return;
      }
      case 18: {  // bounded inner loop
        if (scope.in_loop || scope.in_function || scope.depth > 0) {
          return alu();
        }
        const std::string top = fresh("loop");
        line("li $25, " + std::to_string(4 + rng_() % 16));
        label(top);
        Scope inner = scope;
        inner.in_loop = true;
        constructs(inner, 2 + rng_() % 6);
        line("addiu $25, $25, -1");
        line("bgtz $25, " + top);
        return;
      }
      default: {  // compare-untaint idiom on a work register
        const uint8_t r = work();
        line("sltiu $26, " + reg(r) + ", " + std::to_string(rng_() % 512));
        line("slt " + reg(work()) + ", " + reg(r) + ", " + reg(work()));
        return;
      }
    }
  }

  std::mt19937 rng_;
  int functions_ = 0;
  int labels_ = 0;
  std::string* body_ = nullptr;
  std::string data_;
};

}  // namespace ptaint::testgen
