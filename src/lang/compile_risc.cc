/**
 * @file
 * RL → RISC I lowering: register-window calling convention.
 *
 * Register plan per function (window-relative, see docs/ISA.md):
 *
 *   r8          GLOBAL: base address of the `gvars` data block,
 *               loaded once by the start stub and visible in every
 *               window.
 *   r26..r29    HIGH: incoming parameters (caller staged them in
 *               r10..r13 before CALL slid the window).
 *   r16..       LOCAL: named locals, zeroed in the prologue.
 *   then..r25   LOCAL: the expression stack.  Postorder evaluation
 *               holds every intermediate in a window-private
 *               register, so values are naturally preserved across
 *               calls — no spills, the window mechanism is the
 *               spiller.  This is the register-file half of the
 *               paper's CALL-cost argument.
 *
 * Results return through the overlap: the callee writes its r26
 * (= the caller's r10) and the caller finds the value in r10.  Every
 * transfer (call/ret/jump) is followed by an explicit `nop` delay
 * slot; no reorganizer runs over generated code.
 */

#include <algorithm>

#include "lang/lowering.hh"

namespace risc1::lang {

namespace {

constexpr int kGlobalBase = 8;   ///< r8 holds &gvars
constexpr int kArgBase = 10;     ///< outgoing args r10..r13
constexpr int kLocalBase = 16;   ///< named locals, then expr stack
constexpr int kLocalTop = 25;    ///< last usable LOCAL register
constexpr int kParamBase = 26;   ///< incoming params r26..r29

class RiscGen final : public Lowering
{
  public:
    explicit RiscGen(const Program &program)
        : Lowering(program, "lang riscgen")
    {
    }

  private:
    void
    emitStart() override
    {
        os_ << "; generated by lang::compileRisc — register-window "
               "calling convention\n";
        emit("start:", cat("ldi   r", kGlobalBase, ", ", kDataLabel));
        emit("", "call  f_main");
        emit("", "nop");
        emit("", cat("mov   r1, r", kArgBase),
             "checksum = main's return value");
        emit("", "halt");
    }

    // -- per-function state ---------------------------------------------

    /** Register of the expression-stack slot at @p depth. */
    int
    slot(int depth) const
    {
        const int reg = stackBase_ + depth;
        if (reg > kLocalTop)
            fatal(cat("lang riscgen: expression too deep in '",
                      fnName_, "' (stack slot r", reg, " > r",
                      kLocalTop, ")"));
        return reg;
    }

    int
    push()
    {
        return slot(depth_++);
    }

    int
    pop()
    {
        return slot(--depth_);
    }

    void
    emitFunction(const Function &f) override
    {
        fnName_ = f.name;
        depth_ = 0;
        stackBase_ = enterFunction(f, kParamBase, kLocalBase);
        // All locals are zero at entry: the window registers carry
        // whatever the previous occupant left, so clear explicitly.
        for (int r = kLocalBase; r < stackBase_; ++r)
            emit("", cat("clr   r", r));
        emitBody(f.body);
        // Fall-through return (implicit `return 0`).
        emit("", cat("clr   r", kParamBase));
        emit("", "ret");
        emit("", "nop");
    }

    void
    emitStmt(const Stmt &s) override
    {
        switch (s.kind) {
          case StmtKind::Local:
          case StmtKind::Assign: {
            emitExpr(*s.expr);
            const int v = pop();
            if (const int r = regOf(s.name); r >= 0) {
                emit("", cat("mov   r", r, ", r", v));
            } else {
                emit("", cat("stl   r", v, ", ",
                             4 * layout_.wordOf(s.name), "(r",
                             kGlobalBase, ")"),
                     s.name);
            }
            return;
          }
          case StmtKind::Store: {
            emitExpr(*s.index);
            emitExpr(*s.expr);
            const int v = pop();
            const int idx = pop();
            const std::uint32_t size = arraySize(s.name);
            emit("", cat("and   r", idx, ", r", idx, ", ", size - 1),
                 cat(s.name, "[i & ", size - 1, "]"));
            emit("", cat("sll   r", idx, ", r", idx, ", 2"));
            emit("", cat("add   r", idx, ", r", idx, ", r",
                         kGlobalBase));
            emit("", cat("stl   r", v, ", ", 4 * layout_.wordOf(s.name),
                         "(r", idx, ")"));
            return;
          }
          case StmtKind::If: {
            emitExpr(*s.expr);
            const int c = pop();
            const std::string elseL = newLabel();
            emit("", cat("cmp   r", c, ", 0"));
            emit("", cat("beq   ", elseL));
            emit("", "nop");
            emitBody(s.body);
            if (s.elseBody.empty()) {
                emitLabel(elseL);
                return;
            }
            const std::string endL = newLabel();
            emit("", cat("bra   ", endL));
            emit("", "nop");
            emitLabel(elseL);
            emitBody(s.elseBody);
            emitLabel(endL);
            return;
          }
          case StmtKind::While: {
            const std::string topL = newLabel();
            const std::string endL = newLabel();
            emitLabel(topL);
            emitExpr(*s.expr);
            const int c = pop();
            emit("", cat("cmp   r", c, ", 0"));
            emit("", cat("beq   ", endL));
            emit("", "nop");
            emitBody(s.body);
            emit("", cat("bra   ", topL));
            emit("", "nop");
            emitLabel(endL);
            return;
          }
          case StmtKind::Return: {
            emitExpr(*s.expr);
            const int v = pop();
            emit("", cat("mov   r", kParamBase, ", r", v),
                 "result rides the window overlap");
            emit("", "ret");
            emit("", "nop");
            return;
          }
          case StmtKind::Out: {
            emitExpr(*s.expr);
            const int v = slot(depth_ - 1);  // keep the value live
            const int cnt = push();
            const int addr = push();
            const std::string skipL = newLabel();
            const std::uint32_t cntOff = 4 * layout_.outCountWord;
            emit("", cat("ldl   r", cnt, ", ", cntOff, "(r",
                         kGlobalBase, ")"),
                 "out() count");
            emit("", cat("cmp   r", cnt, ", ", kOutCap));
            emit("", cat("bge   ", skipL),
                 "buffer full: count only");
            emit("", "nop");
            emit("", cat("sll   r", addr, ", r", cnt, ", 2"));
            emit("", cat("add   r", addr, ", r", addr, ", r",
                         kGlobalBase));
            emit("", cat("stl   r", v, ", ", 4 * layout_.outBufWord,
                         "(r", addr, ")"));
            emit(skipL + ":", cat("add   r", cnt, ", r", cnt, ", 1"));
            emit("", cat("stl   r", cnt, ", ", cntOff, "(r",
                         kGlobalBase, ")"));
            pop();  // addr
            pop();  // cnt
            pop();  // the out() value
            return;
          }
          case StmtKind::ExprStmt:
            emitExpr(*s.expr);
            pop();
            return;
        }
        panic("bad statement kind");
    }

    /** Evaluate @p e into the next stack slot (depth_ grows by one). */
    void
    emitExpr(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::IntLit: {
            const int t = push();
            emit("", cat("ldi   r", t, ", ",
                         static_cast<std::int32_t>(e.value)));
            return;
          }
          case ExprKind::Var:
          case ExprKind::Global: {
            if (const int r = regOf(e.name); r >= 0) {
                const int t = push();
                emit("", cat("mov   r", t, ", r", r), e.name);
            } else {
                const int t = push();
                emit("", cat("ldl   r", t, ", ",
                             4 * layout_.wordOf(e.name), "(r",
                             kGlobalBase, ")"),
                     e.name);
            }
            return;
          }
          case ExprKind::Index: {
            emitExpr(*e.lhs);
            const int t = slot(depth_ - 1);
            const std::uint32_t size = arraySize(e.name);
            emit("", cat("and   r", t, ", r", t, ", ", size - 1),
                 cat(e.name, "[i & ", size - 1, "]"));
            emit("", cat("sll   r", t, ", r", t, ", 2"));
            emit("", cat("add   r", t, ", r", t, ", r", kGlobalBase));
            emit("", cat("ldl   r", t, ", ", 4 * layout_.wordOf(e.name),
                         "(r", t, ")"));
            return;
          }
          case ExprKind::Unary:
            emitUnary(e);
            return;
          case ExprKind::Binary:
            emitBinary(e);
            return;
          case ExprKind::Call:
            emitCall(e);
            return;
        }
        panic("bad expression kind");
    }

    void
    emitUnary(const Expr &e)
    {
        emitExpr(*e.lhs);
        const int t = slot(depth_ - 1);
        switch (e.unop) {
          case UnOp::Neg:
            emit("", cat("neg   r", t, ", r", t));
            return;
          case UnOp::Not:
            emit("", cat("not   r", t, ", r", t));
            return;
          case UnOp::LNot: {
            const std::string oneL = newLabel();
            const std::string doneL = newLabel();
            emit("", cat("cmp   r", t, ", 0"));
            emit("", cat("beq   ", oneL));
            emit("", "nop");
            emit("", cat("ldi   r", t, ", 0"));
            emit("", cat("bra   ", doneL));
            emit("", "nop");
            emit(oneL + ":", cat("ldi   r", t, ", 1"));
            emitLabel(doneL);
            return;
          }
        }
        panic("bad unary operator");
    }

    void
    emitBinary(const Expr &e)
    {
        // Short-circuit forms evaluate the rhs conditionally, in the
        // same stack slot the lhs vacates.
        if (e.binop == BinOp::LAnd || e.binop == BinOp::LOr) {
            emitShortCircuit(e);
            return;
        }
        // Literal shift counts fold into the instruction.
        if (e.binop == BinOp::Shl || e.binop == BinOp::Shr) {
            emitExpr(*e.lhs);
            const int t = slot(depth_ - 1);
            const std::uint32_t k = e.rhs->value & 31;
            emit("", cat(e.binop == BinOp::Shl ? "sll" : "srl",
                         "   r", t, ", r", t, ", ", k));
            return;
        }
        emitExpr(*e.lhs);
        emitExpr(*e.rhs);
        const int rhs = pop();
        const int lhs = slot(depth_ - 1);
        const char *alu = nullptr;
        const char *cond = nullptr;
        switch (e.binop) {
          case BinOp::Or: alu = "or "; break;
          case BinOp::Xor: alu = "xor"; break;
          case BinOp::And: alu = "and"; break;
          case BinOp::Add: alu = "add"; break;
          case BinOp::Sub: alu = "sub"; break;
          case BinOp::Eq: cond = "beq"; break;
          case BinOp::Ne: cond = "bne"; break;
          case BinOp::Lt: cond = "blt"; break;
          case BinOp::Le: cond = "ble"; break;
          case BinOp::Gt: cond = "bgt"; break;
          case BinOp::Ge: cond = "bge"; break;
          default: panic("bad binary operator");
        }
        if (alu) {
            emit("", cat(alu, "   r", lhs, ", r", lhs, ", r", rhs));
            return;
        }
        // Comparison: materialize 0/1 through a signed pseudo-branch.
        const std::string trueL = newLabel();
        const std::string doneL = newLabel();
        emit("", cat("cmp   r", lhs, ", r", rhs));
        emit("", cat(cond, "   ", trueL));
        emit("", "nop");
        emit("", cat("ldi   r", lhs, ", 0"));
        emit("", cat("bra   ", doneL));
        emit("", "nop");
        emit(trueL + ":", cat("ldi   r", lhs, ", 1"));
        emitLabel(doneL);
    }

    void
    emitShortCircuit(const Expr &e)
    {
        const bool isAnd = e.binop == BinOp::LAnd;
        const std::string shortL = newLabel();
        const std::string doneL = newLabel();
        emitExpr(*e.lhs);
        int t = pop();
        emit("", cat("cmp   r", t, ", 0"));
        emit("", cat(isAnd ? "beq" : "bne", "   ", shortL),
             isAnd ? "lhs false: skip rhs" : "lhs true: skip rhs");
        emit("", "nop");
        emitExpr(*e.rhs);
        t = pop();
        emit("", cat("cmp   r", t, ", 0"));
        emit("", cat(isAnd ? "beq" : "bne", "   ", shortL));
        emit("", "nop");
        emit("", cat("ldi   r", t, ", ", isAnd ? 1 : 0));
        emit("", cat("bra   ", doneL));
        emit("", "nop");
        emit(shortL + ":", cat("ldi   r", t, ", ", isAnd ? 0 : 1));
        emitLabel(doneL);
        push();  // result occupies the slot both operands used
    }

    void
    emitCall(const Expr &e)
    {
        checkCallee(e.name);
        const int argBase = depth_;
        for (const auto &a : e.args)
            emitExpr(*a);
        // Stage args into LOW; the callee sees them in HIGH.
        for (std::size_t i = 0; i < e.args.size(); ++i)
            emit("", cat("mov   r", kArgBase + i, ", r",
                         slot(argBase + static_cast<int>(i))));
        emit("", cat("call  f_", e.name));
        emit("", "nop");
        depth_ = argBase;
        const int t = push();
        emit("", cat("mov   r", t, ", r", kArgBase),
             "result from the overlap");
    }

    std::string fnName_;
    int stackBase_ = kLocalBase;
    int depth_ = 0;
};

} // namespace

CompiledProgram
compileRisc(const Program &program)
{
    return RiscGen(program).run();
}

int
evalStackDepth(const Expr &e)
{
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::Var:
      case ExprKind::Global:
        return 1;
      case ExprKind::Index:
      case ExprKind::Unary:
        return evalStackDepth(*e.lhs);
      case ExprKind::Binary:
        if (e.binop == BinOp::Shl || e.binop == BinOp::Shr)
            return evalStackDepth(*e.lhs);
        if (e.binop == BinOp::LAnd || e.binop == BinOp::LOr)
            // Sequential: the rhs reuses the slot the lhs vacated.
            return std::max(evalStackDepth(*e.lhs),
                            evalStackDepth(*e.rhs));
        // lhs stays live while the rhs evaluates one slot higher.
        return std::max(evalStackDepth(*e.lhs),
                        1 + evalStackDepth(*e.rhs));
      case ExprKind::Call: {
        int depth = 1;  // the result slot
        for (std::size_t i = 0; i < e.args.size(); ++i)
            depth = std::max(depth, static_cast<int>(i) +
                                        evalStackDepth(*e.args[i]));
        return depth;
      }
    }
    panic("bad expression kind");
}

} // namespace risc1::lang
