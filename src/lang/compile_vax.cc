/**
 * @file
 * RL → VAX lowering: CALLS-frame calling convention, the paper's
 * CISC baseline.
 *
 * Conventions per function:
 *
 *   - Arguments are evaluated left to right on the CPU stack, then
 *     `calls #n` builds the frame.  With left-to-right pushes the
 *     first argument is deepest, so parameter i (0-based, arity n)
 *     reads back at `4*(n-i)(ap)`.
 *   - The entry mask saves r2..r9; parameters copy into r2..r(1+n)
 *     and named locals occupy r(2+n).. — at most 4+4 = 8 registers,
 *     exactly the saved set.  Locals are cleared in the prologue
 *     (the language guarantees zero at entry).
 *   - Expressions evaluate on the CPU stack (`pushl` / `movl (sp)+`),
 *     scratch in r0/r1/r10 (caller-saved, never live across a call).
 *   - The result returns in r0; `ret` tears the frame down, so any
 *     expression junk left on the stack is reclaimed for free.
 *
 * Every memory-frame CALLS/RET pair here is the cost the paper's
 * register windows avoid — the differential harness proves both
 * conventions compute the same observables.
 *
 * Conditional branches are byte-displacement only, so every
 * conditional transfer uses the inverted-branch pattern (`bneq` over
 * a `brw`) and never limits how large a lowered body can grow.
 */

#include <sstream>

#include "lang/lowering.hh"

namespace risc1::lang {

namespace {

constexpr int kVarBase = 2;  ///< params then locals in r2..r9

class VaxGen final : public Lowering
{
  public:
    explicit VaxGen(const Program &program)
        : Lowering(program, "lang vaxgen")
    {
    }

  private:
    void
    emitStart() override
    {
        os_ << "; generated by lang::compileVax — CALLS memory-frame "
               "calling convention\n";
        emit("start:", "calls #0, f_main");
        emit("", "halt", "checksum = r0 = main's return value");
    }

    static std::string
    hex32(std::uint32_t v)
    {
        std::ostringstream h;
        h << "0x" << std::hex << v;
        return h.str();
    }

    /** Word offset inside `gvars` rendered as an operand expression. */
    std::string
    cell(std::uint32_t word) const
    {
        if (word == 0)
            return kDataLabel;
        return cat(kDataLabel, " + ", 4 * word);
    }

    void
    emitFunction(const Function &f) override
    {
        const std::size_t n = f.params.size();
        const int nextLocal =
            enterFunction(f, kVarBase, kVarBase + static_cast<int>(n));
        emit("", ".mask 0x03fc", "save r2-r9");
        for (std::size_t i = 0; i < n; ++i)
            emit("", cat("movl  ", 4 * (n - i), "(ap), r",
                         kVarBase + i),
                 f.params[i]);
        for (int r = kVarBase + static_cast<int>(n); r < nextLocal; ++r)
            emit("", cat("clrl  r", r), "local zero at entry");
        emitBody(f.body);
        // Fall-through return (implicit `return 0`).
        emit("", "clrl  r0");
        emit("", "ret");
    }

    void
    emitStmt(const Stmt &s) override
    {
        switch (s.kind) {
          case StmtKind::Local:
          case StmtKind::Assign:
            emitExpr(*s.expr);
            if (const int r = regOf(s.name); r >= 0)
                emit("", cat("movl  (sp)+, r", r), s.name);
            else
                emit("", cat("movl  (sp)+, ",
                             cell(layout_.wordOf(s.name))),
                     s.name);
            return;
          case StmtKind::Store: {
            emitExpr(*s.index);
            emitExpr(*s.expr);
            const std::uint32_t size = arraySize(s.name);
            emit("", "movl  (sp)+, r0", "value");
            emit("", "movl  (sp)+, r1", "index");
            emit("", cat("bicl2 #", hex32(~(size - 1)), ", r1"),
                 cat(s.name, "[i & ", size - 1, "]"));
            emit("", "ashl  #2, r1, r1");
            emit("", cat("addl2 #", cell(layout_.wordOf(s.name)),
                         ", r1"));
            emit("", "movl  r0, (r1)");
            return;
          }
          case StmtKind::If: {
            emitExpr(*s.expr);
            const std::string thenL = newLabel();
            const std::string elseL = newLabel();
            emit("", "movl  (sp)+, r0");
            emit("", "tstl  r0");
            emit("", cat("bneq  ", thenL));
            emit("", cat("brw   ", elseL),
                 "inverted branch: beql is byte-range only");
            emitLabel(thenL);
            emitBody(s.body);
            if (s.elseBody.empty()) {
                emitLabel(elseL);
                return;
            }
            const std::string endL = newLabel();
            emit("", cat("brw   ", endL));
            emitLabel(elseL);
            emitBody(s.elseBody);
            emitLabel(endL);
            return;
          }
          case StmtKind::While: {
            const std::string topL = newLabel();
            const std::string bodyL = newLabel();
            const std::string endL = newLabel();
            emitLabel(topL);
            emitExpr(*s.expr);
            emit("", "movl  (sp)+, r0");
            emit("", "tstl  r0");
            emit("", cat("bneq  ", bodyL));
            emit("", cat("brw   ", endL));
            emitLabel(bodyL);
            emitBody(s.body);
            emit("", cat("brw   ", topL));
            emitLabel(endL);
            return;
          }
          case StmtKind::Return:
            emitExpr(*s.expr);
            emit("", "movl  (sp)+, r0", "result in r0");
            emit("", "ret");
            return;
          case StmtKind::Out: {
            emitExpr(*s.expr);
            const std::string skipL = newLabel();
            emit("", "movl  (sp)+, r0", "out() value");
            emit("", cat("movl  ", cell(layout_.outCountWord),
                         ", r1"),
                 "out() count");
            emit("", cat("cmpl  r1, #", kOutCap));
            emit("", cat("bgeq  ", skipL), "buffer full: count only");
            emit("", "ashl  #2, r1, r10");
            emit("", cat("addl2 #", cell(layout_.outBufWord),
                         ", r10"));
            emit("", "movl  r0, (r10)");
            emit(skipL + ":",
                 cat("incl  ", cell(layout_.outCountWord)),
                 "CISC-idiomatic memory increment");
            return;
          }
          case StmtKind::ExprStmt:
            emitExpr(*s.expr);
            emit("", "movl  (sp)+, r0", "discard");
            return;
        }
        panic("bad statement kind");
    }

    /** Evaluate @p e, leaving its value on top of the CPU stack. */
    void
    emitExpr(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::IntLit:
            emit("", cat("pushl #", static_cast<std::int32_t>(e.value)));
            return;
          case ExprKind::Var:
          case ExprKind::Global:
            if (const int r = regOf(e.name); r >= 0)
                emit("", cat("pushl r", r), e.name);
            else
                emit("", cat("pushl ", cell(layout_.wordOf(e.name))),
                     e.name);
            return;
          case ExprKind::Index: {
            emitExpr(*e.lhs);
            const std::uint32_t size = arraySize(e.name);
            emit("", "movl  (sp)+, r1");
            emit("", cat("bicl2 #", hex32(~(size - 1)), ", r1"),
                 cat(e.name, "[i & ", size - 1, "]"));
            emit("", "ashl  #2, r1, r1");
            emit("", cat("addl2 #", cell(layout_.wordOf(e.name)),
                         ", r1"));
            emit("", "pushl (r1)");
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
        switch (e.unop) {
          case UnOp::Neg:
            emit("", "mnegl (sp), (sp)");
            return;
          case UnOp::Not:
            emit("", "mcoml (sp), (sp)");
            return;
          case UnOp::LNot: {
            const std::string oneL = newLabel();
            const std::string doneL = newLabel();
            emit("", "movl  (sp)+, r0");
            emit("", "tstl  r0");
            emit("", cat("beql  ", oneL));
            emit("", "pushl #0");
            emit("", cat("brb   ", doneL));
            emit(oneL + ":", "pushl #1");
            emitLabel(doneL);
            return;
          }
        }
        panic("bad unary operator");
    }

    void
    emitBinary(const Expr &e)
    {
        if (e.binop == BinOp::LAnd || e.binop == BinOp::LOr) {
            emitShortCircuit(e);
            return;
        }
        if (e.binop == BinOp::Shl || e.binop == BinOp::Shr) {
            const std::uint32_t k = e.rhs->value & 31;
            emitExpr(*e.lhs);
            if (k == 0)
                return;
            emit("", "movl  (sp)+, r0");
            if (e.binop == BinOp::Shl) {
                emit("", cat("ashl  #", k, ", r0, r0"));
            } else {
                // ashl is arithmetic: clear the sign-extended bits
                // to make the shift logical, matching the RISC srl.
                emit("", cat("ashl  #-", k, ", r0, r0"));
                emit("", cat("bicl2 #", hex32(~(0xffffffffu >> k)),
                             ", r0"),
                     "logical shift");
            }
            emit("", "pushl r0");
            return;
        }
        emitExpr(*e.lhs);
        emitExpr(*e.rhs);
        switch (e.binop) {
          case BinOp::Add:
            emit("", "movl  (sp)+, r0");
            emit("", "addl2 r0, (sp)");
            return;
          case BinOp::Sub:
            emit("", "movl  (sp)+, r0");
            emit("", "subl2 r0, (sp)");
            return;
          case BinOp::Or:
            emit("", "movl  (sp)+, r0");
            emit("", "bisl2 r0, (sp)");
            return;
          case BinOp::Xor:
            emit("", "movl  (sp)+, r0");
            emit("", "xorl2 r0, (sp)");
            return;
          case BinOp::And:
            // No andl2: AND via BIC with the complemented mask.
            emit("", "movl  (sp)+, r0");
            emit("", "mcoml r0, r0");
            emit("", "bicl2 r0, (sp)", "and = bic(~rhs)");
            return;
          default:
            break;
        }
        const char *cond = nullptr;
        switch (e.binop) {
          case BinOp::Eq: cond = "beql"; break;
          case BinOp::Ne: cond = "bneq"; break;
          case BinOp::Lt: cond = "blss"; break;
          case BinOp::Le: cond = "bleq"; break;
          case BinOp::Gt: cond = "bgtr"; break;
          case BinOp::Ge: cond = "bgeq"; break;
          default: panic("bad binary operator");
        }
        const std::string trueL = newLabel();
        const std::string doneL = newLabel();
        emit("", "movl  (sp)+, r1", "rhs");
        emit("", "movl  (sp)+, r0", "lhs");
        emit("", "cmpl  r0, r1");
        emit("", cat(cond, "  ", trueL));
        emit("", "pushl #0");
        emit("", cat("brb   ", doneL));
        emit(trueL + ":", "pushl #1");
        emitLabel(doneL);
    }

    void
    emitShortCircuit(const Expr &e)
    {
        const bool isAnd = e.binop == BinOp::LAnd;
        const std::string rhsL = newLabel();
        const std::string shortL = newLabel();
        const std::string longL = newLabel();
        const std::string doneL = newLabel();
        emitExpr(*e.lhs);
        emit("", "movl  (sp)+, r0");
        emit("", "tstl  r0");
        emit("", cat(isAnd ? "bneq" : "beql", "  ", rhsL));
        emit("", cat("brw   ", shortL),
             isAnd ? "lhs false: skip rhs" : "lhs true: skip rhs");
        emitLabel(rhsL);
        emitExpr(*e.rhs);
        emit("", "movl  (sp)+, r0");
        emit("", "tstl  r0");
        emit("", cat(isAnd ? "bneq" : "beql", "  ", longL));
        emitLabel(shortL);
        emit("", cat("pushl #", isAnd ? 0 : 1));
        emit("", cat("brb   ", doneL));
        emit(longL + ":", cat("pushl #", isAnd ? 1 : 0));
        emitLabel(doneL);
    }

    void
    emitCall(const Expr &e)
    {
        checkCallee(e.name);
        for (const auto &a : e.args)
            emitExpr(*a);
        emit("", cat("calls #", e.args.size(), ", f_", e.name));
        emit("", "pushl r0", "result");
    }
};

} // namespace

CompiledProgram
compileVax(const Program &program)
{
    return VaxGen(program).run();
}

} // namespace risc1::lang
