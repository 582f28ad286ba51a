/**
 * @file
 * The AST of the RL mini language (docs/LANG.md) — the C-like workload
 * language the differential suite compiles to both ISAs, as whole
 * programs: 32-bit ints, power-of-two global arrays,
 * if/while, function calls with arguments and return values, and an
 * `out()` trace statement.  The same tree is consumed by the
 * reference interpreter (interp.hh), both ISA lowerings (compile.hh),
 * the seeded program generator (gen.hh), and the failure minimizer
 * (minimize.hh), so every node is deep-clonable and value-comparable
 * through its printed form (print.hh).
 */

#ifndef RISC1_LANG_AST_HH
#define RISC1_LANG_AST_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace risc1::lang {

/** Binary operators, lowest-to-highest precedence tiers documented in
 *  docs/LANG.md.  Shifts take literal counts 0..31 (parser-enforced)
 *  so both ISAs lower them with static masks. */
enum class BinOp : std::uint8_t
{
    LOr,   ///< || (short-circuit, yields 0/1)
    LAnd,  ///< && (short-circuit, yields 0/1)
    Or,    ///< |
    Xor,   ///< ^
    And,   ///< &
    Eq,    ///< == (yields 0/1)
    Ne,    ///< !=
    Lt,    ///< <  (signed, yields 0/1)
    Le,    ///< <=
    Gt,    ///< >
    Ge,    ///< >=
    Shl,   ///< << (literal count)
    Shr,   ///< >> (logical, literal count)
    Add,   ///< + (wrapping)
    Sub,   ///< - (wrapping)
};

enum class UnOp : std::uint8_t
{
    Neg,  ///< - (two's complement)
    Not,  ///< ~ (bitwise complement)
    LNot, ///< ! (yields 0/1)
};

/** Expression node kinds. */
enum class ExprKind : std::uint8_t
{
    IntLit,  ///< 32-bit literal
    Var,     ///< local variable or parameter reference
    Global,  ///< global scalar reference
    Index,   ///< global array element (index is masked by size-1)
    Unary,
    Binary,
    Call,    ///< function call with arguments
};

struct Expr
{
    ExprKind kind = ExprKind::IntLit;
    std::uint32_t value = 0;       ///< IntLit; Shl/Shr literal count
    std::string name;              ///< Var/Global/Index/Call
    UnOp unop = UnOp::Neg;
    BinOp binop = BinOp::Add;
    std::unique_ptr<Expr> lhs, rhs;        ///< Unary uses lhs only;
                                           ///< Index uses lhs as index
    std::vector<std::unique_ptr<Expr>> args;  ///< Call

    std::unique_ptr<Expr> clone() const;

    static std::unique_ptr<Expr> lit(std::uint32_t v);
    static std::unique_ptr<Expr> var(std::string n);
    static std::unique_ptr<Expr> global(std::string n);
    static std::unique_ptr<Expr> index(std::string n,
                                       std::unique_ptr<Expr> i);
    static std::unique_ptr<Expr> unary(UnOp op, std::unique_ptr<Expr> e);
    static std::unique_ptr<Expr> binary(BinOp op, std::unique_ptr<Expr> l,
                                        std::unique_ptr<Expr> r);
    static std::unique_ptr<Expr>
    call(std::string n, std::vector<std::unique_ptr<Expr>> a);
};

/** Statement node kinds. */
enum class StmtKind : std::uint8_t
{
    Local,      ///< `int x = e;` — declares and initializes a local
    Assign,     ///< `x = e;` — local or global scalar
    Store,      ///< `a[i] = e;`
    If,         ///< with optional else block
    While,
    Return,     ///< `return e;`
    Out,        ///< `out(e);` appends e to the output trace
    ExprStmt,   ///< bare call for side effects: `f(...);`
};

struct Stmt
{
    StmtKind kind = StmtKind::ExprStmt;
    std::string name;                   ///< Local/Assign/Store target
    std::unique_ptr<Expr> index;        ///< Store
    std::unique_ptr<Expr> expr;         ///< value / condition / call
    std::vector<std::unique_ptr<Stmt>> body;      ///< If-then / While
    std::vector<std::unique_ptr<Stmt>> elseBody;  ///< If-else

    std::unique_ptr<Stmt> clone() const;
};

/** One `int g = k;` or `int a[N];` global. */
struct GlobalDecl
{
    std::string name;
    bool isArray = false;
    std::uint32_t size = 1;   ///< array element count (power of two)
    std::uint32_t init = 0;   ///< scalar initializer
};

struct Function
{
    std::string name;
    std::vector<std::string> params;
    std::vector<std::unique_ptr<Stmt>> body;

    Function clone() const;
};

/** A whole RL program.  Execution begins at `main` (no arguments). */
struct Program
{
    std::vector<GlobalDecl> globals;
    std::vector<Function> functions;

    Program clone() const;

    /** Index of @p name in functions, or -1. */
    int findFunction(const std::string &name) const;
    /** Index of @p name in globals, or -1. */
    int findGlobal(const std::string &name) const;
};

/** Compiler/backends hard limits (see docs/LANG.md). */
inline constexpr unsigned kMaxParams = 4;
inline constexpr unsigned kMaxLocals = 4;   ///< params + locals per function
inline constexpr std::uint32_t kMaxArraySize = 64;
inline constexpr std::uint32_t kOutCap = 64;  ///< stored out() entries

/** Deep-copy helpers for statement/expression lists. */
std::vector<std::unique_ptr<Stmt>>
cloneBody(const std::vector<std::unique_ptr<Stmt>> &body);

/** Total AST node count (statements + expressions), a size metric for
 *  the generator and minimizer. */
std::size_t programNodes(const Program &program);

} // namespace risc1::lang

#endif // RISC1_LANG_AST_HH
