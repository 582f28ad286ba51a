/**
 * @file
 * The ISA-neutral half of the two RL lowerings (compile.hh): the
 * output buffer and its line format, labels, the name-to-register map,
 * array sizes, statement lists and the `gvars` data block (layout.hh).
 * RiscGen (compile_risc.cc) and VaxGen (compile_vax.cc) derive from
 * Lowering and keep only their register plan, start stub, prologue
 * and statement/expression lowering.
 */

#ifndef RISC1_LANG_LOWERING_HH
#define RISC1_LANG_LOWERING_HH

#include <sstream>
#include <unordered_map>

#include "common/logging.hh"
#include "lang/compile.hh"

namespace risc1::lang {

class Lowering
{
  public:
    /** Lower the whole program: start stub, functions, data block. */
    CompiledProgram
    run()
    {
        emitStart();
        for (const auto &f : prog_.functions)
            emitFunction(f);
        emitData();
        return {os_.str(), layout_};
    }

  protected:
    /** @p who prefixes every fatal text ("lang riscgen"). */
    Lowering(const Program &program, const char *who)
        : prog_(program), layout_(layoutProgram(program)), who_(who)
    {
    }

    virtual void emitStart() = 0;
    virtual void emitFunction(const Function &f) = 0;
    virtual void emitStmt(const Stmt &s) = 0;

    /** One line: label, text from column 8, then a comment. */
    void
    emit(const std::string &label, const std::string &text,
         const std::string &comment = "")
    {
        os_ << label;
        if (!text.empty()) {
            if (label.size() < 8)
                os_ << std::string(8 - label.size(), ' ');
            os_ << text;
        }
        if (!comment.empty())
            os_ << "\t; " << comment;
        os_ << "\n";
    }

    /** A label on its own line (attaches to the next statement). */
    void
    emitLabel(const std::string &label, const std::string &comment = "")
    {
        emit(label + ":", "", comment);
    }

    std::string
    newLabel()
    {
        return cat("Lx", labelN_++);
    }

    /**
     * Emit @p f's entry label and map its parameters to registers
     * @p paramBase.. and its named locals to @p localBase..
     * @return one past the last local's register.
     */
    int
    enterFunction(const Function &f, int paramBase, int localBase)
    {
        regOf_.clear();
        for (std::size_t i = 0; i < f.params.size(); ++i)
            regOf_[f.params[i]] = paramBase + static_cast<int>(i);
        int next = localBase;
        for (const auto &s : f.body)
            if (s->kind == StmtKind::Local)
                regOf_[s->name] = next++;
        emitLabel(cat("f_", f.name),
                  cat(f.params.size(), " param(s), ", next - localBase,
                      " local(s)"));
        return next;
    }

    /** Register of a named param/local, or -1 for a global. */
    int
    regOf(const std::string &name) const
    {
        const auto it = regOf_.find(name);
        return it == regOf_.end() ? -1 : it->second;
    }

    std::uint32_t
    arraySize(const std::string &name) const
    {
        const int g = prog_.findGlobal(name);
        if (g < 0 || !prog_.globals[static_cast<std::size_t>(g)].isArray)
            fatal(cat(who_, ": '", name, "' is not an array"));
        return prog_.globals[static_cast<std::size_t>(g)].size;
    }

    void
    checkCallee(const std::string &name) const
    {
        if (prog_.findFunction(name) < 0)
            fatal(cat(who_, ": call to undefined '", name, "'"));
    }

    void
    emitBody(const std::vector<std::unique_ptr<Stmt>> &body)
    {
        for (const auto &s : body)
            emitStmt(*s);
    }

    const Program &prog_;
    DataLayout layout_;
    std::ostringstream os_;

  private:
    void
    emitData()
    {
        emit("", ".align 4");
        bool first = true;
        for (const auto &entry : layout_.entries) {
            const std::string label = first ? cat(kDataLabel, ":") : "";
            first = false;
            if (entry.isArray) {
                emit(label, cat(".space ", 4 * entry.words),
                     cat(entry.name, "[", entry.words, "]"));
            } else {
                const int g = prog_.findGlobal(entry.name);
                const std::uint32_t init =
                    prog_.globals[static_cast<std::size_t>(g)].init;
                emit(label, cat(".word ",
                                static_cast<std::int32_t>(init)),
                     entry.name);
            }
        }
        emit(first ? cat(kDataLabel, ":") : "", ".word 0",
             "out() count");
        emit("", cat(".space ", 4 * kOutCap), "out() buffer");
    }

    const char *who_;
    int labelN_ = 0;
    std::unordered_map<std::string, int> regOf_;
};

} // namespace risc1::lang

#endif // RISC1_LANG_LOWERING_HH
