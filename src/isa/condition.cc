#include "isa/condition.hh"

#include <array>

#include "common/logging.hh"
#include "common/name_table.hh"

namespace risc1 {

bool
condHolds(Cond cond, const CondCodes &cc)
{
    switch (cond) {
      case Cond::Never: return false;
      case Cond::Alw:   return true;
      case Cond::Eq:    return cc.z;
      case Cond::Ne:    return !cc.z;
      case Cond::Lt:    return cc.n != cc.v;
      case Cond::Ge:    return cc.n == cc.v;
      case Cond::Le:    return cc.z || (cc.n != cc.v);
      case Cond::Gt:    return !cc.z && (cc.n == cc.v);
      case Cond::Ltu:   return cc.c;
      case Cond::Geu:   return !cc.c;
      case Cond::Leu:   return cc.c || cc.z;
      case Cond::Gtu:   return !cc.c && !cc.z;
      case Cond::Mi:    return cc.n;
      case Cond::Pl:    return !cc.n;
      case Cond::Vs:    return cc.v;
      case Cond::Vc:    return !cc.v;
    }
    panic(cat("bad condition encoding ", static_cast<int>(cond)));
}

namespace {

constexpr std::array<std::string_view, 16> condNames = {
    "nev", "alw", "eq", "ne", "lt", "ge", "le", "gt",
    "ltu", "geu", "leu", "gtu", "mi", "pl", "vs", "vc",
};

} // namespace

std::string_view
condName(Cond cond)
{
    const auto idx = static_cast<std::size_t>(cond);
    if (idx >= condNames.size())
        panic(cat("bad condition encoding ", idx));
    return condNames[idx];
}

std::optional<Cond>
condFromName(std::string_view name)
{
    static const auto byName = [] {
        NameTable<Cond> t;
        for (std::size_t i = 0; i < condNames.size(); ++i)
            t.add(condNames[i], static_cast<Cond>(i));
        return t;
    }();
    if (const Cond *cond = byName.find(name))
        return *cond;
    return std::nullopt;
}

} // namespace risc1
