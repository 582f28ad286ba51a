/**
 * @file
 * A fixed set of names, each mapped to a small value, looked up by
 * hash.  The assembler's mnemonic, condition and register-name tables
 * are NameTables, each built once (a function-local static) from the
 * table that also feeds the decoder or the disassembler, so there is
 * no second list to keep in sync.
 */

#ifndef RISC1_COMMON_NAME_TABLE_HH
#define RISC1_COMMON_NAME_TABLE_HH

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/logging.hh"

namespace risc1 {

/** ASCII lower case of @p c; every other byte unchanged. */
constexpr char
asciiLower(char c)
{
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/** Names mapped to values; looked up by `std::string_view`. */
template <typename T>
class NameTable
{
  public:
    /** Map @p name to @p value; a second add of a name is a panic. */
    void
    add(std::string_view name, T value)
    {
        if (!map_.emplace(name, value).second)
            panic(cat("name '", name, "' added twice"));
    }

    /** The value @p name maps to (names match exactly), or nullptr. */
    const T *
    find(std::string_view name) const
    {
        const auto it = map_.find(name);
        return it == map_.end() ? nullptr : &it->second;
    }

  private:
    struct Hash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::unordered_map<std::string, T, Hash, std::equal_to<>> map_;
};

} // namespace risc1

#endif // RISC1_COMMON_NAME_TABLE_HH
