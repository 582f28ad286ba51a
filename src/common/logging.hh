/**
 * @file
 * gem5-style status/error reporting helpers.
 *
 * fatal():   the run cannot continue because of a user-level error (bad
 *            program, bad configuration).  Throws FatalError so library
 *            users and tests can recover.
 * panic():   an internal invariant was violated (a simulator bug).
 *            Throws PanicError.
 * warn()/inform(): non-fatal status messages on stderr.
 */

#ifndef RISC1_COMMON_LOGGING_HH
#define RISC1_COMMON_LOGGING_HH

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace risc1 {

/** Error raised for user-level problems (bad input, bad config). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Error raised for internal invariant violations (simulator bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Abort the current operation due to a user-level error. */
[[noreturn]] void fatal(const std::string &msg);

/** Abort due to an internal simulator bug. */
[[noreturn]] void panic(const std::string &msg);

/** Print a warning to stderr (never stops the run). */
void warn(const std::string &msg);

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** Enable/disable warn()/inform() output (tests silence it). */
void setVerbose(bool verbose);

namespace detail {

/**
 * An integer cat() appends as decimal digits.  bool, the character
 * types and 8-bit integers are not here: a stream prints
 * `std::uint8_t` as a character, so they keep the stream path.
 */
template <typename T>
inline constexpr bool kCatDecimal =
    std::is_same_v<T, short> || std::is_same_v<T, unsigned short> ||
    std::is_same_v<T, int> || std::is_same_v<T, unsigned> ||
    std::is_same_v<T, long> || std::is_same_v<T, unsigned long> ||
    std::is_same_v<T, long long> || std::is_same_v<T, unsigned long long>;

/** An argument cat() appends without a stream, byte-identically. */
template <typename T>
inline constexpr bool kCatPlain =
    kCatDecimal<T> || std::is_same_v<T, char> ||
    std::is_same_v<T, const char *> || std::is_same_v<T, char *> ||
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view>;

template <typename T>
void
catAppend(std::string &out, const T &arg)
{
    if constexpr (kCatDecimal<T>) {
        char digits[24];
        out.append(digits,
                   std::to_chars(digits, digits + sizeof digits, arg).ptr);
    } else if constexpr (std::is_same_v<T, char>) {
        out.push_back(arg);
    } else {
        out.append(std::string_view(arg));
    }
}

} // namespace detail

/**
 * printf-free formatting helper: cat("x=", x, " y=", y) is the text
 * `std::ostringstream() << "x=" << x << " y=" << y` holds.  A call
 * whose arguments are all strings, string views, C strings, chars or
 * integers wider than 8 bits appends into one string; any other
 * argument (a manipulator such as std::hex, floating point, bool, an
 * 8-bit integer, an enum, a pointer, a type with its own operator<<)
 * sends the whole call through one ostringstream.
 */
template <typename... Args>
std::string
cat(Args &&...args)
{
    if constexpr ((detail::kCatPlain<std::decay_t<Args>> && ...)) {
        std::string out;
        (detail::catAppend<std::decay_t<Args>>(out, args), ...);
        return out;
    } else {
        std::ostringstream os;
        (os << ... << args);
        return os.str();
    }
}

} // namespace risc1

#endif // RISC1_COMMON_LOGGING_HH
