/**
 * The cat() contract: every call prints exactly what an ostringstream
 * prints for the same arguments, whether it takes the append path
 * (strings, C strings, chars, integers wider than 8 bits) or the
 * stream path (anything else in the call).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace risc1 {
namespace {

template <typename... Args>
std::string
streamed(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

enum Colour { Red, Green = 7 };

static_assert(detail::kCatPlain<std::int64_t>);
static_assert(detail::kCatPlain<short>);
static_assert(detail::kCatPlain<char>);
static_assert(detail::kCatPlain<const char *>);
static_assert(detail::kCatPlain<std::string_view>);
static_assert(!detail::kCatPlain<std::uint8_t>);
static_assert(!detail::kCatPlain<signed char>);
static_assert(!detail::kCatPlain<bool>);
static_assert(!detail::kCatPlain<double>);
static_assert(!detail::kCatPlain<Colour>);
static_assert(!detail::kCatPlain<const void *>);

/**
 * @p value printed alone and between strings, on the append path and
 * on the stream path (std::dec sends the call through the stream and
 * prints nothing).
 */
template <typename T>
void
expectBothPaths(const T &value)
{
    EXPECT_EQ(cat(value), streamed(value));
    EXPECT_EQ(cat("<", value, ">"), streamed("<", value, ">"));
    EXPECT_EQ(cat(std::dec, "<", value, ">"), streamed("<", value, ">"));
}

TEST(Cat, PlainArgumentsPrintAsTheStreamDoes)
{
    expectBothPaths(std::numeric_limits<std::int64_t>::min());
    expectBothPaths(std::numeric_limits<std::uint64_t>::max());
    expectBothPaths(0);
    expectBothPaths(-42);
    expectBothPaths(static_cast<short>(-32768));
    expectBothPaths(static_cast<unsigned short>(65535));
    expectBothPaths(std::numeric_limits<unsigned>::max());
    expectBothPaths(std::numeric_limits<long long>::min());
    expectBothPaths('x');
    expectBothPaths(std::string());
    expectBothPaths(std::string("line 3"));
    expectBothPaths(std::string_view("a\0b", 3));
    expectBothPaths(std::string("a\0b", 3));
    expectBothPaths("literal");

    char buffer[16] = "abc";  // prints up to its NUL, as a C string
    expectBothPaths(buffer);
    EXPECT_EQ(cat(buffer, 1), "abc1");

    EXPECT_EQ(cat("r", 17, ", r", 17, ", ", 63u), "r17, r17, 63");
    EXPECT_EQ(cat(), "");
}

TEST(Cat, OtherArgumentsPrintAsTheStreamDoes)
{
    expectBothPaths(static_cast<signed char>('A'));
    expectBothPaths(static_cast<unsigned char>('B'));
    expectBothPaths(true);
    expectBothPaths(false);
    expectBothPaths(2.5);
    expectBothPaths(0.1);
    expectBothPaths(Green);

    // An 8-bit integer prints as its character, as on a stream.
    EXPECT_EQ(cat("takes ", std::uint8_t{2}, " operand(s)"),
              "takes \x02 operand(s)");
    EXPECT_EQ(cat(true, ' ', 1.5), "1 1.5");
}

TEST(Cat, ManipulatorsApplyToTheWholeCall)
{
    EXPECT_EQ(cat("0x", std::hex, 255, " then ", 16, std::dec, " ", 16),
              streamed("0x", std::hex, 255, " then ", 16, std::dec, " ",
                       16));
    EXPECT_EQ(cat("pc=0x", std::hex, 0x1000u, " count ", -1),
              "pc=0x1000 count ffffffff");
}

} // namespace
} // namespace risc1
