/**
 * @file
 * Unit tests for the command-line argument parser.
 */
#include <gtest/gtest.h>

#include "common/args.h"

namespace helm {
namespace {

ArgParser
make_parser()
{
    ArgParser parser("tool", "test tool");
    parser.add_option("model", "model name", "OPT-175B");
    parser.add_count("batch", "batch size", "1");
    parser.add_number("rate", "a double", "2.5");
    parser.add_switch("int4", "compression");
    return parser;
}

TEST(Args, DefaultsApply)
{
    ArgParser parser = make_parser();
    ASSERT_TRUE(parser.parse({}).is_ok());
    EXPECT_EQ(parser.get("model"), "OPT-175B");
    EXPECT_EQ(parser.get_u64("batch"), 1u);
    EXPECT_DOUBLE_EQ(parser.get_double("rate"), 2.5);
    EXPECT_FALSE(parser.is_set("int4"));
    EXPECT_FALSE(parser.is_set("model"));
}

TEST(Args, SpaceSeparatedValues)
{
    ArgParser parser = make_parser();
    ASSERT_TRUE(
        parser.parse({"--model", "OPT-30B", "--batch", "8"}).is_ok());
    EXPECT_EQ(parser.get("model"), "OPT-30B");
    EXPECT_EQ(parser.get_u64("batch"), 8u);
    EXPECT_TRUE(parser.is_set("model"));
}

TEST(Args, EqualsSeparatedValues)
{
    ArgParser parser = make_parser();
    ASSERT_TRUE(parser.parse({"--model=OPT-66B", "--rate=7.25"}).is_ok());
    EXPECT_EQ(parser.get("model"), "OPT-66B");
    EXPECT_DOUBLE_EQ(parser.get_double("rate"), 7.25);
}

TEST(Args, Switches)
{
    ArgParser parser = make_parser();
    ASSERT_TRUE(parser.parse({"--int4"}).is_ok());
    EXPECT_TRUE(parser.is_set("int4"));
    EXPECT_EQ(parser.get("int4"), "true");
}

TEST(Args, SwitchWithValueRejected)
{
    ArgParser parser = make_parser();
    EXPECT_FALSE(parser.parse({"--int4=yes"}).is_ok());
}

TEST(Args, UnknownFlagRejected)
{
    ArgParser parser = make_parser();
    const Status status = parser.parse({"--bogus", "1"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("bogus"), std::string::npos);
}

TEST(Args, MissingValueRejected)
{
    ArgParser parser = make_parser();
    EXPECT_FALSE(parser.parse({"--model"}).is_ok());
}

TEST(Args, BareWordsRejected)
{
    ArgParser parser = make_parser();
    const Status status = parser.parse({"--batch", "2", "second"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "unexpected argument 'second'");
    // A switch takes no value, so a word after it is stray too.
    EXPECT_FALSE(make_parser().parse({"--int4", "1"}).is_ok());
}

TEST(Args, BadNumbersRejected)
{
    for (const char *value : {"-1", "abc", "8x", "1e999", "", " 4", "+4",
                              "18446744073709551616"}) {
        const Status status = make_parser().parse({"--batch", value});
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << value;
        EXPECT_EQ(status.message().rfind("--batch: ", 0), 0u) << value;
    }
    for (const char *value :
         {"-1", "-0", "abc", "2.5x", "1e999", "inf", "nan"}) {
        EXPECT_FALSE(make_parser().parse({"--rate", value}).is_ok())
            << value;
    }
    ArgParser parser = make_parser();
    ASSERT_TRUE(parser
                    .parse({"--batch", "18446744073709551615", "--rate",
                            "1e-3"})
                    .is_ok());
    EXPECT_EQ(parser.get_u64("batch"), 18446744073709551615u);
    EXPECT_DOUBLE_EQ(parser.get_double("rate"), 1e-3);
}

TEST(Args, NamesMatchInAnyCase)
{
    EXPECT_TRUE(iequals("HeLM", "helm"));
    EXPECT_TRUE(iequals("", ""));
    EXPECT_FALSE(iequals("helm", "helms"));
    EXPECT_FALSE(iequals("All-CPU", "all_cpu"));
}

TEST(Args, HelpMentionsEveryOption)
{
    ArgParser parser = make_parser();
    const std::string help = parser.help();
    EXPECT_NE(help.find("--model"), std::string::npos);
    EXPECT_NE(help.find("--int4"), std::string::npos);
    EXPECT_NE(help.find("--batch <int>"), std::string::npos);
    EXPECT_NE(help.find("--rate <number>"), std::string::npos);
    EXPECT_NE(help.find("default: OPT-175B"), std::string::npos);
    EXPECT_NE(help.find("test tool"), std::string::npos);
}

TEST(Args, LastValueWins)
{
    ArgParser parser = make_parser();
    ASSERT_TRUE(parser.parse({"--batch", "2", "--batch", "9"}).is_ok());
    EXPECT_EQ(parser.get_u64("batch"), 9u);
}

} // namespace
} // namespace helm
