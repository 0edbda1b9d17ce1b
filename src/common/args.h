/**
 * @file
 * Minimal command-line argument parser for the tools and examples.
 *
 * Supports `--name value`, `--name=value`, boolean switches, numeric
 * options checked at parse time, and generated help — enough for
 * helmsim's subcommands without an external dependency.
 */
#ifndef HELM_COMMON_ARGS_H
#define HELM_COMMON_ARGS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace helm {

/** ASCII case-insensitive equality, for names users type. */
bool iequals(std::string_view a, std::string_view b);

/** @p text as a non-negative decimal integer: no sign, no junk, no
 *  overflow. */
Result<std::uint64_t> parse_count(const std::string &text);

/**
 * Declarative flag set + parser.  Declare options, parse the
 * arguments, read typed values.  Every argument is a flag: a bare
 * word, an unknown flag, a missing value, or a malformed numeric value
 * fails parse() with a one-line diagnostic.
 */
class ArgParser
{
  public:
    /**
     * @param program Name shown in help.
     * @param description One-line summary shown in help.
     */
    ArgParser(std::string program, std::string description);

    /** Declare a text option (`--name <value>` / `--name=<value>`). */
    void add_option(const std::string &name,
                    const std::string &description,
                    const std::string &default_value = "");

    /** Declare a non-negative integer option, read with get_u64(). */
    void add_count(const std::string &name,
                   const std::string &description,
                   const std::string &default_value);

    /** Declare a non-negative finite real option, read with
     *  get_double(). */
    void add_number(const std::string &name,
                    const std::string &description,
                    const std::string &default_value);

    /** Declare a boolean switch (`--name`, no value). */
    void add_switch(const std::string &name,
                    const std::string &description);

    /**
     * Parse the arguments after the program/subcommand name.  On
     * failure the parser state is unspecified; report the error.
     */
    Status parse(const std::vector<std::string> &args);

    /** Value of an option (its default if never set). */
    std::string get(const std::string &name) const;

    /** True when a switch was given (or an option explicitly set). */
    bool is_set(const std::string &name) const;

    /** Value of a count / number option (parse() checked its text). */
    std::uint64_t get_u64(const std::string &name) const;
    double get_double(const std::string &name) const;

    /** Rendered usage text. */
    std::string help() const;

  private:
    enum class Kind
    {
        kText,
        kSwitch,
        kCount,
        kNumber,
    };

    struct Option
    {
        std::string description;
        std::string value;
        std::string default_value;
        Kind kind = Kind::kText;
        bool set = false;
    };

    void declare(const std::string &name, Option option);
    const Option &find(const std::string &name) const;

    std::string program_;
    std::string description_;
    std::map<std::string, Option> options_;
    std::vector<std::string> order_; //!< declaration order for help
};

} // namespace helm

#endif // HELM_COMMON_ARGS_H
