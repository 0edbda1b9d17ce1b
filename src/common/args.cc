#include "common/args.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

namespace helm {

namespace {

Result<double>
parse_number(const std::string &text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end || !std::isfinite(value) ||
        std::signbit(value)) {
        return Status::invalid_argument(
            "expected a finite non-negative number, got '" + text + "'");
    }
    return value;
}

} // namespace

bool
iequals(std::string_view a, std::string_view b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](unsigned char x, unsigned char y) {
                          return std::tolower(x) == std::tolower(y);
                      });
}

Result<std::uint64_t>
parse_count(const std::string &text)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end) {
        return Status::invalid_argument(
            "expected a non-negative integer, got '" + text + "'");
    }
    return value;
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
ArgParser::declare(const std::string &name, Option option)
{
    HELM_ASSERT(options_.find(name) == options_.end(),
                "duplicate option declaration");
    option.value = option.default_value;
    options_.emplace(name, std::move(option));
    order_.push_back(name);
}

void
ArgParser::add_option(const std::string &name,
                      const std::string &description,
                      const std::string &default_value)
{
    declare(name, {description, "", default_value, Kind::kText});
}

void
ArgParser::add_count(const std::string &name,
                     const std::string &description,
                     const std::string &default_value)
{
    declare(name, {description, "", default_value, Kind::kCount});
}

void
ArgParser::add_number(const std::string &name,
                      const std::string &description,
                      const std::string &default_value)
{
    declare(name, {description, "", default_value, Kind::kNumber});
}

void
ArgParser::add_switch(const std::string &name,
                      const std::string &description)
{
    declare(name, {description, "", "", Kind::kSwitch});
}

Status
ArgParser::parse(const std::vector<std::string> &args)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) != 0)
            return Status::invalid_argument("unexpected argument '" + arg +
                                            "'");
        std::string name = arg.substr(2);
        std::string inline_value;
        bool has_inline = false;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
            inline_value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_inline = true;
        }
        auto it = options_.find(name);
        if (it == options_.end())
            return Status::invalid_argument("unknown flag --" + name);
        Option &opt = it->second;
        opt.set = true;
        if (opt.kind == Kind::kSwitch) {
            if (has_inline) {
                return Status::invalid_argument(
                    "switch --" + name + " takes no value");
            }
            opt.value = "true";
            continue;
        }
        if (has_inline) {
            opt.value = inline_value;
        } else {
            if (i + 1 >= args.size()) {
                return Status::invalid_argument("flag --" + name +
                                                " needs a value");
            }
            opt.value = args[++i];
        }
        Status checked;
        if (opt.kind == Kind::kCount)
            checked = parse_count(opt.value).status();
        else if (opt.kind == Kind::kNumber)
            checked = parse_number(opt.value).status();
        if (!checked.is_ok()) {
            return Status::invalid_argument("--" + name + ": " +
                                            checked.message());
        }
    }
    return Status::ok();
}

const ArgParser::Option &
ArgParser::find(const std::string &name) const
{
    auto it = options_.find(name);
    HELM_ASSERT(it != options_.end(), "undeclared option queried");
    return it->second;
}

std::string
ArgParser::get(const std::string &name) const
{
    return find(name).value;
}

bool
ArgParser::is_set(const std::string &name) const
{
    return find(name).set;
}

std::uint64_t
ArgParser::get_u64(const std::string &name) const
{
    const Option &opt = find(name);
    HELM_ASSERT(opt.kind == Kind::kCount, "get_u64 on a non-count option");
    return *parse_count(opt.value);
}

double
ArgParser::get_double(const std::string &name) const
{
    const Option &opt = find(name);
    HELM_ASSERT(opt.kind == Kind::kNumber,
                "get_double on a non-number option");
    return *parse_number(opt.value);
}

std::string
ArgParser::help() const
{
    std::ostringstream out;
    out << program_ << " — " << description_ << "\n\noptions:\n";
    for (const std::string &name : order_) {
        const Option &opt = options_.at(name);
        out << "  --" << name;
        if (opt.kind != Kind::kSwitch) {
            out << (opt.kind == Kind::kCount    ? " <int>"
                    : opt.kind == Kind::kNumber ? " <number>"
                                                : " <value>");
            if (!opt.default_value.empty())
                out << " (default: " << opt.default_value << ")";
        }
        out << "\n      " << opt.description << "\n";
    }
    return out.str();
}

} // namespace helm
