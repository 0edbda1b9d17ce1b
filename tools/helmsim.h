/**
 * @file
 * helmsim's commands as a library call: main() wraps it, and tests run
 * commands in-process through it.
 */
#ifndef HELM_TOOLS_HELMSIM_H
#define HELM_TOOLS_HELMSIM_H

#include <ostream>
#include <string>
#include <vector>

namespace helm {

/**
 * Run one helmsim command: @p args is the command line after the
 * program name (`{"run", "--model", "OPT-1.3B"}`).  Everything the
 * command prints goes to @p out and @p err.  Returns the exit code:
 * 0 ok, 1 the run failed, 2 bad flags.  --no-step-cache lasts for this
 * call only.
 */
int run_helmsim(const std::vector<std::string> &args, std::ostream &out,
                std::ostream &err);

} // namespace helm

#endif // HELM_TOOLS_HELMSIM_H
