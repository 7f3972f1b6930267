#ifndef KBFORGE_SERVER_CLI_H_
#define KBFORGE_SERVER_CLI_H_

#include <string>

namespace kb {
namespace server {

/// Command-line and signal plumbing shared by the kbforge_serve,
/// kbforge_follower and kbforge_router binaries.

/// Parses `arg` as `<name>=<integer>` into `*out`; false (and `*out`
/// untouched) when `arg` is some other flag.
bool FlagValue(const char* arg, const char* name, long* out);

/// Parses `arg` as `<name>=<string>` into `*out`.
bool FlagString(const char* arg, const char* name, std::string* out);

/// Routes SIGINT and SIGTERM into a self-pipe, so from this call on a
/// stop signal is a byte for WaitForStopSignal to read, never a kill by
/// the default action. Call before starting anything that must be shut
/// down cleanly. False if the pipe cannot be created.
bool TrapStopSignals();

/// Blocks until a trapped signal (or RaiseStopSignal) arrives; each
/// signal wakes exactly one waiter.
void WaitForStopSignal();

/// Wakes one WaitForStopSignal as a signal would.
void RaiseStopSignal();

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_CLI_H_
