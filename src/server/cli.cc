#include "server/cli.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace kb {
namespace server {

namespace {

int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

bool FlagValue(const char* arg, const char* name, long* out) {
  size_t len = ::strlen(name);
  if (::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = ::strtol(arg + len + 1, nullptr, 10);
  return true;
}

bool FlagString(const char* arg, const char* name, std::string* out) {
  size_t len = ::strlen(name);
  if (::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

bool TrapStopSignals() {
  if (::pipe(g_signal_pipe) != 0) return false;
  struct sigaction action{};
  action.sa_handler = OnSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  return true;
}

void WaitForStopSignal() {
  char byte;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
}

void RaiseStopSignal() { OnSignal(0); }

}  // namespace server
}  // namespace kb
