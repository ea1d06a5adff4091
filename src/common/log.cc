#include "common/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace vsplice {

namespace {
// The level is shared across threads (relaxed atomic: a racing
// set_log_level only decides which messages the other threads drop).
std::atomic<LogLevel> g_level{LogLevel::Warn};

// VSPLICE_LOG_LEVEL is applied once, lazily, so it overrides whatever a
// binary compiled in before its first log call; explicit set_log_level
// calls made afterwards still win (a deliberate runtime decision beats
// the environment).
void apply_env_level_once() {
  static const bool applied = [] {
    if (const char* env = std::getenv("VSPLICE_LOG_LEVEL")) {
      LogLevel parsed;
      if (parse_log_level(env, parsed)) {
        g_level.store(parsed, std::memory_order_relaxed);
      } else {
        std::fprintf(stderr,
                     "[warn] log: unrecognized VSPLICE_LOG_LEVEL '%s' "
                     "(want debug|info|warn|error|off)\n",
                     env);
      }
    }
    return true;
  }();
  (void)applied;
}
}  // namespace

void set_log_level(LogLevel level) {
  apply_env_level_once();
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() {
  apply_env_level_once();
  return g_level.load(std::memory_order_relaxed);
}

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Debug:
      return "debug";
    case LogLevel::Info:
      return "info";
    case LogLevel::Warn:
      return "warn";
    case LogLevel::Error:
      return "error";
    case LogLevel::Off:
      return "off";
  }
  return "?";
}

bool parse_log_level(const std::string& name, LogLevel& out) {
  for (LogLevel level : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                         LogLevel::Error, LogLevel::Off}) {
    if (name == to_string(level)) {
      out = level;
      return true;
    }
  }
  return false;
}

void log_message(LogLevel level, const std::string& component,
                 const std::string& message) {
  if (level < log_level()) return;
  std::fprintf(stderr, "[%s] %s: %s\n", to_string(level), component.c_str(),
               message.c_str());
}

}  // namespace vsplice
