// Minimal leveled logger writing to stderr.
//
// Simulations are run thousands of times inside benchmark sweeps, so the
// default level is Warn; examples raise it to Info/Debug to narrate what
// the swarm is doing. The VSPLICE_LOG_LEVEL environment variable
// (debug|info|warn|error|off) overrides the compiled-in default at first
// use, so benches and examples can raise verbosity without recompiling.
// Threading: the level filter is a relaxed atomic shared across all
// threads; each message is one stderr write.
#pragma once

#include <sstream>
#include <string>

namespace vsplice {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Process-wide minimum level; messages below it are discarded.
/// VSPLICE_LOG_LEVEL, when set, wins over values established before the
/// first log call; later set_log_level calls win over the environment.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Filters by level, then writes one line to stderr:
/// "[level] component: message".
void log_message(LogLevel level, const std::string& component,
                 const std::string& message);

[[nodiscard]] const char* to_string(LogLevel level);
/// Inverse of to_string; returns false on an unrecognized name.
bool parse_log_level(const std::string& name, LogLevel& out);

namespace detail {

class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_{level}, component_{std::move(component)} {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log_message(level_, component_, out_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream out_;
};

}  // namespace detail

#define VSPLICE_LOG(level, component)                      \
  if (::vsplice::log_level() <= (level))                   \
  ::vsplice::detail::LogLine { (level), (component) }

#define VSPLICE_DEBUG(component) \
  VSPLICE_LOG(::vsplice::LogLevel::Debug, component)
#define VSPLICE_INFO(component) \
  VSPLICE_LOG(::vsplice::LogLevel::Info, component)
#define VSPLICE_WARN(component) \
  VSPLICE_LOG(::vsplice::LogLevel::Warn, component)
#define VSPLICE_ERROR(component) \
  VSPLICE_LOG(::vsplice::LogLevel::Error, component)

}  // namespace vsplice
