// Runtime invariant auditing.
//
// Two layers, complementing the always-on DAS_CHECK preconditions in
// check.hpp:
//
//   DAS_DCHECK / DAS_DCHECK_MSG — inline hot-path assertions. Compiled out
//       entirely in Release builds (NDEBUG), active in Debug builds and in
//       every sanitizer build (the build system defines DAS_AUDIT_ENABLED=1
//       whenever DAS_SANITIZE is set). Use them where the check would cost
//       real time on the event-dispatch path.
//
//   DAS_AUDIT + Auditable — deep structural audits. An Auditable object can
//       verify its entire internal state (conservation counts, ordered-set /
//       map consistency, nonnegative remaining work) on demand;
//       check_invariants() throws AuditError on the first violation. Audits
//       run only when explicitly invoked — by tests, or by the simulator's
//       audit cadence (Simulator::set_audit_cadence) — so they stay active in
//       every build type and cost nothing between invocations.
//
// Violations throw (never abort): tests assert on them, and a corrupted
// simulation must fail loudly rather than report plausible-but-wrong numbers.
#pragma once

#include <stdexcept>
#include <string>

namespace das {

/// Thrown by check_invariants() / DAS_AUDIT on a violated invariant.
/// Derives from std::logic_error so existing DAS_CHECK handlers catch it too.
class AuditError : public std::logic_error {
 public:
  explicit AuditError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] void audit_failed(const char* expr, const char* file, int line,
                               const std::string& msg);

}  // namespace detail

/// Implemented by every component with auditable internal state: schedulers,
/// Server, and the Simulator itself. check_invariants() is const,
/// has no side effects, and throws AuditError on the first violation.
class Auditable {
 public:
  virtual ~Auditable() = default;
  virtual void check_invariants() const = 0;
};

}  // namespace das

/// Structural audit assertion: always active (audits only run when invoked).
#define DAS_AUDIT(expr, msg)                                              \
  do {                                                                    \
    if (!(expr)) ::das::detail::audit_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

// DAS_AUDIT_ENABLED: 1 in Debug and sanitizer builds, 0 otherwise. The build
// system may force it (sanitizer presets define it regardless of build type).
#ifndef DAS_AUDIT_ENABLED
#ifdef NDEBUG
#define DAS_AUDIT_ENABLED 0
#else
#define DAS_AUDIT_ENABLED 1
#endif
#endif

#if DAS_AUDIT_ENABLED
#define DAS_DCHECK(expr) DAS_AUDIT(expr, "")
#define DAS_DCHECK_MSG(expr, msg) DAS_AUDIT(expr, msg)
#else
// Compiled out: the expression is parsed (stays warning-clean and cannot rot)
// but never evaluated, so side effects do not run in Release.
#define DAS_DCHECK(expr)              \
  do {                                \
    if (false) {                      \
      static_cast<void>(expr);        \
    }                                 \
  } while (false)
#define DAS_DCHECK_MSG(expr, msg)     \
  do {                                \
    if (false) {                      \
      static_cast<void>(expr);        \
      static_cast<void>(msg);         \
    }                                 \
  } while (false)
#endif
