// Wire sizes of the client/server protocol.
//
// The simulator ships no bytes between entities — everything is in-process —
// but every message is charged to the network at the size a fixed-layout
// little-endian encoding would give it: the fields below, in order, plus a
// 4-byte Fletcher-32 trailer. The cluster's net_bytes and the overhead study
// (E12) both read these sizes.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "core/server.hpp"
#include "sched/op_context.hpp"

namespace das::core::wire {

// Field widths in bytes. Doubles travel as their 8-byte IEEE-754 pattern.
//
//   op request (98)             response (67)          progress (33)
//   kind                 1      kind            1      kind                  1
//   op_id                8      op_id           8      request_id            8
//   request_id           8      request_id      8      remaining_critical    8
//   client               4      client          4      est_other_completion  8
//   key                  8      server          4      remaining_total       8
//   demand               8      key             8
//   request_arrival      8      hit             1
//   remaining_critical   8      is_write        1
//   est_other_completion 8      value_size      8
//   bottleneck_ops       4      completed_at    8
//   bottleneck_demand    8      d_hat           8
//   total_demand         8      mu_hat          8
//   deadline             8
//   is_write             1
//   write_size           8
//
// Overload-control extensions ride as optional trailing fields, present only
// when the feature is active for the message, so a run with overload control
// off pays nothing for it: an op with a finite expiry adds the 8-byte expiry,
// and a response with a non-OK status adds the 1-byte status (and never
// carries a payload).
inline constexpr std::size_t kOpFixed =
    1 + 8 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 1 + 8;
inline constexpr std::size_t kResponseFixed =
    1 + 8 + 8 + 4 + 4 + 8 + 1 + 1 + 8 + 8 + 8 + 8;
inline constexpr std::size_t kProgressFixed = 1 + 8 + 8 + 8 + 8;
inline constexpr std::size_t kTrailer = 4;
inline constexpr std::size_t kOpExpiryExt = 8;
inline constexpr std::size_t kResponseStatusExt = 1;

inline std::size_t op_wire_size(const sched::OpContext& op) {
  return kOpFixed + kTrailer + (op.expiry != kTimeInfinity ? kOpExpiryExt : 0);
}

/// Header plus the value payload for read hits (writes ack without data);
/// shed responses carry a status byte and never a payload.
inline std::size_t response_wire_size(const OpResponse& resp) {
  if (resp.status != OpStatus::kOk)
    return kResponseFixed + kTrailer + kResponseStatusExt;
  return kResponseFixed + kTrailer +
         (resp.hit && !resp.is_write ? resp.value_size : 0);
}

inline constexpr std::size_t progress_wire_size() {
  return kProgressFixed + kTrailer;
}

}  // namespace das::core::wire
