// Protocol wire sizes: what the network charges for each message.
#include "core/wire.hpp"

#include <gtest/gtest.h>

namespace das::core::wire {
namespace {

// The sizes every net_bytes figure and E12 rest on, as literals: a change to
// the field table shows up here before it moves a golden row.
TEST(Wire, MessageSizesArePinned) {
  const sched::OpContext op;
  EXPECT_EQ(op_wire_size(op), 102u);

  OpResponse resp;
  resp.hit = true;
  resp.value_size = 1000;
  EXPECT_EQ(response_wire_size(resp), 71u + 1000u);  // read hit: payload
  resp.is_write = true;
  EXPECT_EQ(response_wire_size(resp), 71u);  // write ack: no payload
  resp.is_write = false;
  resp.hit = false;
  EXPECT_EQ(response_wire_size(resp), 71u);  // read miss: no payload
}

// The overload-control extensions are pinned in the tests below because no
// golden scenario turns on deadlines or bounded queues.

// An op without a deadline pays nothing for the expiry extension; a finite
// expiry adds exactly its 8 bytes.
TEST(Wire, OpExpiryExtensionIsLengthDerived) {
  sched::OpContext op;
  op.expiry = kTimeInfinity;
  const std::size_t legacy = op_wire_size(op);
  EXPECT_EQ(legacy, 102u);
  op.expiry = 12345.5;
  EXPECT_EQ(op_wire_size(op), legacy + 8);
  EXPECT_EQ(op_wire_size(op), 110u);
  op.expiry = 0.0;  // a zero expiry is still finite, so still extended
  EXPECT_EQ(op_wire_size(op), 110u);
}

// BUSY and EXPIRED responses carry the 1-byte status past the kOk header
// and never a payload, whatever the hit/value_size fields say.
TEST(Wire, ShedResponseRoundTrip) {
  for (const OpStatus status : {OpStatus::kBusy, OpStatus::kExpired}) {
    OpResponse resp;
    resp.hit = true;
    resp.value_size = 1000;
    resp.status = status;
    EXPECT_EQ(response_wire_size(resp), 72u);
    OpResponse ok = resp;
    ok.status = OpStatus::kOk;
    ok.hit = false;
    ok.value_size = 0;
    EXPECT_EQ(response_wire_size(resp), response_wire_size(ok) + 1);
  }
}

// A kOk response has no status byte: its size is the header plus any payload,
// for reads, writes, hits and misses alike.
TEST(Wire, OkResponseCarriesNoStatusByte) {
  for (const bool is_write : {false, true}) {
    for (const bool hit : {false, true}) {
      OpResponse resp;
      resp.status = OpStatus::kOk;
      resp.is_write = is_write;
      resp.hit = hit;
      resp.value_size = 500;
      const std::size_t payload = hit && !is_write ? 500u : 0u;
      EXPECT_EQ(response_wire_size(resp), 71u + payload);
    }
  }
}

TEST(Wire, ProgressRoundTrip) {
  EXPECT_EQ(progress_wire_size(), 37u);
  static_assert(progress_wire_size() == 37u);
}

TEST(Wire, ReadResponseChargesPayloadWriteAckDoesNot) {
  OpResponse resp;
  resp.hit = true;
  resp.is_write = false;
  resp.value_size = 1000;
  const std::size_t read_size = response_wire_size(resp);
  resp.is_write = true;
  const std::size_t write_size = response_wire_size(resp);
  EXPECT_EQ(read_size, write_size + 1000);
}

}  // namespace
}  // namespace das::core::wire
