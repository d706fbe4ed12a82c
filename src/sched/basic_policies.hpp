// Baseline policies: FCFS, Random, SJF, EDF.
//
// These need no request-level feedback; their priority is frozen at enqueue.
// They exist both as the paper's comparison points (FCFS is the stores'
// default) and as controls in the test suite.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sched/scheduler_base.hpp"

namespace das::sched {

/// First-come first-served: the default behaviour of memcached/Redis-style
/// stores and the paper's primary baseline.
class FcfsScheduler final : public SchedulerBase {
 public:
  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  std::vector<OpContext> drain(SimTime now) override;
  std::string name() const override { return "fcfs"; }

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;
  std::deque<OpContext> queue_;
};

/// Uniformly random order; a sanity floor — any informed policy must beat it.
class RandomScheduler final : public SchedulerBase {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}
  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  /// Drains in arrival order: a crash drop must not consume randomness.
  std::vector<OpContext> drain(SimTime now) override;
  std::string name() const override { return "random"; }

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;
  std::vector<OpContext> queue_;
  Rng rng_;
};

/// Serves the smallest value of one OpContext field, read once at enqueue
/// and never updated; ties go to the earlier arrival. Two policies are this
/// class with a different field:
///   sjf — `demand_us`: shortest (local) job first, the op's own demand
///         only, ignoring the request structure. Separates "size awareness"
///         from "fork-join awareness" in the evaluation.
///   edf — `deadline`: earliest deadline first on the request deadline tag.
class FrozenKeyScheduler final : public SchedulerBase {
 public:
  FrozenKeyScheduler(double OpContext::*key, std::string name);

  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  /// Drains in serve order.
  std::vector<OpContext> drain(SimTime now) override;
  std::string name() const override { return name_; }

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;

  struct Entry {
    double key;
    std::uint64_t arrival;  // tie-break, unique per entry
    OpContext op;
  };
  /// Heap comparator: true iff `a` is served after `b`.
  static bool later(const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key > b.key : a.arrival > b.arrival;
  }

  double OpContext::*key_;
  std::string name_;
  std::vector<Entry> heap_;  // binary heap, served-first entry at the front
  std::uint64_t next_arrival_ = 0;
};

}  // namespace das::sched
