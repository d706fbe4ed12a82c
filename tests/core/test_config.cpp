#include "core/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace das::core {
namespace {

/// Runs validate() and returns the rejection message ("" = accepted).
std::string validation_error(const ClusterConfig& cfg) {
  try {
    cfg.validate();
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(Config, MeanOpDemandCombinesOverheadAndTransfer) {
  ClusterConfig cfg;
  cfg.per_op_overhead_us = 10.0;
  cfg.service_bytes_per_us = 100.0;
  cfg.value_size_bytes = make_constant(500.0);
  EXPECT_DOUBLE_EQ(cfg.mean_op_demand_us(), 15.0);
}

TEST(Config, NominalCapacityIsServerCountWhenHomogeneous) {
  ClusterConfig cfg;
  cfg.num_servers = 48;
  EXPECT_DOUBLE_EQ(cfg.nominal_capacity(1e6), 48.0);
}

TEST(Config, CapacityHonoursSpeedFactors) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.server_speed_factors = {1.0, 1.0, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(cfg.nominal_capacity(1e6), 3.0);
}

TEST(Config, CapacityAveragesSharedSpeedProfile) {
  ClusterConfig cfg;
  cfg.num_servers = 10;
  cfg.speed_profiles = {workload::make_step_rate({500000.0}, {1.0, 0.5})};
  EXPECT_NEAR(cfg.nominal_capacity(1e6), 7.5, 0.1);
}

TEST(Config, ArrivalRateHitsTargetLoad) {
  ClusterConfig cfg;
  cfg.num_servers = 10;
  cfg.num_clients = 1;
  cfg.per_op_overhead_us = 10.0;
  cfg.service_bytes_per_us = 1.0;
  cfg.value_size_bytes = make_constant(10.0);  // 20us per op
  cfg.fanout = make_fixed_int(5);              // 100us per request
  cfg.target_load = 0.5;
  // capacity 10 work-us/us * 0.5 = 5 work-us/us; / 100us per request.
  EXPECT_NEAR(cfg.derived_arrival_rate(1e6), 0.05, 1e-9);
}

TEST(Config, ArrivalRateScalesInverselyWithLoadProfileMean) {
  ClusterConfig cfg;
  cfg.num_servers = 10;
  cfg.fanout = make_fixed_int(4);
  cfg.target_load = 0.6;
  const double base = cfg.derived_arrival_rate(1e6);
  cfg.load_profile = workload::make_constant_rate(2.0);
  EXPECT_NEAR(cfg.derived_arrival_rate(1e6), base / 2.0, base * 1e-9);
}

TEST(Config, MismatchedSpeedFactorLengthThrows) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.server_speed_factors = {1.0, 1.0};
  EXPECT_THROW(cfg.nominal_capacity(1e6), std::logic_error);
}

TEST(Config, InvalidTargetLoadThrows) {
  // Loads past 1 are legal (E22 drives the cluster into overload on
  // purpose); only nonpositive or absurd targets are rejected.
  ClusterConfig cfg;
  cfg.target_load = 10.0;
  EXPECT_THROW(cfg.derived_arrival_rate(1e6), std::logic_error);
  cfg.target_load = 0.0;
  EXPECT_THROW(cfg.derived_arrival_rate(1e6), std::logic_error);
}

TEST(Config, OverloadTargetLoadIsAccepted) {
  ClusterConfig cfg;
  cfg.target_load = 1.2;
  EXPECT_GT(cfg.derived_arrival_rate(1e6), 0.0);
}

TEST(ConfigValidate, DefaultConfigIsAccepted) {
  EXPECT_EQ(validation_error(ClusterConfig{}), "");
}

TEST(ConfigValidate, RejectionsNameTheOffendingField) {
  ClusterConfig cfg;
  cfg.msg_loss_probability = 1.5;
  EXPECT_NE(validation_error(cfg).find("msg_loss_probability"),
            std::string::npos);

  cfg = ClusterConfig{};
  cfg.msg_loss_probability = 0.1;  // loss without retransmission
  EXPECT_NE(validation_error(cfg).find("retry_timeout_us"), std::string::npos);

  cfg = ClusterConfig{};
  cfg.hedge_delay_us = 500.0;  // hedging without a second replica
  EXPECT_NE(validation_error(cfg).find("replication"), std::string::npos);

  cfg = ClusterConfig{};
  cfg.retry_backoff_max_us = 100.0;  // cap without retransmission
  EXPECT_NE(validation_error(cfg).find("retry_backoff_max_us"),
            std::string::npos);

  cfg = ClusterConfig{};
  cfg.retry_timeout_us = 200.0;
  cfg.retry_backoff_max_us = 100.0;  // cap below the base timeout
  EXPECT_NE(validation_error(cfg).find("retry_backoff_max_us"),
            std::string::npos);

  cfg = ClusterConfig{};
  cfg.retry_max_attempts = 5;  // give-up bound without retransmission
  EXPECT_NE(validation_error(cfg).find("retry_max_attempts"),
            std::string::npos);

  cfg = ClusterConfig{};
  cfg.num_servers = 0;
  EXPECT_NE(validation_error(cfg).find("num_servers"), std::string::npos);

  cfg = ClusterConfig{};
  cfg.num_clients = 0;
  EXPECT_NE(validation_error(cfg).find("num_clients"), std::string::npos);

  cfg = ClusterConfig{};
  cfg.keys_per_server = 0;
  EXPECT_NE(validation_error(cfg).find("keys_per_server"), std::string::npos);
}

TEST(ConfigValidate, RejectsLogStructuredStorage) {
  // The log-structured engine was removed; the field may only stay false.
  ClusterConfig cfg;
  cfg.log_structured_storage = true;
  EXPECT_NE(validation_error(cfg).find("log_structured_storage"),
            std::string::npos);
}

TEST(ConfigValidate, FaultPlanSafetyCoupling) {
  // A work-losing plan needs retransmission to keep accounting closed.
  ClusterConfig cfg;
  cfg.fault_plan = fault::parse_fault_plan("crash@1ms:s0,recover@2ms:s0");
  EXPECT_NE(validation_error(cfg).find("retry_timeout_us"), std::string::npos);
  cfg.retry_timeout_us = 100.0;
  EXPECT_EQ(validation_error(cfg), "");

  // A permanently dead target needs a bounded retry budget.
  cfg = ClusterConfig{};
  cfg.retry_timeout_us = 100.0;
  cfg.fault_plan = fault::parse_fault_plan("crash@1ms:s0");
  EXPECT_NE(validation_error(cfg).find("retry_max_attempts"),
            std::string::npos);
  cfg.retry_max_attempts = 4;
  EXPECT_EQ(validation_error(cfg), "");

  // Structural plan validation runs against the configured topology.
  cfg = ClusterConfig{};
  cfg.retry_timeout_us = 100.0;
  cfg.fault_plan = fault::parse_fault_plan("crash@1ms:s99,recover@2ms:s99");
  EXPECT_NE(validation_error(cfg).find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace das::core
