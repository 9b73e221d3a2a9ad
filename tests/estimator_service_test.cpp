// The Estimator Service facade + its estimator.* RPC binding.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "clarens/host.h"
#include "common/clock.h"
#include "estimators/rpc_binding.h"
#include "estimators/service.h"
#include "rpc/client.h"
#include "sim/load.h"

namespace gae::estimators {
namespace {

using rpc::Struct;
using rpc::Value;

class EstimatorServiceTest : public ::testing::Test {
 protected:
  EstimatorServiceTest() {
    grid_.add_site("site-a").add_node("a0", 1.0, nullptr);
    grid_.set_default_link({100e6, 0});
    grid_.add_site("site-b");
    exec_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-a");
    db_ = std::make_shared<EstimateDatabase>();

    auto runtime = std::make_shared<RuntimeEstimator>(std::make_shared<TaskHistoryStore>());
    for (int i = 0; i < 4; ++i) runtime->record(attrs(), 120.0, 0);

    TransferEstimatorOptions topts;
    topts.probe_noise = 0.0;
    service_ = std::make_unique<EstimatorService>(
        db_, std::make_unique<FileTransferEstimator>(grid_, topts));
    service_->add_site("site-a", runtime, exec_.get());
  }

  static std::map<std::string, std::string> attrs() {
    return {{"executable", "reco"}, {"login", "alice"}, {"queue", "q"}, {"nodes", "1"}};
  }

  sim::Simulation sim_;
  sim::Grid grid_;
  std::unique_ptr<exec::ExecutionService> exec_;
  std::shared_ptr<EstimateDatabase> db_;
  std::unique_ptr<EstimatorService> service_;
};

TEST_F(EstimatorServiceTest, RuntimeFacade) {
  auto est = service_->runtime("site-a", attrs());
  ASSERT_TRUE(est.is_ok());
  EXPECT_NEAR(est.value().seconds, 120.0, 1e-9);
  EXPECT_EQ(service_->runtime("nowhere", attrs()).status().code(), StatusCode::kNotFound);
}

TEST_F(EstimatorServiceTest, QueueTimeFacade) {
  exec::TaskSpec running;
  running.id = "running";
  running.work_seconds = 100;
  db_->put("running", 100);
  ASSERT_TRUE(exec_->submit(running).is_ok());
  exec::TaskSpec waiting;
  waiting.id = "waiting";
  waiting.work_seconds = 10;
  ASSERT_TRUE(exec_->submit(waiting).is_ok());

  auto qt = service_->queue_time("site-a", "waiting");
  ASSERT_TRUE(qt.is_ok());
  EXPECT_NEAR(qt.value().seconds, 100.0, 1e-9);
  EXPECT_EQ(service_->queue_time("site-b", "waiting").status().code(),
            StatusCode::kNotFound);  // site-b was never added
}

TEST_F(EstimatorServiceTest, TransferFacade) {
  auto t = service_->transfer_time("site-a", "site-b", 100'000'000, 0);
  ASSERT_TRUE(t.is_ok());
  EXPECT_NEAR(t.value().seconds, 1.0, 1e-9);
}

TEST_F(EstimatorServiceTest, SitesList) {
  EXPECT_EQ(service_->sites(), std::vector<std::string>{"site-a"});
}

TEST_F(EstimatorServiceTest, RpcBinding) {
  ManualClock clock;
  clarens::HostOptions opts;
  opts.require_auth = false;
  clarens::ClarensHost host("est-host", clock, opts);
  register_estimator_methods(host, *service_);

  Struct wire_attrs;
  for (const auto& [k, v] : attrs()) wire_attrs[k] = Value(v);
  auto runtime = host.call("estimator.runtime", {Value("site-a"), Value(wire_attrs)});
  ASSERT_TRUE(runtime.is_ok()) << runtime.status();
  EXPECT_NEAR(runtime.value().get_double("seconds", 0), 120.0, 1e-9);
  EXPECT_EQ(runtime.value().get_int("samples", 0), 4);
  EXPECT_FALSE(runtime.value().get_string("template", "").empty());

  exec::TaskSpec running;
  running.id = "running";
  running.work_seconds = 100;
  db_->put("running", 100);
  ASSERT_TRUE(exec_->submit(running).is_ok());
  exec::TaskSpec waiting;
  waiting.id = "waiting";
  waiting.work_seconds = 10;
  ASSERT_TRUE(exec_->submit(waiting).is_ok());

  auto qt = host.call("estimator.queueTime", {Value("site-a"), Value("waiting")});
  ASSERT_TRUE(qt.is_ok()) << qt.status();
  EXPECT_NEAR(qt.value().get_double("seconds", 0), 100.0, 1e-9);
  EXPECT_EQ(qt.value().get_int("tasks_ahead", 0), 1);

  auto xfer = host.call("estimator.transferTime",
                        {Value("site-a"), Value("site-b"), Value(100'000'000)});
  ASSERT_TRUE(xfer.is_ok()) << xfer.status();
  EXPECT_NEAR(xfer.value().get_double("seconds", 0), 1.0, 1e-9);
  EXPECT_NEAR(xfer.value().get_double("bandwidth_bytes_per_sec", 0), 100e6, 1.0);

  auto sites = host.call("estimator.sites", {});
  ASSERT_TRUE(sites.is_ok());
  EXPECT_EQ(sites.value().as_array().size(), 1u);

  // Validation paths.
  EXPECT_EQ(host.call("estimator.runtime", {Value("site-a")}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(host.call("estimator.queueTime", {Value("site-a"), Value(3)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(host.call("estimator.transferTime", {Value("a")}).status().code(),
            StatusCode::kInvalidArgument);
  // Byte counts and times that have no integer value are refused, not cast.
  for (const double bad : {-1.0, std::nan(""), 0x1p64, 1e300}) {
    EXPECT_EQ(host.call("estimator.transferTime", {Value("site-a"), Value("site-b"), Value(bad)})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(host.call("estimator.transferTime",
                        {Value("site-a"), Value("site-b"), Value(1), Value(-bad * 1e30)})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_TRUE(host.registry().lookup("estimator@est-host").is_ok());
}

// One live estimator host and four clients calling runtime, queueTime and
// transferTime at once, with the transfer probe re-run on most calls: the
// shared estimators must answer every call (and stay clean under TSan).
TEST_F(EstimatorServiceTest, LiveHostServesConcurrentClients) {
  EstimatorService service(db_, std::make_unique<FileTransferEstimator>(grid_));
  auto runtime = std::make_shared<RuntimeEstimator>(std::make_shared<TaskHistoryStore>());
  for (int i = 0; i < 4; ++i) runtime->record(attrs(), 120.0, 0);
  service.add_site("site-a", runtime, exec_.get());
  for (const char* id : {"running", "waiting"}) {
    exec::TaskSpec spec;
    spec.id = id;
    spec.work_seconds = 100;
    db_->put(id, 100);
    ASSERT_TRUE(exec_->submit(spec).is_ok());
  }

  WallClock wall;
  clarens::HostOptions opts;
  opts.require_auth = false;
  clarens::ClarensHost host("est-live", wall, opts);
  register_estimator_methods(host, service);
  auto port = host.serve(0);
  ASSERT_TRUE(port.is_ok()) << port.status();

  Struct wire_attrs;
  for (const auto& [k, v] : attrs()) wire_attrs[k] = Value(v);
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      rpc::RpcClient client("127.0.0.1", port.value());
      for (int k = 0; k < 25; ++k) {
        auto rt = client.call("estimator.runtime", {Value("site-a"), Value(wire_attrs)});
        auto qt = client.call("estimator.queueTime", {Value("site-a"), Value("waiting")});
        // A new probe whenever `now` moves past the 300-s TTL.
        auto xfer = client.call("estimator.transferTime",
                                {Value("site-a"), Value("site-b"), Value(100'000'000),
                                 Value(400.0 * (4 * k + c))});
        if (!rt.is_ok() || std::abs(rt.value().get_double("seconds", 0) - 120.0) > 1e-9) {
          errors.fetch_add(1);
        }
        if (!qt.is_ok() || std::abs(qt.value().get_double("seconds", 0) - 100.0) > 1e-9) {
          errors.fetch_add(1);
        }
        if (!xfer.is_ok() || !(xfer.value().get_double("seconds", 0) > 0)) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  host.stop();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace gae::estimators
