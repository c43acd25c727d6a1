// Locks down the fleet serving layer (src/fleet/, docs/FLEET.md):
//  * traffic generation is deterministic per (seed, config) and well-formed,
//  * the admission queue bounds depth and counts rejections,
//  * every placement policy enumerates all devices across retry attempts and
//    honors its documented invariants,
//  * end-to-end fleet runs conserve requests (served + shed == offered),
//    verify outputs, and take the partitioned path exactly when the config
//    allows it, with reports byte-identical to the lockstep path at any
//    sweep pool width, resumed fleets included.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/sim/json.h"

namespace fabacus {
namespace {

TrafficConfig SmallOpenLoop(std::uint64_t seed = 7) {
  TrafficConfig t;
  t.model = TrafficConfig::Model::kOpenLoop;
  t.seed = seed;
  t.num_clients = 4;
  t.arrival_rate_per_s = 400.0;
  t.total_requests = 24;
  return t;
}

FleetConfig SmallFleet(int devices = 2) {
  FleetConfig cfg;
  cfg.num_devices = devices;
  cfg.traffic = SmallOpenLoop();
  cfg.max_route_attempts = 1;
  return cfg;
}

// The whole open-loop schedule, drained one arrival at a time.
std::vector<FleetRequest> DrainOpenLoop(TrafficGenerator& gen) {
  std::vector<FleetRequest> reqs;
  FleetRequest r;
  while (gen.NextArrival(&r)) {
    reqs.push_back(r);
  }
  return reqs;
}

std::vector<std::string> ScheduleSignature(const std::vector<FleetRequest>& reqs) {
  std::vector<std::string> sig;
  for (const FleetRequest& r : reqs) {
    sig.push_back(std::to_string(r.id) + "/" + std::to_string(r.client_id) + "/" +
                  std::to_string(r.workload_idx) + "@" + std::to_string(r.arrival));
  }
  return sig;
}

TEST(Traffic, OpenLoopScheduleIsWellFormed) {
  TrafficGenerator gen(SmallOpenLoop());
  EXPECT_TRUE(gen.InitialArrivals().empty()) << "open-loop arrivals come from NextArrival";
  const std::vector<FleetRequest> reqs = DrainOpenLoop(gen);
  ASSERT_EQ(reqs.size(), 24u);
  EXPECT_EQ(gen.total_requests(), 24);
  Tick prev = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, static_cast<int>(i)) << "ids follow submission order";
    EXPECT_EQ(reqs[i].client_id, static_cast<int>(i) % 4) << "open loop round-robins clients";
    EXPECT_GE(reqs[i].arrival, prev) << "arrivals are non-decreasing";
    EXPECT_GE(reqs[i].workload_idx, 0);
    EXPECT_LT(reqs[i].workload_idx, static_cast<int>(gen.mix().size()));
    prev = reqs[i].arrival;
  }
  // An open-loop generator never produces follow-up requests.
  FleetRequest next;
  EXPECT_FALSE(gen.NextForClient(0, prev + kMs, &next));
}

TEST(Traffic, SameSeedSameSchedule_DifferentSeedDifferentSchedule) {
  TrafficGenerator a(SmallOpenLoop(7));
  TrafficGenerator b(SmallOpenLoop(7));
  TrafficGenerator c(SmallOpenLoop(8));
  const auto sig_a = ScheduleSignature(DrainOpenLoop(a));
  const auto sig_b = ScheduleSignature(DrainOpenLoop(b));
  const auto sig_c = ScheduleSignature(DrainOpenLoop(c));
  EXPECT_EQ(sig_a, sig_b) << "identical seeds must replay the identical schedule";
  EXPECT_NE(sig_a, sig_c) << "a different seed must perturb the schedule";
}

TEST(Traffic, ClosedLoopHonorsPerClientQuota) {
  TrafficConfig t;
  t.model = TrafficConfig::Model::kClosedLoop;
  t.num_clients = 3;
  t.requests_per_client = 2;
  TrafficGenerator gen(t);
  const std::vector<FleetRequest> first = gen.InitialArrivals();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(gen.total_requests(), 6);
  for (const FleetRequest& r : first) {
    FleetRequest next;
    ASSERT_TRUE(gen.NextForClient(r.client_id, r.arrival + kMs, &next));
    EXPECT_EQ(next.client_id, r.client_id);
    EXPECT_GE(next.arrival, r.arrival + kMs) << "think time keeps arrivals in the future";
    // Quota exhausted: two requests per client have now been emitted.
    EXPECT_FALSE(gen.NextForClient(r.client_id, next.arrival + kMs, &next));
  }
}

TEST(Traffic, ValidateRejectsBadConfigs) {
  TrafficConfig t = SmallOpenLoop();
  t.arrival_rate_per_s = 0.0;
  EXPECT_FALSE(t.Validate().empty());
  t = SmallOpenLoop();
  t.mix.push_back({"NOT_A_WORKLOAD", 1.0});
  EXPECT_FALSE(t.Validate().empty());
  t = SmallOpenLoop();
  t.num_clients = 0;
  EXPECT_FALSE(t.Validate().empty());
  EXPECT_TRUE(SmallOpenLoop().Validate().empty());
}

TEST(AdmissionQueue, BoundsDepthAndCountsRejections) {
  AdmissionQueue q(2);
  FleetRequest a, b, c;
  EXPECT_TRUE(q.TryEnqueue(&a, 10));
  EXPECT_TRUE(q.TryEnqueue(&b, 20));
  EXPECT_FALSE(q.TryEnqueue(&c, 30)) << "third request exceeds max_depth=2";
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.enqueued(), 2u);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.peak_depth(), 2u);
  EXPECT_EQ(q.Dequeue(40), &a) << "FIFO order";
  EXPECT_TRUE(q.TryEnqueue(&c, 50)) << "a freed slot admits again";
  EXPECT_EQ(q.Dequeue(60), &b);
  EXPECT_EQ(q.Dequeue(70), &c);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.depth_series().empty());
}

TEST(ShardRouter, RoundRobinRotatesAndRetriesProbeAllDevices) {
  ShardRouter router(PlacementPolicy::kRoundRobin, 4);
  const std::vector<int> zeros(4, 0);
  FleetRequest r;
  std::set<int> first_choices;
  for (int i = 0; i < 4; ++i) {
    first_choices.insert(router.Route(r, zeros, 0));
  }
  EXPECT_EQ(first_choices.size(), 4u) << "four consecutive requests visit four devices";
  // A single request's retry attempts must enumerate every device once.
  ShardRouter fresh(PlacementPolicy::kRoundRobin, 4);
  std::set<int> attempts;
  const int primary = fresh.Route(r, zeros, 0);
  attempts.insert(primary);
  for (int a = 1; a < 4; ++a) {
    attempts.insert(fresh.Route(r, zeros, a));
  }
  EXPECT_EQ(attempts.size(), 4u);
}

TEST(ShardRouter, LeastOutstandingPicksMinimumWithIndexTiebreak) {
  ShardRouter router(PlacementPolicy::kLeastOutstanding, 4);
  FleetRequest r;
  EXPECT_EQ(router.Route(r, {2, 0, 1, 0}, 0), 1) << "ties resolve to the lowest index";
  EXPECT_EQ(router.Route(r, {2, 0, 1, 0}, 1), 3) << "attempt 1 = second-least-loaded";
  EXPECT_EQ(router.Route(r, {2, 0, 1, 0}, 2), 2);
  EXPECT_EQ(router.Route(r, {2, 0, 1, 0}, 3), 0);
  EXPECT_FALSE(PolicyIsOblivious(PlacementPolicy::kLeastOutstanding));
}

TEST(ShardRouter, DataAffinityIsStablePerWorkloadAndCoversAllOnRetry) {
  ShardRouter router(PlacementPolicy::kDataAffinity, 4);
  const std::vector<int> zeros(4, 0);
  FleetRequest a, b;
  a.workload_idx = 2;
  b.workload_idx = 2;
  EXPECT_EQ(router.Route(a, zeros, 0), router.Route(b, zeros, 0))
      << "the same workload always routes to its home device";
  std::set<int> attempts;
  for (int at = 0; at < 4; ++at) {
    attempts.insert(router.Route(a, zeros, at));
  }
  EXPECT_EQ(attempts.size(), 4u) << "retries spiral over every device";
  EXPECT_TRUE(PolicyIsOblivious(PlacementPolicy::kDataAffinity));
  EXPECT_TRUE(PolicyIsOblivious(PlacementPolicy::kRoundRobin));
}

void CheckConservation(const FleetReport& rep, std::uint64_t offered) {
  EXPECT_EQ(rep.offered, offered);
  EXPECT_EQ(rep.served + rep.shed, rep.offered) << "every request is served or shed";
  EXPECT_TRUE(rep.verified) << "served outputs must verify functionally";
  EXPECT_EQ(rep.latency_ms.count(), rep.served);
  std::uint64_t dev_served = 0;
  for (const FleetDeviceStats& d : rep.devices) {
    dev_served += d.served;
    EXPECT_EQ(d.latency_ms.count(), d.served);
  }
  EXPECT_EQ(dev_served, rep.served) << "per-device stats partition the served set";
}

TEST(FleetSim, EndToEndServesAndConservesRequests) {
  FleetConfig cfg = SmallFleet(2);
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 24);
  EXPECT_GT(rep.served, 0u);
  EXPECT_GT(rep.makespan, 0);
  EXPECT_GT(rep.throughput_rps, 0.0);
  // The JSON export parses and carries the headline counters.
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(rep.ToJson(), &v, &err)) << err;
  EXPECT_EQ(v["served"].num_v, static_cast<double>(rep.served));
  EXPECT_EQ(v["num_devices"].num_v, 2.0);
  EXPECT_EQ(v["devices"].array_v.size(), 2u);
  EXPECT_TRUE(v["metrics"].is_object());
  EXPECT_EQ(v["metrics"]["fleet/offered"].num_v, 24.0);
}

TEST(FleetSim, OverloadShedsInsteadOfQueueingUnboundedly) {
  FleetConfig cfg = SmallFleet(1);
  cfg.traffic.arrival_rate_per_s = 50000.0;  // far beyond one device's capacity
  cfg.traffic.total_requests = 32;
  cfg.queue_depth = 1;
  cfg.max_batch = 1;
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 32);
  EXPECT_GT(rep.shed, 0u) << "a depth-1 queue under overload must shed";
  EXPECT_GT(rep.served, 0u);
  EXPECT_EQ(rep.devices[0].shed, rep.shed);
  EXPECT_LE(rep.devices[0].peak_queue_depth, 1u);
}

TEST(FleetSim, RerouteRetriesRescueRejectionsAcrossDevices) {
  FleetConfig cfg = SmallFleet(2);
  cfg.traffic.arrival_rate_per_s = 50000.0;
  cfg.traffic.total_requests = 32;
  cfg.queue_depth = 1;
  cfg.max_batch = 1;
  cfg.max_route_attempts = 2;  // forces the lockstep path
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 32);
  EXPECT_EQ(rep.execution, "lockstep");
  EXPECT_GT(rep.route_retries, 0u) << "overload must trigger second-choice placements";
}

TEST(FleetSim, ClosedLoopServesEveryClientQuota) {
  FleetConfig cfg = SmallFleet(2);
  cfg.traffic.model = TrafficConfig::Model::kClosedLoop;
  cfg.traffic.num_clients = 4;
  cfg.traffic.requests_per_client = 3;
  cfg.policy = PlacementPolicy::kLeastOutstanding;
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 12);
  EXPECT_EQ(rep.execution, "lockstep") << "closed loop requires the global event loop";
  EXPECT_EQ(rep.shed, 0u) << "one-in-flight clients cannot overflow a depth-16 queue";
  ASSERT_EQ(rep.client_latency_ms.size(), 4u);
  for (const LogHistogram& h : rep.client_latency_ms) {
    EXPECT_EQ(h.count(), 3u) << "each client completes its full quota";
  }
}

TEST(FleetSim, DataAffinityReusesInstalledDatasets) {
  FleetConfig cfg = SmallFleet(2);
  cfg.policy = PlacementPolicy::kDataAffinity;
  cfg.traffic.total_requests = 24;
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 24);
  std::uint64_t installs = 0;
  std::uint64_t hits = 0;
  for (const FleetDeviceStats& d : rep.devices) {
    installs += d.installs;
    hits += d.install_hits;
  }
  EXPECT_EQ(installs + hits, rep.served) << "every served request acquired an instance";
  EXPECT_GT(hits, 0u) << "repeat requests must hit the flash-resident dataset cache";
  EXPECT_LT(installs, rep.served) << "affinity routing caps fresh installs well below 1/request";
}

// An install-cache hit runs the flash-resident dataset as is: the device's
// load refills the input buffers, the slot restores every other buffer, and
// the outputs are checked against the slot's own reference. The default mix
// has no in-place kernels, so only a mix of every registry workload (GEMM,
// CORR, ADI, ... included) exercises that restore.
TEST(FleetSim, InstallCacheHitsVerifyOnEveryKernel) {
  for (SchedulerKind kind : {SchedulerKind::kIntraOutOfOrder, SchedulerKind::kInterStatic}) {
    FleetConfig cfg = SmallFleet(2);
    cfg.scheduler = kind;
    cfg.traffic.arrival_rate_per_s = 25.0;
    cfg.traffic.total_requests = 200;
    for (const Workload* wl : WorkloadRegistry::Get().all()) {
      cfg.traffic.mix.push_back({wl->name(), 1.0});
    }
    FleetReport rep = RunFleet(cfg);
    CheckConservation(rep, 200);
    EXPECT_EQ(rep.execution, "partitioned") << SchedulerKindName(kind);
    std::uint64_t hits = 0;
    for (const FleetDeviceStats& d : rep.devices) {
      hits += d.install_hits;
    }
    EXPECT_GT(hits, 100u) << SchedulerKindName(kind);
    EXPECT_TRUE(rep.verified) << SchedulerKindName(kind);
  }
}

std::string NormalizeExecution(std::string json) {
  const std::string from = "\"execution\":\"lockstep\"";
  const std::string to = "\"execution\":\"partitioned\"";
  const std::size_t pos = json.find(from);
  if (pos != std::string::npos) {
    json.replace(pos, from.size(), to);
  }
  return json;
}

// The lockstep twin of a partition-legal config: a second routing attempt
// forces the global event loop. Callers size the queue so that attempt is
// never taken, which leaves the served schedule unchanged.
FleetConfig LockstepReference(FleetConfig cfg) {
  cfg.max_route_attempts = 2;
  return cfg;
}

void ExpectSameReport(const FleetReport& partitioned, const FleetReport& lockstep,
                      const std::string& what) {
  EXPECT_EQ(partitioned.execution, "partitioned") << what;
  EXPECT_EQ(lockstep.execution, "lockstep") << what;
  EXPECT_EQ(lockstep.route_retries, 0u) << what << ": the reference took a second attempt";
  EXPECT_EQ(NormalizeExecution(lockstep.ToJson()), partitioned.ToJson())
      << "paths diverged: " << what;
}

TEST(FleetSim, LockstepAndPartitionedPathsAreByteIdentical) {
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kDataAffinity}) {
    FleetConfig cfg = SmallFleet(3);
    cfg.policy = policy;
    cfg.traffic.total_requests = 18;
    cfg.queue_depth = 18;  // no queue can fill
    ExpectSameReport(RunFleet(cfg), RunFleet(LockstepReference(cfg)),
                     PlacementPolicyName(policy));
  }
}

// A resumed open-loop stream carries on the client rotation where the
// snapshot left it. 21 requests over 4 clients stop mid-rotation, so a path
// that restarted it at client 0 would shift every per-client latency row.
TEST(FleetSim, ResumedPartitionedFleetMatchesLockstep) {
  FleetConfig cfg = SmallFleet(2);
  cfg.traffic.total_requests = 21;
  cfg.queue_depth = 21;  // no queue can fill
  FleetSim first(cfg);
  ASSERT_EQ(first.Run().execution, "partitioned");
  SnapshotFile snap;
  std::string err;
  ASSERT_TRUE(SnapshotFile::Parse(first.BuildSnapshot().Serialize(), &snap, &err)) << err;
  const auto resume_and_run = [&](const FleetConfig& c) {
    FleetSim fleet(c);
    EXPECT_TRUE(fleet.Resume(snap, &err)) << err;
    return fleet.Run();
  };
  ExpectSameReport(resume_and_run(cfg), resume_and_run(LockstepReference(cfg)),
                   "resumed fleet");
}

// Runs `cfg` with the sweep pool pinned to `threads` workers.
std::string RunWithSweepThreads(const FleetConfig& cfg, const char* threads) {
  const char* prev = std::getenv("FABACUS_SWEEP_THREADS");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("FABACUS_SWEEP_THREADS", threads, 1);
  const std::string json = RunFleet(cfg).ToJson();
  if (prev != nullptr) {
    setenv("FABACUS_SWEEP_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("FABACUS_SWEEP_THREADS");
  }
  return json;
}

TEST(FleetSim, SweepThreadCountDoesNotChangeTheReport) {
  FleetConfig cfg = SmallFleet(4);
  cfg.traffic.total_requests = 24;
  ASSERT_TRUE(cfg.CanPartition());
  EXPECT_EQ(RunWithSweepThreads(cfg, "1"), RunWithSweepThreads(cfg, "4"))
      << "merged fleet reports must be thread-count invariant";
}

TEST(FleetSim, RepeatRunsAreByteIdentical) {
  FleetConfig cfg = SmallFleet(2);
  cfg.policy = PlacementPolicy::kLeastOutstanding;  // lockstep, state-aware
  const std::string first = RunFleet(cfg).ToJson();
  const std::string second = RunFleet(cfg).ToJson();
  EXPECT_EQ(first, second);
}

TEST(FleetSim, SyntheticServiceConservesAndRepeatsByteIdentically) {
  // The synthetic service model (docs/FLEET.md "Scale-out mode") replaces the
  // per-device simulators with a closed-form cost model so scale-out cells can
  // run tens of millions of requests; it must keep the same accounting and
  // determinism contracts as the simulated path.
  FleetConfig cfg = SmallFleet(2);
  cfg.synthetic_service = true;
  cfg.traffic.total_requests = 64;
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 64);
  EXPECT_GT(rep.served, 0u);
  EXPECT_GT(rep.makespan, 0);
  std::uint64_t installs = 0;
  for (const FleetDeviceStats& d : rep.devices) {
    installs += d.installs + d.install_hits;
  }
  EXPECT_EQ(installs, rep.served) << "synthetic serving still models dataset installs";
  const std::string again = RunFleet(cfg).ToJson();
  EXPECT_EQ(rep.ToJson(), again);
}

TEST(FleetSim, SyntheticServiceRejectsFaultPlans) {
  FleetConfig cfg = SmallFleet(2);
  cfg.synthetic_service = true;
  EXPECT_TRUE(cfg.Validate().empty());
  FleetFaultEvent crash;
  crash.kind = FleetFaultEvent::Kind::kCrash;
  crash.shard = 0;
  crash.at = kMs;
  crash.duration = kMs;
  cfg.faults.plan.push_back(crash);
  EXPECT_FALSE(cfg.Validate().empty())
      << "the synthetic model has no device internals for faults to act on";
}

TEST(FleetConfig, ValidateCatchesContradictions) {
  FleetConfig cfg = SmallFleet(2);
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.max_route_attempts = 3;  // more attempts than devices
  EXPECT_FALSE(cfg.Validate().empty());
}

TEST(FleetConfig, RunPartitionsExactlyWhenCanPartition) {
  struct Case {
    const char* name;
    FleetConfig cfg;
    bool partitionable;
  };
  std::vector<Case> cases;
  cases.push_back({"round-robin", SmallFleet(2), true});
  cases.push_back({"data-affinity", SmallFleet(2), true});
  cases.back().cfg.policy = PlacementPolicy::kDataAffinity;
  cases.push_back({"least-outstanding", SmallFleet(2), false});
  cases.back().cfg.policy = PlacementPolicy::kLeastOutstanding;
  cases.push_back({"closed loop", SmallFleet(2), false});
  cases.back().cfg.traffic.model = TrafficConfig::Model::kClosedLoop;
  cases.push_back({"re-route retries", SmallFleet(2), false});
  cases.back().cfg.max_route_attempts = 2;
  for (Case& c : cases) {
    EXPECT_TRUE(c.cfg.Validate().empty()) << c.name;
    EXPECT_EQ(c.cfg.CanPartition(), c.partitionable) << c.name;
    c.cfg.synthetic_service = true;  // the path choice, cheaply
    EXPECT_EQ(RunFleet(c.cfg).execution, c.partitionable ? "partitioned" : "lockstep")
        << c.name;
  }
}

}  // namespace
}  // namespace fabacus
