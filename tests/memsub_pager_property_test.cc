// Property tests for the unified-memory pager (src/memsub/pager.h).
//
// A shadow model — an independent, straight-line reimplementation of the
// pager's contract (global LRU over non-pinned resident pages, pinned pages
// immovable, eviction only when the device is full) — is driven through a
// seeded churn of register / access / release operations alongside the real
// pager. After every operation the two must agree on the exact resident set.
// Invariants checked throughout: resident bytes never exceed capacity,
// pinned pages never leave the device, fault/eviction totals are consistent,
// and the same seed replays bit-identically. The harness admission cases at
// the end pin §5.1.3: an oversubscribed shared run needs the pager.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/gpusim/device.h"
#include "src/harness/experiment.h"
#include "src/memsub/pager.h"
#include "src/sim/simulator.h"

namespace orion {
namespace memsub {
namespace {

constexpr std::size_t kPage = kPageBytes;

gpusim::DeviceSpec SmallDevice(std::size_t pages) {
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::V100_16GB();
  spec.memory_bytes = pages * kPage;
  return spec;
}

// Independent reimplementation of the pager's resident-set semantics.
class ShadowPager {
 public:
  explicit ShadowPager(std::size_t capacity_pages) : capacity_(capacity_pages) {}

  void Register(int client, std::size_t pages, bool pinned) {
    Client c;
    c.pinned = pinned;
    c.resident.assign(pages, false);
    // Pre-warm in registration order while frames remain.
    for (std::size_t i = 0; i < pages && resident_count_ < capacity_; ++i) {
      c.resident[i] = true;
      ++resident_count_;
      if (!pinned) {
        lru_.push_back({client, i});
      }
    }
    clients_[client] = std::move(c);
  }

  // Returns the number of faults the access should cause.
  std::size_t Access(int client) {
    Client& c = clients_.at(client);
    if (c.released) {
      return 0;
    }
    std::size_t faults = 0;
    for (std::size_t i = 0; i < c.resident.size(); ++i) {
      if (c.resident[i]) {
        if (!c.pinned) {
          Touch(client, i);
        }
        continue;
      }
      if (resident_count_ >= capacity_) {
        const auto [victim_client, victim_page] = lru_.front();
        lru_.pop_front();
        clients_.at(victim_client).resident[victim_page] = false;
        --resident_count_;
      }
      c.resident[i] = true;
      ++resident_count_;
      if (!c.pinned) {
        lru_.push_back({client, i});
      }
      ++faults;
    }
    return faults;
  }

  void Release(int client) {
    Client& c = clients_.at(client);
    if (c.released) {
      return;
    }
    for (std::size_t i = 0; i < c.resident.size(); ++i) {
      if (c.resident[i]) {
        c.resident[i] = false;
        --resident_count_;
      }
    }
    lru_.remove_if([client](const std::pair<int, std::size_t>& entry) {
      return entry.first == client;
    });
    c.released = true;
  }

  bool IsResident(int client, std::size_t page) const {
    return clients_.at(client).resident[page];
  }
  std::size_t pages(int client) const { return clients_.at(client).resident.size(); }
  std::size_t resident_count() const { return resident_count_; }

 private:
  struct Client {
    bool pinned = false;
    bool released = false;
    std::vector<bool> resident;
  };

  void Touch(int client, std::size_t page) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->first == client && it->second == page) {
        lru_.splice(lru_.end(), lru_, it);
        return;
      }
    }
    ADD_FAILURE() << "touched resident non-pinned page missing from shadow LRU";
  }

  std::size_t capacity_;
  std::size_t resident_count_ = 0;
  std::list<std::pair<int, std::size_t>> lru_;
  std::map<int, Client> clients_;
};

struct ChurnOutcome {
  PagingTotals totals;
  std::vector<std::size_t> resident_bytes;  // per client, at the end
};

// Drives pager + shadow through the same seeded operation stream, checking
// agreement after every step. Returns the final state for replay comparison.
ChurnOutcome RunChurn(std::uint64_t seed, bool check_shadow) {
  constexpr std::size_t kCapacityPages = 24;
  constexpr int kClients = 5;
  Simulator sim;
  gpusim::Device device(&sim, SmallDevice(kCapacityPages));
  UnifiedMemoryPager pager(&sim, &device);
  ShadowPager shadow(kCapacityPages);

  Rng rng(seed);
  // Client 0 is pinned and registered first (the harness contract); its 4
  // pages must never leave the device. The rest oversubscribe ~2x.
  const std::vector<std::size_t> sizes = {4, 10, 12, 8, 14};
  for (int c = 0; c < kClients; ++c) {
    pager.RegisterClient(c, "client" + std::to_string(c), sizes[c] * kPage,
                         /*pinned=*/c == 0, /*dirty_on_touch=*/c % 2 == 1);
    shadow.Register(c, sizes[c], c == 0);
  }

  std::vector<bool> released(kClients, false);
  for (int step = 0; step < 400; ++step) {
    const int client = static_cast<int>(rng.UniformInt(0, kClients - 1));
    const bool release = !released[client] && client != 0 && rng.UniformDouble(0, 1) < 0.02;
    if (release) {
      pager.ReleaseClient(client);
      shadow.Release(client);
      released[client] = true;
    } else {
      bool completed = false;
      pager.Access(client, [&completed](DurationUs) { completed = true; });
      sim.RunUntilIdle();  // drain the fault transfers
      EXPECT_TRUE(completed || released[client]);
      shadow.Access(client);
    }

    // Invariant: the device never holds more than its capacity.
    std::size_t resident_total = 0;
    for (int c = 0; c < kClients; ++c) {
      resident_total += pager.resident_bytes(c);
    }
    EXPECT_LE(resident_total, pager.capacity_bytes());
    // Invariant: pinned pages are immovable.
    for (std::size_t p = 0; p < sizes[0]; ++p) {
      EXPECT_TRUE(pager.IsResident(0, p)) << "pinned page evicted at step " << step;
    }
    if (check_shadow) {
      EXPECT_EQ(resident_total, shadow.resident_count() * kPage) << "step " << step;
      for (int c = 0; c < kClients; ++c) {
        for (std::size_t p = 0; p < shadow.pages(c); ++p) {
          EXPECT_EQ(pager.IsResident(c, p), shadow.IsResident(c, p))
              << "client " << c << " page " << p << " step " << step;
        }
      }
    }
  }

  ChurnOutcome outcome;
  outcome.totals = pager.totals();
  for (int c = 0; c < kClients; ++c) {
    outcome.resident_bytes.push_back(pager.resident_bytes(c));
  }
  return outcome;
}

TEST(PagerPropertyTest, ChurnAgreesWithShadowModel) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    RunChurn(seed, /*check_shadow=*/true);
  }
}

TEST(PagerPropertyTest, SameSeedChurnReplaysBitIdentically) {
  const ChurnOutcome a = RunChurn(42, /*check_shadow=*/false);
  const ChurnOutcome b = RunChurn(42, /*check_shadow=*/false);
  EXPECT_EQ(a.totals.accesses, b.totals.accesses);
  EXPECT_EQ(a.totals.faults, b.totals.faults);
  EXPECT_EQ(a.totals.evictions, b.totals.evictions);
  EXPECT_EQ(a.totals.writebacks, b.totals.writebacks);
  EXPECT_EQ(a.totals.fault_bytes_h2d, b.totals.fault_bytes_h2d);
  EXPECT_EQ(a.totals.writeback_bytes_d2h, b.totals.writeback_bytes_d2h);
  EXPECT_DOUBLE_EQ(a.totals.stall_us, b.totals.stall_us);
  EXPECT_EQ(a.resident_bytes, b.resident_bytes);
  // And a different seed takes a different path through the churn.
  const ChurnOutcome c = RunChurn(43, /*check_shadow=*/false);
  EXPECT_NE(a.totals.faults, c.totals.faults);
}

// --- Directed unit tests around the property suite. ---

TEST(PagerTest, FittingCollocationIsInert) {
  Simulator sim;
  gpusim::Device device(&sim, SmallDevice(32));
  UnifiedMemoryPager pager(&sim, &device);
  pager.RegisterClient(0, "a", 16 * kPage, /*pinned=*/false, /*dirty_on_touch=*/true);
  pager.RegisterClient(1, "b", 16 * kPage, /*pinned=*/false, /*dirty_on_touch=*/false);
  EXPECT_FALSE(pager.oversubscribed());
  for (int round = 0; round < 10; ++round) {
    for (int c = 0; c < 2; ++c) {
      bool completed = false;
      pager.Access(c, [&completed](DurationUs) { completed = true; });
      // Synchronous completion: no faults means no events were scheduled.
      EXPECT_TRUE(completed);
    }
  }
  EXPECT_EQ(pager.totals().faults, 0u);
  EXPECT_EQ(pager.totals().evictions, 0u);
  EXPECT_EQ(pager.totals().fault_bytes_h2d, 0u);
  EXPECT_EQ(sim.RunUntilIdle(), 0u);  // nothing was ever enqueued
}

TEST(PagerTest, CyclicScanOverCapacityFaultsEveryPage) {
  // The LRU sequential-scan pathology: a working set one page larger than
  // the device faults every page of every pass after the first.
  Simulator sim;
  gpusim::Device device(&sim, SmallDevice(8));
  UnifiedMemoryPager pager(&sim, &device);
  pager.RegisterClient(0, "scan", 9 * kPage, /*pinned=*/false, /*dirty_on_touch=*/false);
  EXPECT_TRUE(pager.oversubscribed());
  bool completed = false;
  pager.Access(0, [&completed](DurationUs) { completed = true; });
  sim.RunUntilIdle();
  ASSERT_TRUE(completed);
  EXPECT_EQ(pager.totals().faults, 1u);  // pre-warm left 8 of 9 resident
  pager.Access(0, [](DurationUs) {});
  sim.RunUntilIdle();
  EXPECT_EQ(pager.totals().faults, 1u + 9u);  // second pass misses everywhere
}

TEST(PagerTest, AccessReportsFaultStall) {
  Simulator sim;
  gpusim::Device device(&sim, SmallDevice(8));
  UnifiedMemoryPager pager(&sim, &device);
  pager.RegisterClient(0, "scan", 9 * kPage, /*pinned=*/false, /*dirty_on_touch=*/false);
  // A faulting access at t=50 reports landing time minus access time.
  DurationUs stall = -1.0;
  TimeUs landed = -1.0;
  sim.ScheduleAt(50.0, [&]() {
    pager.Access(0, [&](DurationUs stall_us) {
      stall = stall_us;
      landed = sim.now();
    });
  });
  sim.RunUntilIdle();
  EXPECT_GT(stall, 0.0);
  EXPECT_DOUBLE_EQ(stall, landed - 50.0);
  EXPECT_DOUBLE_EQ(pager.client_stall_us(0), stall);
  // A fully resident access reports zero stall, synchronously.
  pager.ReleaseClient(0);
  pager.RegisterClient(1, "fits", 4 * kPage, /*pinned=*/false, /*dirty_on_touch=*/false);
  stall = -1.0;
  pager.Access(1, [&stall](DurationUs stall_us) { stall = stall_us; });
  EXPECT_DOUBLE_EQ(stall, 0.0);
}

TEST(PagerTest, DirtyEvictionsPayWritebacks) {
  Simulator sim;
  gpusim::Device device(&sim, SmallDevice(8));
  UnifiedMemoryPager pager(&sim, &device);
  pager.RegisterClient(0, "train", 6 * kPage, /*pinned=*/false, /*dirty_on_touch=*/true);
  pager.RegisterClient(1, "infer", 6 * kPage, /*pinned=*/false, /*dirty_on_touch=*/false);
  pager.Access(0, [](DurationUs) {});
  sim.RunUntilIdle();
  pager.Access(1, [](DurationUs) {});
  sim.RunUntilIdle();
  // Client 1's faults evicted client 0's touched (dirty) pages.
  EXPECT_GT(pager.totals().evictions, 0u);
  EXPECT_EQ(pager.totals().writebacks, pager.totals().evictions);
  EXPECT_GT(pager.totals().writeback_bytes_d2h, 0u);
}

TEST(PagerTest, ReleaseFreesFramesImmediately) {
  Simulator sim;
  gpusim::Device device(&sim, SmallDevice(8));
  UnifiedMemoryPager pager(&sim, &device);
  pager.RegisterClient(0, "a", 8 * kPage, /*pinned=*/false, /*dirty_on_touch=*/true);
  pager.RegisterClient(1, "b", 8 * kPage, /*pinned=*/false, /*dirty_on_touch=*/false);
  pager.ReleaseClient(0);
  EXPECT_EQ(pager.resident_bytes(0), 0u);
  // Client 1 can now fault everything in without evicting anyone.
  const std::uint64_t evictions_before = pager.totals().evictions;
  pager.Access(1, [](DurationUs) {});
  sim.RunUntilIdle();
  EXPECT_EQ(pager.totals().evictions, evictions_before);
  EXPECT_EQ(pager.resident_bytes(1), 8 * kPage);
  // Accessing a released client is a harmless no-op.
  bool completed = false;
  pager.Access(0, [&completed](DurationUs) { completed = true; });
  EXPECT_TRUE(completed);
}

TEST(PagerDeathTest, PinnedClientMustFit) {
  Simulator sim;
  gpusim::Device device(&sim, SmallDevice(4));
  UnifiedMemoryPager pager(&sim, &device);
  EXPECT_DEATH(pager.RegisterClient(0, "big", 5 * kPage, /*pinned=*/true,
                                    /*dirty_on_touch=*/false),
               "does not fit");
}

// --- Harness memory admission (§5.1.3). ---

// Two big-batch training jobs that together exceed 16 GB. MPS keeps both
// jobs running freely; these cases target admission, not a policy.
harness::ExperimentConfig OversizedConfig(bool paging) {
  using workloads::MakeWorkload;
  using workloads::ModelId;
  using workloads::TaskType;
  harness::ExperimentConfig config;
  config.scheduler = harness::SchedulerKind::kMps;
  config.warmup_us = SecToUs(0.3);
  config.duration_us = SecToUs(6.0);
  harness::ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining, 48);
  hp.high_priority = true;
  harness::ClientConfig be;
  be.workload = MakeWorkload(ModelId::kResNet101, TaskType::kTraining, 48);
  config.clients = {hp, be};
  config.paging.enabled = paging;
  config.paging.pin_high_priority = true;
  return config;
}

TEST(SwappingTest, OversizedPairsAreDetected) {
  std::size_t state = 0;
  for (const harness::ClientConfig& client : OversizedConfig(false).clients) {
    state += workloads::ApproxModelStateBytes(client.workload);
  }
  ASSERT_GT(state, gpusim::DeviceSpec::V100_16GB().memory_bytes)
      << "test premise: the pair must exceed 16 GB";
}

TEST(SwappingDeathTest, RejectedWithoutASwapper) {
  EXPECT_DEATH((void)harness::RunExperiment(OversizedConfig(false)),
               "exceeds GPU memory.*enable config.paging");
}

TEST(SwappingTest, SwappingAbsorbsTheOverflow) {
  const harness::ExperimentResult result = harness::RunExperiment(OversizedConfig(true));
  EXPECT_TRUE(result.paging_active);
  EXPECT_GT(result.memory_deficit_bytes, std::size_t{0});
  EXPECT_GT(result.paging.faults, 0u);
  // Both jobs still make progress.
  for (const auto& client : result.clients) {
    EXPECT_GT(client.completed, 0u) << client.name;
  }
}

TEST(SwappingTest, SwappingCostsBestEffortThroughput) {
  // The paged job pays PCIe time each iteration; compare against the same
  // pair at a batch size that fits (no faults).
  harness::ExperimentConfig fits = OversizedConfig(true);
  for (harness::ClientConfig& client : fits.clients) {
    client.workload = workloads::MakeWorkload(client.workload.model, client.workload.task);
  }
  const harness::ExperimentResult small = harness::RunExperiment(fits);
  EXPECT_EQ(small.memory_deficit_bytes, 0u);
  EXPECT_EQ(small.paging.faults, 0u);
  const harness::ExperimentResult paged = harness::RunExperiment(OversizedConfig(true));
  // The iterations are not equal work, so only require the paged run to be
  // slower in iterations/s.
  double small_be = 0.0;
  double paged_be = 0.0;
  for (std::size_t c = 0; c < small.clients.size(); ++c) {
    if (!small.clients[c].high_priority) {
      small_be = small.clients[c].throughput_rps;
      paged_be = paged.clients[c].throughput_rps;
    }
  }
  EXPECT_GT(small_be, paged_be);
}

TEST(SwappingTest, FittingPairsNeverSwap) {
  harness::ExperimentConfig config;
  config.scheduler = harness::SchedulerKind::kOrion;
  config.warmup_us = SecToUs(0.3);
  config.duration_us = SecToUs(2.0);
  harness::ClientConfig hp;
  hp.workload =
      workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = harness::ClientConfig::Arrivals::kPoisson;
  hp.rps = 15.0;
  harness::ClientConfig be;
  be.workload =
      workloads::MakeWorkload(workloads::ModelId::kMobileNetV2, workloads::TaskType::kTraining);
  config.clients = {hp, be};
  const harness::ExperimentResult result = harness::RunExperiment(config);
  EXPECT_FALSE(result.paging_active);
  EXPECT_EQ(result.memory_deficit_bytes, 0u);
}

}  // namespace
}  // namespace memsub
}  // namespace orion
