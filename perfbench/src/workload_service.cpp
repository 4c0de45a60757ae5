// service_federated: each call runs one single-pool SortService and one
// 4-pool x 8-tenant PoolRouter over seeded open-loop traffic at virtual
// load 0.9, on 64-node path(4)^3 backends running SnakeOETS2.  One
// backend has a comparator-fault schedule, adaptive certification is on,
// and one router pool has an outage window.  It uses the machine-sort
// layer the opposite way to grid_shearsort: thousands of tiny sorts on
// one topology, where per-job set-up, schedule rebuilding and the two
// discrete-event loops dominate.

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "common.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "core/verify.hpp"
#include "graph/labeled_factor.hpp"
#include "hooks.hpp"
#include "inputs.hpp"
#include "service/router/pool_router.hpp"
#include "service/sort_service.hpp"

namespace perfbench {

namespace {

using namespace prodsort;

constexpr std::int64_t kServiceJobs = 1000;
constexpr std::int64_t kRouterJobs = 1000;
constexpr double kLoad = 0.9;
constexpr std::size_t kQueueCap = 16;
constexpr int kPools = 4;
constexpr int kBackendsPerPool = 2;
constexpr int kTenants = 8;

// Report hashes and latency tails of call 0 at kDefaultSeed.  The
// simulation is deterministic on its virtual clock, so these replay
// exactly; a change here is a behaviour change, not noise.
constexpr std::uint64_t kPinnedServiceHash = 14057983705627709190ull;
constexpr std::uint64_t kPinnedRouterHash = 16253450604989027616ull;
constexpr std::int64_t kPinnedServiceP99 = 639;
constexpr std::int64_t kPinnedRouterP99 = 647;

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(const WorkloadOptions& options)
      : seed_(options.seed) {}

  void setup() override {
    pg_ = std::make_unique<ProductGraph>(labeled_path(4), 3);
    ServiceConfig probe;
    probe.jobs = 0;
    mean_ = SortService(*pg_, probe, std::vector<BackendConfig>(1), &oet_)
                .mean_service_steps();
    const CallResult warm = run_call(kWarmupSeed, nullptr);
    if (!warm.error.empty())
      throw std::runtime_error("warm-up call failed: " + warm.error);
  }

  [[nodiscard]] int round_calls() const override { return 1; }

  CallResult call(std::int64_t index, Tracer* tracer) override {
    CallResult result = run_call(mix(seed_, static_cast<std::uint64_t>(index)), tracer);
    if (index == 0 && seed_ == kDefaultSeed && result.error.empty())
      result.error = check_pins();
    return result;
  }

  void layer_metrics(const Tracer& tracer, std::int64_t calls,
                     LayerReport& out) override {
    const auto totals = tracer.totals();
    const double n = static_cast<double>(calls);
    const SpanTotals service = totals_of(totals, "service.run");
    const SpanTotals router = totals_of(totals, "router.run");
    const SpanTotals s2 = totals_of(totals, "core.s2");
    auto& m = out.metrics;
    m["core.s2.ms"] = ns_to_ms(s2.total_ns / n);
    m["core.s2.phases"] = s2.count / n;
    m["service.run_ms"] = ns_to_ms(service.total_ns / n);
    m["router.run_ms"] = ns_to_ms(router.total_ns / n);
    m["service.s2_share"] = ratio(static_cast<double>(s2.total_ns),
                                  static_cast<double>(service.total_ns + router.total_ns));
    m["service.us_per_job"] =
        ratio((service.total_ns + router.total_ns) / 1e3,
              static_cast<double>(offered_));
    m["service.attempts"] = attempts_ / n;
    m["service.retries"] = retries_ / n;
    m["service.sdc_detected"] = sdc_detected_ / n;
    m["service.tmr_attempts"] = tmr_attempts_ / n;
    m["router.hedged"] = hedged_ / n;
    m["router.failovers"] = failovers_ / n;
    m["router.quarantine_attempts"] = quarantine_attempts_ / n;
    out.expect(s2.count == s2_calls_, "core.s2 span count != TimedS2 calls");
    out.expect(offered_ == (kServiceJobs + kRouterJobs) * calls,
               "offered jobs != configured jobs");

    // One SortBackend::run_attempt on the workload's job shape.
    SortBackend backend(*pg_, 0, BackendConfig{}, &oet_, nullptr, BreakerConfig{});
    std::vector<double> samples;
    for (int i = 0; i < 401; ++i) {
      JobSpec job;
      job.id = i;
      job.key_seed = mix(seed_, 0xA77E + static_cast<std::uint64_t>(i));
      job.pattern = i % 5;
      AttemptResult attempt;
      samples.push_back(static_cast<double>(
          time_ns([&] { attempt = backend.run_attempt(job, 1, 0); })));
      out.expect(attempt.success, "direct run_attempt failed");
    }
    m["service.attempt_us"] = median(std::move(samples)) / 1e3;
  }

  [[nodiscard]] std::string describe() const override {
    return "path(4)^3 SnakeOETS2 backends; per call: SortService (3 "
           "backends, " + std::to_string(kServiceJobs) +
           " jobs) + PoolRouter (4 pools x 2 backends, 8 tenants, " +
           std::to_string(kRouterJobs) +
           " jobs), load 0.9, one comparator-faulted backend, adaptive "
           "certification, one outage window; job keys are "
           "service_job_keys patterns 0-4";
  }

 private:
  /// Comparator-fault schedule for one backend: a permanently inverted
  /// comparator, which only the end-to-end certificate catches and the
  /// suspect ledger then routes around.
  [[nodiscard]] std::string comparator_fault(std::uint64_t seed) const {
    const auto nodes = static_cast<std::uint64_t>(pg_->num_nodes());
    char schedule[128];
    std::snprintf(schedule, sizeof schedule,
                  "seed=%" PRIu64 ",comparators=%llu@0I", mix(seed, 1),
                  static_cast<unsigned long long>(mix(seed, 2) % nodes));
    return schedule;
  }

  [[nodiscard]] AdaptiveCertServiceConfig adaptive() const {
    AdaptiveCertServiceConfig a;
    a.enabled = true;
    a.sdc_budget = 0.001;
    return a;
  }

  [[nodiscard]] ServiceConfig service_config(std::uint64_t seed) const {
    ServiceConfig c;
    c.seed = seed;
    c.jobs = kServiceJobs;
    c.load = kLoad;
    c.queue = {ShedPolicy::kEdf, kQueueCap};
    c.breaker = {.failure_threshold = 2, .cooldown = 2 * mean_};
    c.adaptive = adaptive();
    return c;
  }

  [[nodiscard]] RouterConfig router_config(std::uint64_t seed) const {
    RouterConfig c;
    c.seed = seed;
    c.jobs = kRouterJobs;
    c.load = kLoad;
    c.policy = ShedPolicy::kEdf;
    c.breaker = {.failure_threshold = 2, .cooldown = 2 * mean_};
    c.adaptive = adaptive();
    for (int t = 0; t < kTenants; ++t) {
      TenantSpec tenant;
      tenant.name = "tenant" + std::to_string(t);
      tenant.max_in_flight = 1;
      tenant.queue_cap = kQueueCap;
      c.tenants.push_back(tenant);
    }
    return c;
  }

  [[nodiscard]] std::vector<PoolSpec> pools(std::uint64_t seed) const {
    std::vector<PoolSpec> out(kPools);
    for (PoolSpec& p : out) p.backends.resize(kBackendsPerPool);
    out[0].backends[0].fault_schedule = comparator_fault(seed);
    // Pool 2 goes dark for the second fifth of the expected makespan.
    const std::int64_t makespan = static_cast<std::int64_t>(
        static_cast<double>(kRouterJobs * mean_) /
        (kLoad * kPools * kBackendsPerPool));
    out[2].domain_schedule = "seed=" + std::to_string(mix(seed, 3)) +
                             ",outages=" + std::to_string(makespan / 5) + "~" +
                             std::to_string(2 * makespan / 5);
    return out;
  }

  CallResult run_call(std::uint64_t seed, Tracer* tracer) {
    std::unique_ptr<TimedS2> timed;
    const S2Sorter* s2 = &oet_;
    if (tracer != nullptr) {
      timed = std::make_unique<TimedS2>(oet_, tracer);
      s2 = timed.get();
    }
    std::vector<BackendConfig> backends(3);
    backends[0].fault_schedule = comparator_fault(seed);
    const ServiceConfig sconfig = service_config(seed);
    const RouterConfig rconfig = router_config(seed);
    const std::vector<PoolSpec> pool_specs = pools(seed);

    CallResult result;
    result.call_ns = time_ns([&] {
      ScopedSpan span(tracer, "service.run");
      SortService service(*pg_, sconfig, backends, s2);
      service_report_ = service.run();
    });
    result.call_ns += time_ns([&] {
      ScopedSpan span(tracer, "router.run");
      PoolRouter router(*pg_, rconfig, pool_specs, s2);
      router_report_ = router.run();
    });

    const ServiceReport& sr = service_report_;
    const RouterReport& rr = router_report_;
    result.keys = (sr.offered + rr.offered) * pg_->num_nodes();
    result.error = check(sr.jobs, sr.conserved(), sr.verified_jobs,
                         sr.completed_on_time + sr.completed_late, "service");
    if (result.error.empty())
      result.error = check(rr.jobs, rr.conserved(), rr.verified_jobs,
                           rr.completed_on_time + rr.completed_late, "router");
    if (result.error.empty() &&
        sr.queue_high_water > static_cast<std::int64_t>(kQueueCap))
      result.error = "service queue exceeded its capacity";
    for (const TenantStats& t : rr.tenants)
      if (t.queue_high_water > static_cast<std::int64_t>(kQueueCap))
        result.error = "tenant queue exceeded its capacity";

    // std::sort on the same keys: every offered job's input, job by job,
    // timed as one batch so timer overhead does not swamp 64-key sorts.
    std::vector<std::vector<Key>> inputs;
    for (const std::vector<JobRecord>* jobs : {&sr.jobs, &rr.jobs})
      for (const JobRecord& job : *jobs)
        inputs.push_back(service_job_keys(pg_->num_nodes(), job.spec));
    result.std_ns = time_ns([&] {
      for (std::vector<Key>& keys : inputs) std::sort(keys.begin(), keys.end());
    });

    if (tracer != nullptr) {
      s2_calls_ += timed->calls();
      offered_ += sr.offered + rr.offered;
      retries_ += sr.retries + rr.retries;
      sdc_detected_ += sr.sdc_detected + rr.sdc_detected;
      hedged_ += rr.hedged_jobs;
      failovers_ += rr.failovers;
      for (const BackendHealth& b : sr.backends) {
        attempts_ += b.attempts;
        tmr_attempts_ += b.tmr_attempts;
      }
      for (const PoolHealth& p : rr.pools) {
        quarantine_attempts_ += p.quarantine_attempts;
        tmr_attempts_ += p.tmr_attempts;
        for (const BackendHealth& b : p.backends) attempts_ += b.attempts;
      }
    }
    return result;
  }

  /// Conservation, verification of every completion, and each served
  /// job's input checksum recomputed independently from its spec.
  [[nodiscard]] std::string check(const std::vector<JobRecord>& jobs,
                                  bool conserved, std::int64_t verified,
                                  std::int64_t completed,
                                  const std::string& who) const {
    if (!conserved) return who + " report not conserved";
    if (verified != completed) return who + ": a completed job is unverified";
    for (const JobRecord& job : jobs) {
      if (job.attempts == 0) continue;
      const std::vector<Key> keys = service_job_keys(pg_->num_nodes(), job.spec);
      if (multiset_checksum(keys) != job.checksum)
        return who + ": job " + std::to_string(job.spec.id) +
               " checksum != its input's";
    }
    return {};
  }

  [[nodiscard]] std::string check_pins() const {
    const ServiceReport& sr = service_report_;
    const RouterReport& rr = router_report_;
    std::printf("pins: service_hash=%" PRIu64 " router_hash=%" PRIu64
                " service_p99=%lld router_p99=%lld\n",
                sr.hash(), rr.hash(), static_cast<long long>(sr.latency.p99),
                static_cast<long long>(rr.latency.p99));
    if (sr.hash() != kPinnedServiceHash || rr.hash() != kPinnedRouterHash ||
        sr.latency.p99 != kPinnedServiceP99 || rr.latency.p99 != kPinnedRouterP99)
      return "SERVICE-REPRO hash or latency tail moved at the default seed";
    return {};
  }

  std::uint64_t seed_;
  std::unique_ptr<ProductGraph> pg_;
  SnakeOETS2 oet_;
  std::int64_t mean_ = 1;
  ServiceReport service_report_;
  RouterReport router_report_;
  std::int64_t s2_calls_ = 0;
  std::int64_t offered_ = 0;
  std::int64_t attempts_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t sdc_detected_ = 0;
  std::int64_t tmr_attempts_ = 0;
  std::int64_t hedged_ = 0;
  std::int64_t failovers_ = 0;
  std::int64_t quarantine_attempts_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_service_workload(const WorkloadOptions& options) {
  return std::make_unique<ServiceWorkload>(options);
}

}  // namespace perfbench
