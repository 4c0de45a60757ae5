// stream_sort: StreamingSorter over 4x10^5 keys in 40 batches, with a
// nonzero crash_rate so runs are re-dispatched from retained slices —
// the streaming sample-sort layer (splitters, block-mode run sorts,
// host k-way merge, retry machinery) end to end.
//
// The timed calls run without the write-ahead journal.  The benchmark
// may write only inside its checkout, so a journal would sit on the
// checkout's disk, where each of the ~100 fsyncs per stream costs
// 0.4 ms at the median and several ms at p90 on a shared host: the
// journaled call time is dominated by disk latency and spreads by ~30%
// between identical runs.  The traced run therefore measures the same
// streams journaled (durability.*), checks that each is STREAM-FP
// identical to its plain twin, and measures recovery after a kill.

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common.hpp"
#include "core/block_sort.hpp"
#include "core/hashing.hpp"
#include "core/host_merge.hpp"
#include "core/splitters.hpp"
#include "durability/journal.hpp"
#include "graph/labeled_factor.hpp"
#include "inputs.hpp"
#include "network/block_machine.hpp"
#include "service/service_types.hpp"
#include "stream/recovery.hpp"
#include "stream/streaming_sorter.hpp"

namespace perfbench {

namespace {

using namespace prodsort;
namespace fs = std::filesystem;

constexpr int kCycle = 4;
constexpr int kDims = 3;  // cycle(4)^3: 64 nodes
constexpr int kBatches = 40;
constexpr std::int64_t kBatchKeys = 10000;
constexpr int kBlock = 64;  // run_keys = 64 nodes x 64 = 4096 keys

// STREAM-FP identity of call 0 at kDefaultSeed: emitted keys,
// certificate chain, ingest and sealed multiset checksums.
constexpr std::int64_t kPinnedKeys = kBatches * kBatchKeys;
constexpr std::uint64_t kPinnedChain = 7246396190228240355ull;
constexpr std::uint64_t kPinnedIngest = 1864145472590072669ull;
constexpr std::uint64_t kPinnedSealed = 1864145472590072669ull;

struct StreamFp {
  std::int64_t keys = 0;
  std::uint64_t chain = 0;
  std::uint64_t ingest = 0;
  std::uint64_t sealed = 0;
  friend bool operator==(const StreamFp&, const StreamFp&) = default;
};

StreamFp fingerprint(const StreamReport& r) {
  return {r.keys_emitted, r.chain_hash, r.ingest_fp.checksum,
          r.sealed_fp.checksum};
}

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(const WorkloadOptions& options)
      : seed_(options.seed), root_(options.scratch_dir) {}

  void setup() override {
    pg_ = std::make_unique<ProductGraph>(labeled_cycle(kCycle), kDims);
    const CallResult warm = run_call(config(kWarmupSeed), nullptr);
    if (!warm.error.empty())
      throw std::runtime_error("warm-up call failed: " + warm.error);
  }

  [[nodiscard]] int round_calls() const override { return 1; }

  CallResult call(std::int64_t index, Tracer* tracer) override {
    CallResult result =
        run_call(config(mix(seed_, static_cast<std::uint64_t>(index))), tracer);
    if (index == 0 && seed_ == kDefaultSeed && result.error.empty()) {
      const StreamFp fp = fingerprint(report_);
      std::printf("pins: STREAM-FP keys=%lld chain=%" PRIu64 " ingest=%" PRIu64
                  " sealed=%" PRIu64 "\n",
                  static_cast<long long>(fp.keys), fp.chain, fp.ingest, fp.sealed);
      if (!(fp == StreamFp{kPinnedKeys, kPinnedChain, kPinnedIngest, kPinnedSealed}))
        result.error = "STREAM-FP identity moved at the default seed";
    }
    if (tracer != nullptr && result.error.empty()) {
      runs_ += report_.runs;
      run_attempts_ += report_.run_attempts;
      retries_ += report_.retries;
      high_water_ = std::max(high_water_, report_.high_water_bytes);
      plain_ns_.push_back(static_cast<double>(result.call_ns));
    }
    return result;
  }

  void layer_metrics(const Tracer& /*tracer*/, std::int64_t calls,
                     LayerReport& out) override {
    const double n = static_cast<double>(calls);
    auto& m = out.metrics;
    m["stream.plain_ms"] = ns_to_ms(median(plain_ns_));
    m["stream.runs"] = runs_ / n;
    m["stream.run_attempts"] = run_attempts_ / n;
    m["stream.retries"] = retries_ / n;
    m["stream.high_water_bytes"] = static_cast<double>(high_water_);
    measure_journaled(m, out);
    measure_core_layers(m, out);
    measure_append(m, out);
    measure_recovery(m, out);
  }

  [[nodiscard]] std::string describe() const override {
    return "StreamingSorter on cycle(4)^3, " + std::to_string(kBatches) +
           " batches x " + std::to_string(kBatchKeys) +
           " keys (service_job_keys pattern 0), 8 ranges, block 64, "
           "crash_rate 0.05; the traced run adds the same streams journaled "
           "under " + root_;
  }

 private:
  /// The stream configuration; a non-empty `journal` names the journal
  /// directory under the scratch root.
  [[nodiscard]] StreamConfig config(std::uint64_t seed,
                                    const std::string& journal = "") const {
    StreamConfig c;
    c.seed = seed;
    c.batches = kBatches;
    c.batch_keys = kBatchKeys;
    c.ranges = 8;
    c.sample_keys = 256;
    c.block = kBlock;
    c.budget_bytes = 8 * kBatchKeys * 8;
    c.backends = 4;
    c.domains = 2;
    c.crash_rate = 0.05;
    if (!journal.empty()) c.journal_dir = (fs::path(root_) / journal).string();
    return c;
  }

  /// Every batch's keys, regenerated from the seed the way the stream
  /// derives them (service_job_keys of (mix64(seed, batch), pattern)).
  [[nodiscard]] static std::vector<Key> stream_input(const StreamConfig& cfg) {
    std::vector<Key> all;
    for (int b = 0; b < cfg.batches; ++b) {
      JobSpec spec;
      spec.key_seed = mix64(cfg.seed, static_cast<std::uint64_t>(b));
      spec.pattern = cfg.pattern;
      const std::vector<Key> keys = service_job_keys(cfg.batch_keys, spec);
      all.insert(all.end(), keys.begin(), keys.end());
    }
    return all;
  }

  CallResult run_call(const StreamConfig& cfg, Tracer* tracer) {
    CallResult result;
    std::vector<Key> expected = stream_input(cfg);
    result.keys = static_cast<std::int64_t>(expected.size());
    result.std_ns = time_ns([&] { std::sort(expected.begin(), expected.end()); });
    if (!cfg.journal_dir.empty()) fs::create_directories(root_);
    std::unique_ptr<StreamingSorter> sorter;
    result.call_ns = time_ns([&] {
      ScopedSpan span(tracer, "stream.run");
      sorter = std::make_unique<StreamingSorter>(*pg_, cfg);
      report_ = sorter->run();
    });
    const StreamReport& r = report_;
    if (!r.complete) result.error = "stream did not complete";
    else if (!r.conserved()) result.error = "stream not conserved";
    else if (r.high_water_bytes > r.budget_bytes) result.error = "high water above budget";
    else if (r.spill_reconcile_failures != 0) result.error = "spill ledger did not reconcile";
    else if (sorter->emitted() != expected) result.error = "emitted != std::sort of the input";
    sorter.reset();
    if (!cfg.journal_dir.empty()) {
      const JournalReplay replay =
          replay_journal((fs::path(cfg.journal_dir) / "wal.log").string());
      if (replay.torn_tail || replay.records.empty())
        result.error = "journal left on disk does not replay cleanly";
      fs::remove_all(cfg.journal_dir);
    }
    return result;
  }

  /// The same streams with the write-ahead journal and spill files on:
  /// what durability costs, and its counters.  Each journaled stream must
  /// be STREAM-FP identical to the plain stream of the same seed.
  void measure_journaled(std::map<std::string, double>& m, LayerReport& out) {
    constexpr int kStreams = 5;
    std::vector<double> plain;
    std::vector<double> journaled;
    StreamReport totals;
    for (int i = 0; i < kStreams; ++i) {
      const std::uint64_t seed = mix(seed_, 0x10A1 + static_cast<std::uint64_t>(i));
      const CallResult p = run_call(config(seed), nullptr);
      const StreamFp plain_fp = fingerprint(report_);
      const CallResult j = run_call(config(seed, "journal"), nullptr);
      out.expect(p.error.empty() && j.error.empty(),
                 "journaled pass: " + p.error + j.error);
      out.expect(fingerprint(report_) == plain_fp,
                 "journaled stream is not STREAM-FP identical to the plain one");
      plain.push_back(static_cast<double>(p.call_ns));
      journaled.push_back(static_cast<double>(j.call_ns));
      totals.journal_records += report_.journal_records;
      totals.journal_syncs += report_.journal_syncs;
      totals.journal_bytes += report_.journal_bytes;
      totals.spill_files += report_.spill_files;
      totals.ranges_sealed += report_.ranges_sealed;
    }
    m["durability.journal_overhead_x"] = ratio(median(journaled), median(plain));
    m["durability.journal_records"] = totals.journal_records / double{kStreams};
    m["durability.journal_syncs"] = totals.journal_syncs / double{kStreams};
    m["durability.syncs_per_range"] =
        ratio(static_cast<double>(totals.journal_syncs),
              static_cast<double>(totals.ranges_sealed));
    m["durability.journal_bytes"] = totals.journal_bytes / double{kStreams};
    m["durability.spill_files"] = totals.spill_files / double{kStreams};
  }

  /// Direct calls into the core layers the stream composes, on the
  /// stream's own key shapes: scatter, one block-mode run sort, and the
  /// egress k-way merge.
  void measure_core_layers(std::map<std::string, double>& m, LayerReport& out) {
    const StreamConfig cfg = config(seed_);
    const std::vector<Key> input = stream_input(cfg);
    const std::span<const Key> first(input.data(), static_cast<std::size_t>(kBatchKeys));
    const std::vector<Key> splitters = pick_splitters(
        sample_prefix(first, cfg.sample_keys, seed_), cfg.ranges);
    std::vector<std::vector<Key>> ranges;
    m["core.splitters.scatter_ms"] =
        ns_to_ms(median_ns(5, [&] { ranges = scatter_keys(input, splitters); }));
    std::size_t scattered = 0;
    for (const std::vector<Key>& r : ranges) scattered += r.size();
    out.expect(scattered == input.size(), "scatter lost or forged keys");

    const std::size_t run_keys = static_cast<std::size_t>(pg_->num_nodes()) * kBlock;
    std::vector<double> samples;
    std::vector<std::vector<Key>> runs;
    const BlockSnakeOETS2 block_s2;
    for (std::size_t off = 0; off + run_keys <= input.size() && runs.size() < 32;
         off += run_keys) {
      BlockMachine machine(
          *pg_, std::vector<Key>(input.begin() + static_cast<std::ptrdiff_t>(off),
                                 input.begin() + static_cast<std::ptrdiff_t>(off + run_keys)),
          kBlock);
      BlockSortOptions options;
      options.s2 = &block_s2;
      samples.push_back(static_cast<double>(
          time_ns([&] { (void)sort_block_network(machine, options); })));
      std::vector<Key> run = machine.read_snake(full_view(*pg_));
      out.expect(std::is_sorted(run.begin(), run.end()), "block sort output unsorted");
      runs.push_back(std::move(run));
    }
    m["core.block_sort.run_us"] = median(samples) / 1e3;

    HostMergeStats stats;
    std::vector<Key> merged;
    m["core.host_merge.ms"] = ns_to_ms(median_ns(5, [&] {
      stats = HostMergeStats{};
      merged = measured_multiway_merge(runs, stats);
    }));
    out.expect(std::is_sorted(merged.begin(), merged.end()) &&
                   merged.size() == runs.size() * run_keys,
               "host merge output wrong");
  }

  /// One JournalWriter::append, fsync included.
  void measure_append(std::map<std::string, double>& m, LayerReport& out) {
    const std::string dir = (fs::path(root_) / "append").string();
    fs::create_directories(dir);
    const std::string path = dir + "/wal.log";
    constexpr int kAppends = 301;
    {
      JournalWriter writer(path, nullptr);
      const std::string payload(64, 'p');
      m["durability.append_us"] = median_ns(kAppends, [&] {
        (void)writer.append(RecordType::kBatchIngested, payload);
      }) / 1e3;
      out.expect(writer.records_committed() == kAppends,
                 "JournalWriter committed != appends issued");
      out.expect(writer.syncs() >= kAppends, "JournalWriter syncs < appends");
    }
    const JournalReplay replay = replay_journal(path);
    out.expect(static_cast<int>(replay.records.size()) == kAppends && !replay.torn_tail,
               "journal replay != records appended");
    fs::remove_all(dir);
  }

  /// recover_stream after a mid-stream kill; the recovered stream must
  /// be STREAM-FP identical to an uninterrupted one.
  void measure_recovery(std::map<std::string, double>& m, LayerReport& out) {
    StreamConfig cfg = config(mix(seed_, 0xC0FFEE), "recover");
    const CallResult whole = run_call(cfg, nullptr);
    out.expect(whole.error.empty(), "uninterrupted stream: " + whole.error);
    const StreamFp expected = fingerprint(report_);
    cfg.kill_after_records = std::max<std::int64_t>(1, report_.journal_records / 2);
    bool killed = false;
    try {
      StreamingSorter sorter(*pg_, cfg);
      (void)sorter.run();
    } catch (const DurabilityKill&) {
      killed = true;
    }
    out.expect(killed, "kill_after_records did not stop the stream");
    StreamRecoveryResult recovered;
    m["durability.recover_ms"] = ns_to_ms(static_cast<double>(
        time_ns([&] { recovered = recover_stream(cfg.journal_dir, nullptr); })));
    out.expect(fingerprint(recovered.report) == expected,
               "recovered stream is not STREAM-FP identical");
    out.expect(std::is_sorted(recovered.emitted.begin(), recovered.emitted.end()),
               "recovered emission unsorted");
    fs::remove_all(cfg.journal_dir);
  }

  std::uint64_t seed_;
  std::string root_;
  std::unique_ptr<ProductGraph> pg_;
  StreamReport report_;
  // Totals over the traced (plain) calls.
  std::int64_t runs_ = 0;
  std::int64_t run_attempts_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t high_water_ = 0;
  std::vector<double> plain_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_workload(const WorkloadOptions& options) {
  return std::make_unique<StreamWorkload>(options);
}

}  // namespace perfbench
