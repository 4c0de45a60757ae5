#pragma once

// Timing hooks the traced run attaches through the library's own public
// seams, so no library source changes:
//
//  * TimedS2 is an S2Sorter that forwards to the real sorter and wraps
//    every sort_views call in a "core.s2" span.  SortOptions, SortService
//    and PoolRouter all accept it in place of the real sorter.
//  * CeObserver is a passive PhaseObserver: it wraps every
//    compare-exchange phase in a "network.ce" span and counts phases,
//    pairs and charged hops.  Passive observers leave Machine's own
//    validation setting untouched.
//  * LevelSpans reads sort_product_network's own phase trace
//    (SortOptions::trace) to wrap each merge level in a span.

#include <cstdint>
#include <string>
#include <vector>

#include "core/product_sort.hpp"
#include "core/s2/s2_sorter.hpp"
#include "network/phase_observer.hpp"
#include "trace.hpp"

namespace perfbench {

/// Wraps each level of one sort_product_network call in a span:
/// "core.initial_s2" for the initial S2 phase (records with hi == 2) and
/// "core.merge_level_k" for merge_level(1, k) (records with hi == k).
/// The driver appends a phase's record just before running it, and every
/// level starts with an S2 phase, so TimedS2 calls on_s2_phase() first
/// thing in each sort_views: when the newest record names another level,
/// the open level span closes and the next one opens.  A level span
/// therefore runs from its first phase to the next level's first phase
/// (or to finish()), and holds that level's S2 and compare-exchange spans.
class LevelSpans {
 public:
  LevelSpans(Tracer* tracer, const std::vector<prodsort::PhaseRecord>* records)
      : tracer_(tracer), records_(records) {}

  void on_s2_phase() {
    if (records_->empty() || records_->back().hi == level_) return;
    finish();
    level_ = records_->back().hi;
    open_ = tracer_->begin(level_ == 2 ? std::string("core.initial_s2")
                                       : "core.merge_level_" + std::to_string(level_));
  }
  /// Closes the open level span; call when the sort returns.
  void finish() {
    if (open_ >= 0) tracer_->end(open_);
    open_ = -1;
    level_ = -1;
  }

 private:
  Tracer* tracer_;
  const std::vector<prodsort::PhaseRecord>* records_;
  int level_ = -1;
  int open_ = -1;
};

class TimedS2 final : public prodsort::S2Sorter {
 public:
  /// `levels`, when set, is told of every S2 phase before its span opens.
  TimedS2(const prodsort::S2Sorter& inner, Tracer* tracer,
          LevelSpans* levels = nullptr)
      : inner_(inner), tracer_(tracer), levels_(levels) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] double phase_cost(
      const prodsort::LabeledFactor& factor) const override {
    return inner_.phase_cost(factor);
  }
  void sort_views(prodsort::Machine& machine,
                  std::span<const prodsort::ViewSpec> views,
                  const std::vector<bool>& descending) const override {
    if (levels_ != nullptr) levels_->on_s2_phase();
    ScopedSpan span(tracer_, "core.s2");
    ++calls_;
    inner_.sort_views(machine, views, descending);
  }

  /// sort_views calls so far (one per S2 phase).
  [[nodiscard]] std::int64_t calls() const { return calls_; }

 private:
  const prodsort::S2Sorter& inner_;
  Tracer* tracer_;
  LevelSpans* levels_;
  mutable std::int64_t calls_ = 0;
};

class CeObserver final : public prodsort::PhaseObserver {
 public:
  explicit CeObserver(Tracer* tracer) : tracer_(tracer) {}

  void before_phase(std::span<const prodsort::Key> /*keys*/,
                    std::span<const prodsort::CEPair> pairs, int hop_distance,
                    int /*block_size*/, bool /*faulty*/) override {
    open_ = tracer_ != nullptr ? tracer_->begin("network.ce") : -1;
    ++phases_;
    pairs_ += static_cast<std::int64_t>(pairs.size());
    hops_ += hop_distance;
  }
  void after_phase(std::span<const prodsort::Key> /*keys*/) override {
    if (tracer_ != nullptr) tracer_->end(open_);
  }

  [[nodiscard]] std::int64_t phases() const { return phases_; }
  [[nodiscard]] std::int64_t pairs() const { return pairs_; }
  [[nodiscard]] std::int64_t hops() const { return hops_; }

 private:
  Tracer* tracer_;
  int open_ = -1;
  std::int64_t phases_ = 0;
  std::int64_t pairs_ = 0;
  std::int64_t hops_ = 0;
};

}  // namespace perfbench
