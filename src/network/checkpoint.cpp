#include "network/checkpoint.hpp"

#include <algorithm>
#include <stdexcept>

#include "product/snake_order.hpp"

namespace prodsort {

CheckpointManager::CheckpointManager(CheckpointConfig config)
    : config_(config) {
  if (config_.interval < 0)
    throw std::invalid_argument("checkpoint interval must be >= 0");
}

CheckpointManager::~CheckpointManager() { detach(); }

void CheckpointManager::attach(Machine& machine) {
  if (machine_ != nullptr || block_ != nullptr)
    throw std::logic_error("CheckpointManager already attached");
  machine_ = &machine;
  next_ = machine.observer();
  machine.set_observer(this);
  crashed_.assign(static_cast<std::size_t>(machine.graph().num_nodes()), 0);
  generation_ = 0;
  phases_ = 0;
  if (config_.snapshot_on_attach) snapshot_now();
}

void CheckpointManager::attach(BlockMachine& machine) {
  if (machine_ != nullptr || block_ != nullptr)
    throw std::logic_error("CheckpointManager already attached");
  block_ = &machine;
  next_ = machine.observer();
  machine.set_observer(this);
  crashed_.assign(static_cast<std::size_t>(machine.graph().num_nodes()), 0);
  generation_ = 0;
  phases_ = 0;
  if (config_.snapshot_on_attach) snapshot_now();
}

void CheckpointManager::detach() {
  if (machine_ != nullptr && machine_->observer() == this)
    machine_->set_observer(next_);
  if (block_ != nullptr && block_->observer() == this)
    block_->set_observer(next_);
  machine_ = nullptr;
  block_ = nullptr;
  next_ = nullptr;
}

void CheckpointManager::before_phase(std::span<const Key> keys,
                                     std::span<const CEPair> pairs,
                                     int hop_distance, int block_size,
                                     bool faulty) {
  if (next_ != nullptr)
    next_->before_phase(keys, pairs, hop_distance, block_size, faulty);
}

void CheckpointManager::after_phase(std::span<const Key> keys) {
  if (next_ != nullptr) next_->after_phase(keys);
  ++phases_;
  if (config_.interval <= 0 || phases_ < config_.interval) return;
  // Snapshots must describe a full-topology state; while a node is dead
  // the phase counter keeps running and the snapshot happens on the
  // first boundary after every node is live again.
  if (machine_ != nullptr && machine_->fault_model() != nullptr &&
      machine_->fault_model()->has_dead_nodes())
    return;
  take_snapshot(keys);
}

void CheckpointManager::after_phases(std::span<const Key> keys,
                                     std::int64_t phases) {
  // after_phase's count, `phases` times over: the first snapshot is due
  // once the counter reaches the interval (at the first phase if it
  // already has), then one every `interval` phases.  Only machines with
  // no fault model issue this, so no node is ever dead here.
  const std::int64_t interval = config_.interval;
  const std::int64_t first = std::max<std::int64_t>(1, interval - phases_);
  if (interval <= 0 || phases < first) {
    phases_ += phases;
    return;
  }
  const std::int64_t rest = phases - first;
  take_snapshot(keys, 1 + rest / interval);
  phases_ = rest % interval;
}

void CheckpointManager::snapshot_now() {
  if (machine_ == nullptr && block_ == nullptr)
    throw std::logic_error("CheckpointManager: nothing attached");
  if (machine_ != nullptr) {
    if (machine_->fault_model() != nullptr &&
        machine_->fault_model()->has_dead_nodes())
      throw std::logic_error(
          "CheckpointManager: cannot snapshot while nodes are dead");
    take_snapshot(machine_->keys());
  } else {
    take_snapshot(block_->keys());
  }
}

void CheckpointManager::take_snapshot(std::span<const Key> keys,
                                      std::int64_t count) {
  snapshot_.assign(keys.begin(), keys.end());
  generation_ += count;
  phases_ = 0;
  std::fill(crashed_.begin(), crashed_.end(), 0);
  // One parallel phase writes every shadow copy to a Gray-code
  // neighbor: dilation-bounded exchange per node.
  CostModel& cost = machine_ != nullptr ? machine_->cost() : block_->cost();
  const int dilation = machine_ != nullptr
                           ? machine_->graph().factor().dilation
                           : block_->graph().factor().dilation;
  cost.checkpoints += count;
  cost.checkpoint_steps += dilation * count;
  cost.exec_steps += dilation * count;
}

void CheckpointManager::note_crash(PNode node) {
  if (node < 0 || static_cast<std::size_t>(node) >= crashed_.size())
    throw std::invalid_argument("note_crash: node outside attached machine");
  crashed_[static_cast<std::size_t>(node)] = 1;
}

PNode CheckpointManager::shadow_holder(PNode node) const {
  const ProductGraph& pg =
      machine_ != nullptr ? machine_->graph() : block_->graph();
  const PNode size = pg.num_nodes();
  if (size == 1) return node;  // nowhere else to replicate
  const PNode rank = snake_rank(pg, node);
  return node_at_snake_rank(pg, rank + 1 < size ? rank + 1 : rank - 1);
}

bool CheckpointManager::entry_valid(PNode node) const {
  if (crashed_[static_cast<std::size_t>(node)] != 0) return false;
  const FaultModel* fm =
      machine_ != nullptr ? machine_->fault_model() : nullptr;
  return fm == nullptr || !fm->is_dead(node);
}

CheckpointManager::RestoreResult CheckpointManager::restore() {
  if (!has_checkpoint())
    throw std::logic_error("CheckpointManager: no snapshot to restore");
  RestoreResult result;

  if (block_ != nullptr) {
    // AUDITOR-EXEMPT(rollback restore: rewrites the snapshot outside the
    // audited merge-split path by design).
    std::span<Key> keys = block_->mutable_keys();
    std::copy(snapshot_.begin(), snapshot_.end(), keys.begin());
    CostModel& cost = block_->cost();
    const int dilation = block_->graph().factor().dilation;
    cost.exec_steps += dilation;
    cost.recovery_steps += dilation;
    return result;
  }

  const FaultModel* fm = machine_->fault_model();
  // AUDITOR-EXEMPT(rollback restore: rewrites the snapshot outside the
  // audited compare-exchange path by design).
  std::span<Key> keys = machine_->mutable_keys();
  for (PNode v = 0; v < static_cast<PNode>(snapshot_.size()); ++v) {
    if (!entry_valid(v)) {
      const PNode holder = shadow_holder(v);
      if (holder == v || !entry_valid(holder)) {
        result.lost.push_back(v);
        continue;
      }
      result.from_shadow.push_back(v);
    }
    const Key value = snapshot_[static_cast<std::size_t>(v)];
    if (fm != nullptr && fm->is_dead(v)) {
      // Dead memories cannot take the write-back; the entry becomes an
      // orphan the controller merges at read-out.
      result.orphans.emplace_back(v, value);
      continue;
    }
    keys[static_cast<std::size_t>(v)] = value;
  }

  // One parallel shadow-fetch phase, dilation-bounded like the write.
  CostModel& cost = machine_->cost();
  const int dilation = machine_->graph().factor().dilation;
  cost.exec_steps += dilation;
  cost.recovery_steps += dilation;
  return result;
}

}  // namespace prodsort
