#include "churn/churn_driver.hpp"

#include "obs/trace.hpp"

namespace ppo::churn {

namespace {
constexpr std::uint8_t kTransition = 0;  // a = epoch, b = was_online
}  // namespace

ChurnDriver::ChurnDriver(sim::ShardedSimulator& sim, std::size_t num_nodes,
                         const ChurnModel& model, Rng rng)
    : ChurnDriver(sim, std::vector<const ChurnModel*>(num_nodes, &model),
                  rng) {}

ChurnDriver::ChurnDriver(sim::ShardedSimulator& sim,
                         std::vector<const ChurnModel*> models, Rng rng)
    : sim_(sim),
      handler_(sim.add_handler(*this)),
      num_nodes_(models.size()),
      models_(std::move(models)),
      online_(num_nodes_, false),
      failed_(num_nodes_, 0),
      epoch_(num_nodes_, 0) {
  for (const ChurnModel* model : models_)
    PPO_CHECK_MSG(model != nullptr, "null churn model");
  node_rngs_.reserve(num_nodes_);
  for (std::size_t v = 0; v < num_nodes_; ++v)
    node_rngs_.push_back(rng.split());
}

void ChurnDriver::start(ChurnCallbacks callbacks, bool fire_initial) {
  PPO_CHECK_MSG(!started_, "churn driver already started");
  started_ = true;
  callbacks_ = std::move(callbacks);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const bool starts_online =
        node_rngs_[v].bernoulli(models_[v]->availability());
    online_.set(v, starts_online);
    if (starts_online && fire_initial && callbacks_.on_online)
      callbacks_.on_online(v);
    schedule_transition(v);
  }
}

void ChurnDriver::resume(ChurnCallbacks callbacks) {
  PPO_CHECK_MSG(!started_, "churn driver already started");
  started_ = true;
  callbacks_ = std::move(callbacks);
}

void ChurnDriver::fire(const sim::Event& event) {
  const NodeId v = event.target;
  if (epoch_[v] != event.a || failed_[v]) return;  // stale: failed since
  if (event.b != 0)
    go_offline(v);
  else
    go_online(v);
  schedule_transition(v);
}

bool ChurnDriver::accepts(const sim::Event& event) const {
  return event.kind == kTransition && event.b <= 1 && event.payload.empty();
}

void ChurnDriver::schedule_transition(NodeId v) {
  if (failed_[v]) return;
  const bool currently_online = online_.contains(v);
  // Exponential durations are memoryless, so drawing a fresh duration
  // for the initial residual state is exact; for other models it is a
  // standard approximation that converges after the first transition.
  Rng& rng = node_rngs_[v];
  const double dwell = currently_online
                           ? models_[v]->next_online_duration(rng)
                           : models_[v]->next_offline_duration(rng);
  sim_.schedule_for(v, dwell, handler_, kTransition, epoch_[v],
                    currently_online ? 1 : 0);
}

void ChurnDriver::go_online(NodeId v) {
  online_.set(v, true);
  PPO_TRACE_EVENT(ppo::obs::TraceCategory::kChurn, "online", v);
  if (callbacks_.on_online) callbacks_.on_online(v);
}

void ChurnDriver::go_offline(NodeId v) {
  online_.set(v, false);
  PPO_TRACE_EVENT(ppo::obs::TraceCategory::kChurn, "offline", v);
  if (callbacks_.on_offline) callbacks_.on_offline(v);
}

void ChurnDriver::fail_permanently(NodeId v) {
  PPO_CHECK_MSG(v < num_nodes_, "node out of range");
  ++epoch_[v];  // invalidate any pending transition
  failed_[v] = 1;
  if (online_.contains(v)) go_offline(v);
}

void ChurnDriver::save_state(ckpt::Writer& w) const {
  w.tag(0x4348524Eu);  // 'CHRN'
  w.size(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    w.rng(node_rngs_[v]);
    w.b(online_.contains(v));
    w.b(failed_[v] != 0);
    w.u64(epoch_[v]);
  }
}

void ChurnDriver::load_state(ckpt::Reader& r) {
  r.tag(0x4348524Eu);
  const std::size_t n = r.size();
  if (n != num_nodes_)
    throw ckpt::ParseError("churn node count mismatch");
  for (NodeId v = 0; v < num_nodes_; ++v) {
    node_rngs_[v] = r.rng();
    online_.set(v, r.b());
    failed_[v] = r.b() ? 1 : 0;
    epoch_[v] = r.u64();
  }
}

void ChurnDriver::revive(NodeId v) {
  PPO_CHECK_MSG(v < num_nodes_, "node out of range");
  PPO_CHECK_MSG(failed_[v], "revive() is only for failed nodes");
  failed_[v] = 0;
  ++epoch_[v];
  go_online(v);
  schedule_transition(v);
}

}  // namespace ppo::churn
