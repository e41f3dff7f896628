#include "core/hierarchy.hpp"

#include <utility>

namespace flecc::core {

SyncAgent::SyncAgent(net::Fabric& fabric, net::Address self,
                     PrimaryAdapter& primary, props::PropertySet scope,
                     Config cfg)
    : fabric_(fabric),
      self_(self),
      primary_(primary),
      scope_(std::move(scope)),
      cfg_(cfg) {
  fabric_.bind(self_, *this);
}

SyncAgent::~SyncAgent() { fabric_.unbind(self_); }

void SyncAgent::start() {
  if (running_) return;
  running_ = true;
  // Daemon timer: periodic gossip must not keep run-to-quiescence alive.
  timer_ = fabric_.schedule_daemon(self_, cfg_.interval, [this] { tick(); });
}

void SyncAgent::stop() {
  running_ = false;
  fabric_.disarm(timer_);
}

void SyncAgent::tick() {
  timer_ = net::kInvalidTimerId;
  if (!running_) return;
  gossip_once();
  timer_ =
      fabric_.schedule_daemon(self_, cfg_.interval, [this] { tick(); });
}

void SyncAgent::gossip_once() {
  if (peers_.empty()) return;
  ++rounds_;
  stats_.inc("gossip.rounds");
  msg::HierSyncUpdate update;
  update.origin = cfg_.instance;
  update.seq = ++seq_;
  update.image = primary_.extract_from_object(scope_);
  const std::size_t k = std::min(cfg_.fanout, peers_.size());
  for (std::size_t i = 0; i < k; ++i) {
    const net::Address peer = peers_[next_peer_];
    next_peer_ = (next_peer_ + 1) % peers_.size();
    const auto bytes = msg::wire_size(update);
    fabric_.send(self_, peer, msg::kHierSyncUpdate, update, bytes);
    stats_.inc("gossip.sent");
  }
}

void SyncAgent::on_message(const net::Message& m) {
  if (m.type != msg::kHierSyncUpdate) {
    stats_.inc("msg.unknown");
    return;
  }
  const auto& update = net::payload_as<msg::HierSyncUpdate>(m);
  auto& seen = seen_[update.origin];
  if (update.seq <= seen) {
    ++ignored_stale_;
    stats_.inc("gossip.stale");
    return;
  }
  seen = update.seq;
  primary_.merge_into_object(update.image, scope_);
  ++applied_;
  stats_.inc("gossip.applied");
}

}  // namespace flecc::core
