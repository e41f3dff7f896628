#include "baselines/peer_to_peer.hpp"

#include <utility>

#include "core/messages.hpp"

namespace flecc::baselines {

namespace {
constexpr std::size_t kHdr = core::msg::kHeaderBytes;

std::size_t reply_bytes(const p2p_msg::SyncReply& r) {
  std::size_t bytes = kHdr;
  for (const auto& e : r.entries) bytes += e.wire_size();
  return bytes;
}
}  // namespace

Peer::Peer(net::Fabric& fabric, net::Address self, PeerAdapter& adapter,
           Config cfg)
    : fabric_(fabric), self_(self), adapter_(adapter), cfg_(std::move(cfg)) {
  fabric_.bind(self_, *this);
}

Peer::~Peer() { fabric_.unbind(self_); }

void Peer::add_peer(net::Address addr, props::PropertySet properties) {
  PeerInfo info;
  info.addr = addr;
  info.conflicting = cfg_.properties.conflicts_with(properties);
  info.properties = std::move(properties);
  peer_index_[addr] = peers_.size();
  peers_.push_back(std::move(info));
}

std::size_t Peer::conflicting_peer_count() const {
  std::size_t n = 0;
  for (const auto& p : peers_) {
    if (p.conflicting) ++n;
  }
  return n;
}

void Peer::do_operation(WorkFn work, Done done) {
  ops_.emplace_back(std::move(work), std::move(done));
  pump_ops();
}

void Peer::pump_ops() {
  if (inflight_.has_value() || ops_.empty()) return;
  auto [work, done] = std::move(ops_.front());
  ops_.pop_front();

  PendingSync ps;
  ps.token = next_token_++;
  ps.work = std::move(work);
  ps.done = std::move(done);

  // Anti-entropy round: ask every conflicting peer for what we missed.
  for (const auto& peer : peers_) {
    if (!peer.conflicting) continue;
    ++ps.outstanding;
    p2p_msg::SyncReq req{ps.token, peer.seen};
    fabric_.send(self_, peer.addr, p2p_msg::kSyncReq, req, kHdr);
    stats_.inc("sync.req_sent");
  }

  if (ps.outstanding == 0) {
    finish_sync(ps);
    return;
  }
  const auto token = ps.token;
  ps.timeout =
      fabric_.schedule(self_, cfg_.sync_timeout, [this, token] {
        if (!inflight_.has_value() || inflight_->token != token) return;
        stats_.inc("sync.timeout");
        PendingSync ps2 = std::move(*inflight_);
        inflight_.reset();
        finish_sync(ps2);
      });
  inflight_ = std::move(ps);
}

void Peer::finish_sync(PendingSync& ps) {
  fabric_.disarm(ps.timeout);
  if (ps.work) ps.work();
  // Publish this operation's update for the other peers.
  core::ObjectImage delta = adapter_.extract_update();
  if (!delta.empty()) {
    log_.push_back(std::move(delta));
    stats_.inc("log.appended");
  }
  if (ps.done) ps.done();
  pump_ops();
}

void Peer::on_message(const net::Message& m) {
  if (m.type == p2p_msg::kSyncReq) {
    const auto& req = net::payload_as<p2p_msg::SyncReq>(m);
    p2p_msg::SyncReply reply;
    reply.token = req.token;
    for (std::size_t i = req.seen; i < log_.size(); ++i) {
      reply.entries.push_back(log_[i]);
    }
    reply.new_seen = log_.size();
    const auto bytes = reply_bytes(reply);
    fabric_.send(self_, m.from, p2p_msg::kSyncReply, std::move(reply),
                 bytes);
    stats_.inc("sync.req_served");
    return;
  }
  if (m.type == p2p_msg::kSyncReply) {
    const auto& reply = net::payload_as<p2p_msg::SyncReply>(m);
    if (!inflight_.has_value() || inflight_->token != reply.token) {
      stats_.inc("sync.late_reply");
      return;
    }
    auto it = peer_index_.find(m.from);
    if (it != peer_index_.end()) {
      PeerInfo& peer = peers_[it->second];
      for (const auto& entry : reply.entries) {
        adapter_.apply_update(entry);
        stats_.inc("sync.entries_applied");
      }
      peer.seen = reply.new_seen;
    }
    if (--inflight_->outstanding == 0) {
      PendingSync ps = std::move(*inflight_);
      inflight_.reset();
      finish_sync(ps);
    }
    return;
  }
  stats_.inc("msg.unknown");
}

}  // namespace flecc::baselines
