#include "baselines/multicast.hpp"

#include <utility>

#include "core/messages.hpp"

namespace flecc::baselines {

namespace {
constexpr std::size_t kHdr = core::msg::kHeaderBytes;
}

// ---- directory --------------------------------------------------------------

MulticastDirectory::MulticastDirectory(net::Fabric& fabric, net::Address self,
                                       core::PrimaryAdapter& primary,
                                       Config cfg)
    : fabric_(fabric), self_(self), primary_(primary), cfg_(cfg) {
  fabric_.bind(self_, *this);
}

MulticastDirectory::~MulticastDirectory() { fabric_.unbind(self_); }

void MulticastDirectory::on_message(const net::Message& m) {
  if (m.type == mc_msg::kRegisterReq) {
    const auto& req = net::payload_as<mc_msg::RegisterReq>(m);
    stats_.inc("op.register");
    AgentRecord rec{next_id_++, m.from, req.properties};
    const auto id = rec.id;
    agents_.emplace(id, std::move(rec));
    mc_msg::RegisterAck ack{id};
    fabric_.send(self_, m.from, mc_msg::kRegisterAck, ack, kHdr);
    return;
  }
  if (m.type == mc_msg::kSyncReq) {
    const auto& req = net::payload_as<mc_msg::SyncReq>(m);
    stats_.inc("op.sync");
    auto it = agents_.find(req.agent);
    if (it == agents_.end()) return;

    PendingSync ps;
    ps.token = next_token_++;
    ps.requester = req.agent;
    // Application-oblivious: ask EVERY other agent for updates.
    for (const auto& [id, rec] : agents_) {
      if (id == req.agent) continue;
      ps.outstanding.insert(id);
      mc_msg::UpdateReq ureq{ps.token};
      fabric_.send(self_, rec.addr, mc_msg::kUpdateReq, ureq, kHdr);
      stats_.inc("op.update_req");
    }
    if (ps.outstanding.empty()) {
      finish_sync(ps);
      return;
    }
    const auto token = ps.token;
    ps.timeout = fabric_.schedule(self_, cfg_.update_timeout, [this, token] {
      auto pit = pending_.find(token);
      if (pit == pending_.end()) return;
      stats_.inc("op.sync.timeout");
      PendingSync done = std::move(pit->second);
      pending_.erase(pit);
      finish_sync(done);
    });
    pending_.emplace(token, std::move(ps));
    return;
  }
  if (m.type == mc_msg::kUpdateReply) {
    const auto& rep = net::payload_as<mc_msg::UpdateReply>(m);
    auto pit = pending_.find(rep.token);
    if (pit == pending_.end()) {
      stats_.inc("op.update.late");
      return;
    }
    if (rep.dirty) {
      auto ait = agents_.find(rep.agent);
      if (ait != agents_.end()) {
        primary_.merge_into_object(rep.image, ait->second.properties);
      }
    }
    pit->second.outstanding.erase(rep.agent);
    if (pit->second.outstanding.empty()) {
      PendingSync done = std::move(pit->second);
      pending_.erase(pit);
      finish_sync(done);
    }
    return;
  }
  if (m.type == mc_msg::kLeaveReq) {
    const auto& req = net::payload_as<mc_msg::LeaveReq>(m);
    stats_.inc("op.leave");
    auto it = agents_.find(req.agent);
    if (it == agents_.end()) return;
    if (req.dirty) {
      primary_.merge_into_object(req.final_image, it->second.properties);
    }
    const net::Address addr = it->second.addr;
    agents_.erase(it);
    // Settle rounds that were waiting on the departed agent.
    std::vector<std::uint64_t> done_tokens;
    for (auto& [token, ps] : pending_) {
      ps.outstanding.erase(req.agent);
      if (ps.outstanding.empty()) done_tokens.push_back(token);
    }
    for (const auto token : done_tokens) {
      auto pit = pending_.find(token);
      PendingSync done = std::move(pit->second);
      pending_.erase(pit);
      finish_sync(done);
    }
    mc_msg::LeaveAck ack;
    fabric_.send(self_, addr, mc_msg::kLeaveAck, ack, kHdr);
    return;
  }
  stats_.inc("msg.unknown");
}

void MulticastDirectory::finish_sync(PendingSync& ps) {
  fabric_.disarm(ps.timeout);
  auto it = agents_.find(ps.requester);
  if (it == agents_.end()) return;
  mc_msg::SyncReply reply;
  reply.image = primary_.extract_from_object(it->second.properties);
  const auto bytes = kHdr + reply.image.wire_size();
  fabric_.send(self_, it->second.addr, mc_msg::kSyncReply, std::move(reply),
               bytes);
  stats_.inc("op.sync_reply");
}

// ---- client -------------------------------------------------------------------

MulticastClient::MulticastClient(net::Fabric& fabric, net::Address self,
                                 net::Address directory,
                                 core::ViewAdapter& view, std::string name,
                                 props::PropertySet properties)
    : fabric_(fabric),
      self_(self),
      directory_(directory),
      view_(view),
      name_(std::move(name)),
      properties_(std::move(properties)) {
  fabric_.bind(self_, *this);
}

MulticastClient::~MulticastClient() { fabric_.unbind(self_); }

void MulticastClient::connect(Done done) {
  pending_connect_ = std::move(done);
  mc_msg::RegisterReq req{name_, properties_};
  const auto bytes = kHdr + name_.size() + core::msg::wire_size(properties_);
  fabric_.send(self_, directory_, mc_msg::kRegisterReq, std::move(req), bytes);
}

void MulticastClient::do_operation(WorkFn work, Done done) {
  ops_.emplace_back(std::move(work), std::move(done));
  pump_ops();
}

void MulticastClient::pump_ops() {
  if (op_inflight_ || ops_.empty() || !connected_) return;
  op_inflight_ = true;
  mc_msg::SyncReq req{id_};
  fabric_.send(self_, directory_, mc_msg::kSyncReq, req, kHdr);
}

void MulticastClient::disconnect(Done done) {
  pending_disconnect_ = std::move(done);
  mc_msg::LeaveReq req;
  req.agent = id_;
  if (dirty_) {
    req.final_image = view_.extract_from_view(properties_);
    req.dirty = !req.final_image.empty();
    dirty_ = false;
  }
  const auto bytes = kHdr + req.final_image.wire_size();
  fabric_.send(self_, directory_, mc_msg::kLeaveReq, std::move(req), bytes);
}

void MulticastClient::on_message(const net::Message& m) {
  if (m.type == mc_msg::kRegisterAck) {
    const auto& ack = net::payload_as<mc_msg::RegisterAck>(m);
    id_ = ack.agent;
    connected_ = true;
    if (pending_connect_) std::exchange(pending_connect_, {})();
    pump_ops();
    return;
  }
  if (m.type == mc_msg::kUpdateReq) {
    const auto& req = net::payload_as<mc_msg::UpdateReq>(m);
    mc_msg::UpdateReply rep;
    rep.agent = id_;
    rep.token = req.token;
    if (dirty_) {
      rep.image = view_.extract_from_view(properties_);
      rep.dirty = !rep.image.empty();
      dirty_ = false;
    }
    const auto bytes = kHdr + rep.image.wire_size();
    fabric_.send(self_, directory_, mc_msg::kUpdateReply, std::move(rep),
                 bytes);
    return;
  }
  if (m.type == mc_msg::kSyncReply) {
    const auto& rep = net::payload_as<mc_msg::SyncReply>(m);
    if (!op_inflight_ || ops_.empty()) return;
    view_.merge_into_view(rep.image, properties_);
    auto [work, done] = std::move(ops_.front());
    ops_.pop_front();
    work();
    dirty_ = true;
    op_inflight_ = false;
    if (done) done();
    pump_ops();
    return;
  }
  if (m.type == mc_msg::kLeaveAck) {
    connected_ = false;
    if (pending_disconnect_) std::exchange(pending_disconnect_, {})();
    return;
  }
}

}  // namespace flecc::baselines
