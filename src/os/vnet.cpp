#include "os/vnet.hpp"

namespace ptaint::os {

void VirtualNetwork::add_session(const std::vector<std::string>& chunks) {
  Live live;
  for (const auto& c : chunks) {
    live.session.requests.emplace_back(c.begin(), c.end());
  }
  sessions_.push_back(std::move(live));
}

void VirtualNetwork::clear_sessions() {
  sessions_.clear();
  next_accept_ = 0;
}

bool VirtualNetwork::has_pending_session() const {
  return next_accept_ < sessions_.size();
}

std::optional<int> VirtualNetwork::accept() {
  if (!has_pending_session()) return std::nullopt;
  sessions_[next_accept_].accepted = true;
  return static_cast<int>(next_accept_++);
}

std::optional<std::vector<uint8_t>> VirtualNetwork::recv(int id) {
  if (id < 0 || static_cast<size_t>(id) >= sessions_.size()) {
    return std::nullopt;
  }
  Live& live = sessions_[id];
  if (!live.accepted) return std::nullopt;
  if (live.next_chunk >= live.session.requests.size()) {
    return std::vector<uint8_t>{};  // EOF
  }
  return live.session.requests[live.next_chunk++];
}

bool VirtualNetwork::send(int id, std::span<const uint8_t> data) {
  if (id < 0 || static_cast<size_t>(id) >= sessions_.size()) return false;
  sessions_[id].session.transcript.append(
      reinterpret_cast<const char*>(data.data()), data.size());
  return true;
}

const std::string& VirtualNetwork::transcript(size_t index) const {
  return sessions_.at(index).session.transcript;
}

VirtualNetwork::Persist VirtualNetwork::persist() const {
  Persist p;
  p.sessions.reserve(sessions_.size());
  for (const Live& live : sessions_) {
    p.sessions.push_back({live.session.requests, live.session.transcript,
                          live.next_chunk, live.accepted});
  }
  p.next_accept = next_accept_;
  return p;
}

void VirtualNetwork::restore_persist(const Persist& p) {
  sessions_.clear();
  sessions_.reserve(p.sessions.size());
  for (const Persist::Session& s : p.sessions) {
    Live live;
    live.session.requests = s.requests;
    live.session.transcript = s.transcript;
    live.next_chunk = static_cast<size_t>(s.next_chunk);
    live.accepted = s.accepted;
    sessions_.push_back(std::move(live));
  }
  next_accept_ = static_cast<size_t>(p.next_accept);
}

}  // namespace ptaint::os
