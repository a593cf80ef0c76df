// Deterministic virtual network.
//
// The paper extends SimpleScalar with socket support so real network servers
// run inside the simulator.  Here, client sessions are scripted: each session
// is a sequence of request chunks the guest receives one per SYS_RECV call
// (so command-at-a-time protocols parse deterministically), and everything
// the guest SYS_SENDs is captured for assertions.  Bytes delivered by RECV
// are external input — the syscall layer taints them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ptaint::os {

/// A scripted client connection.
struct ClientSession {
  std::vector<std::vector<uint8_t>> requests;  // one chunk per RECV
  std::string transcript;                      // everything the server sent
};

class VirtualNetwork {
 public:
  /// Queues a client connection; chunks are strings for convenience
  /// (may contain NUL and arbitrary bytes via std::string contents).
  void add_session(const std::vector<std::string>& request_chunks);

  /// Drops every session with its transcript and resets the accept cursor:
  /// the network is as it was before the first add_session.
  void clear_sessions();

  /// True if an un-accepted session is queued.
  bool has_pending_session() const;

  /// Accepts the next queued session; returns its connection id.
  std::optional<int> accept();

  /// Next request chunk for connection `id`; empty vector = orderly EOF,
  /// nullopt = bad connection id.
  std::optional<std::vector<uint8_t>> recv(int id);

  /// Records server->client bytes.
  bool send(int id, std::span<const uint8_t> data);

  /// Transcript of everything sent to session `index` (in add order).
  const std::string& transcript(size_t index) const;
  size_t session_count() const { return sessions_.size(); }

  /// Plain-data image for snapshot serialization (core/snapshot_io.cpp,
  /// DESIGN.md §13): every session with its delivery cursor, plus the
  /// accept cursor.
  struct Persist {
    struct Session {
      std::vector<std::vector<uint8_t>> requests;
      std::string transcript;
      uint64_t next_chunk = 0;
      bool accepted = false;
    };
    std::vector<Session> sessions;
    uint64_t next_accept = 0;
  };
  Persist persist() const;
  void restore_persist(const Persist& p);

 private:
  struct Live {
    ClientSession session;
    size_t next_chunk = 0;
    bool accepted = false;
  };
  std::vector<Live> sessions_;
  size_t next_accept_ = 0;
};

}  // namespace ptaint::os
