// Wire protocol of the serve daemon (DESIGN.md §9, hardened in §12):
// line-delimited JSON over a stream socket — the Unix-domain socket for
// local clients, or TCP via transport.hpp's Endpoint grammar. Every
// request is one line, every reply is a stream of one-line events; the
// connection closes when the request is fully answered.
//
// Requests:
//   {"op": "ping"}
//   {"op": "submit", "spec": { <pfc-jobspec-v1> }}
//   {"op": "cancel", "job": N}
//   {"op": "list"}
//   {"op": "metrics"}       JSON metrics snapshot (pfc-serve-metrics-v1)
//   {"op": "metrics_text"}  Prometheus text exposition of the same registry
//   {"op": "shutdown"}
//
// Events:
//   {"event": "pong", "protocol": "pfc-serve-v1"}
//   {"event": "accepted", "job": N, "name": "..."}     submit: queued
//   {"event": "rejected", "reason": "..."}             submit: shed by
//                                                       admission control
//   {"event": "started",  "job": N, "queued_seconds": S}
//   {"event": "progress", "job": N, "step": K, "steps_total": T,
//    "fraction": F, "mlups": M, "eta_seconds": E,
//    "health_violations": V}                           periodic, while running
//   {"event": "finished", "job": N, "result": {...},   JobResult::to_json()
//    "duration_seconds": D, "queued_seconds": S}
//   {"event": "cancelled", "job": N, "reason": "...",  cancel op / shutdown
//    "duration_seconds": D, "queued_seconds": S}        drain (terminal)
//   {"event": "deadline_exceeded", "job": N,           spec's deadline_seconds
//    "reason": "...", "duration_seconds": D,            elapsed (terminal)
//    "queued_seconds": S}
//   {"event": "error",    "job": N, "message": "...",  (job = -1: request
//    "duration_seconds": D, "queued_seconds": S}        itself was invalid;
//                                                       durations omitted)
//   {"event": "cancel_ack", "job": N, "state": "..."}  cancel op reply:
//                                                       "cancelled" (was
//                                                       queued), "cancelling"
//                                                       (running, stops at the
//                                                       next step), or the
//                                                       terminal state it
//                                                       already reached
//   {"event": "jobs", "jobs": [{"job":N,"name":..,"state":..,"tenant":..,
//    "preset":..,"submitted_unix":..,"fraction":..,...}, ...]}
//   {"event": "metrics", "snapshot": { <pfc-serve-metrics-v1> }}
//   {"event": "metrics_text", "text": "..."}
//   {"event": "bye"}                                   shutdown ack
#pragma once

#include <cstddef>
#include <string>

#include "pfc/app/progress.hpp"
#include "pfc/obs/json.hpp"

namespace pfc::serve {

inline constexpr const char* kProtocolVersion = "pfc-serve-v1";

/// Longest line a LineChannel buffers before giving up on the peer. Far
/// above any request or result line; a peer that streams more without a
/// newline gets a ProtocolError instead of unbounded daemon memory.
inline constexpr std::size_t kMaxLineBytes = std::size_t(16) << 20;

/// Creates a listening Unix-domain stream socket at `path` (unlinking any
/// stale file first). Throws pfc::Error on failure.
int listen_unix(const std::string& path, int backlog = 16);

/// Connects to the daemon's socket. Throws pfc::Error on failure.
int connect_unix(const std::string& path);

/// One connected socket with line framing. Owns the fd (closes on
/// destruction); movable, not copyable.
class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}
  ~LineChannel();
  LineChannel(LineChannel&& o) noexcept;
  LineChannel& operator=(LineChannel&& o) noexcept;
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Reads until '\n' (stripped). Returns false on clean EOF; throws
  /// TimeoutError when an armed SO_RCVTIMEO deadline elapses (slow-loris
  /// peer), ProtocolError when the line outgrows kMaxLineBytes, and
  /// pfc::Error on other socket errors.
  bool read_line(std::string& out);
  /// Reads one line and parses it; returns a Null Json on EOF. A line
  /// that is not JSON throws ProtocolError.
  obs::Json read_json();

  /// Writes one compact JSON line. Returns false if the peer is gone
  /// (EPIPE/ECONNRESET) or too slow to keep up (SO_SNDTIMEO elapsed) —
  /// event streams treat both as "client stopped listening", not an
  /// error, so a dead or stalled client never takes a job down.
  bool write_json(const obs::Json& j);

  /// Fault injection ("partial-write"): send each line in two halves with
  /// a short pause between, exercising the peer's '\n' reassembly.
  void enable_partial_write() { fault_partial_write_ = true; }

 private:
  int fd_ = -1;
  bool fault_partial_write_ = false;
  std::string buf_;  // bytes read past the last returned line
};

// --- event constructors (shared by server and client-side tests) -------------
// Durations are in wall seconds; pass a negative value to omit the key
// (request-level errors have no job timing to report).
obs::Json event_pong();
obs::Json event_accepted(long long job, const std::string& name);
obs::Json event_rejected(const std::string& reason);
obs::Json event_started(long long job, double queued_seconds = -1.0);
obs::Json event_progress(long long job, const app::ProgressUpdate& u);
obs::Json event_finished(long long job, obs::Json result,
                         double duration_seconds = -1.0,
                         double queued_seconds = -1.0);
obs::Json event_cancelled(long long job, const std::string& reason,
                          double duration_seconds = -1.0,
                          double queued_seconds = -1.0);
obs::Json event_deadline_exceeded(long long job, const std::string& reason,
                                  double duration_seconds = -1.0,
                                  double queued_seconds = -1.0);
obs::Json event_error(long long job, const std::string& message,
                      double duration_seconds = -1.0,
                      double queued_seconds = -1.0);
obs::Json event_cancel_ack(long long job, const std::string& state);
obs::Json event_metrics(obs::Json snapshot);
obs::Json event_metrics_text(const std::string& text);
obs::Json event_bye();

}  // namespace pfc::serve
