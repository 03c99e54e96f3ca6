// Admission-service part of the benchmark.
//
// Inputs are a script of protocol lines built from the seed before any
// timing starts.  The script is fed once through an in-process reference
// ServeSession, which fixes the exact reply stream the live server must
// send back: decisions are a pure function of the accepted line order, and
// the client keeps that order deterministic by sending the `done` for an
// admitted run only after its admit reply has arrived, at a fixed lag of
// kDoneLag submissions.  Submissions go out on a wall-clock schedule at a
// fixed rate, with one in flight (the gated latency), with none held back
// (the open loop of the traced run), or as a flood with a bounded window
// (capacity).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pb/spans.hpp"
#include "pb/workloads.hpp"
#include "src/core/admission.hpp"
#include "src/exp/config.hpp"
#include "src/exp/net.hpp"
#include "src/exp/protocol.hpp"
#include "src/exp/serve.hpp"
#include "src/task/notation.hpp"
#include "src/task/tree.hpp"
#include "src/util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_fsyncs{0};
}  // namespace

// Counts the journal's fsyncs from outside the library: this definition
// takes the place of libc's for every caller in the process.
extern "C" int fsync(int fd) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(::syscall(SYS_fsync, fd));
}

namespace perfbench {

namespace {

using sda::exp::ServeOptions;
using sda::exp::ServeSession;

/// Submissions between an admit reply and the `done` that answers it.
constexpr std::size_t kDoneLag = 2;
/// Fixed-rate latency measurement: the offered rate (submissions/s) and
/// the submissions of its one session.
constexpr double kOfferedRate = 8000.0;
constexpr std::size_t kFixedSubs = 16000;
/// Latency statistics are taken over windows of this many consecutive
/// submissions.
constexpr std::size_t kWindowSlots = 2000;
/// serve_p50_us reads as on a host whose loopback echo round trip takes
/// this long.
constexpr double kEchoNominalUs = 16.0;
/// Echo round trips a window needs for its own ratio.
constexpr std::size_t kMinEchoes = 200;
/// Socket floods of the traced run: submissions, slots in flight.
constexpr std::size_t kFloodSubs = 8000;
constexpr std::size_t kFloodWindow = 32;
/// Script length in the self-test's short mode.
constexpr std::size_t kShortSubs = 400;
/// serve-socket's setup_s: service set-ups timed after each pass.
constexpr int kSetupRuns = 21;
/// Rounds of an in-process pass and a journal replay at least (the
/// simulator workloads run just these).
constexpr std::size_t kMinRounds = 20;

// --- the submission mix ----------------------------------------------------------
//
// One mix for every workload: a few templates (plan-cache hits), a share of
// unique shapes (misses) and a share of tight deadlines (degrade or reject).

struct Draw {
  std::string tree;
  double rel_deadline = 0.0;
};

std::string fmt(double v, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string leaf(int node, double ex) {
  return "t@" + std::to_string(node) + ":" + fmt(ex, 3);
}

/// Nodes the submitted trees run on.
constexpr int kServeNodes = 16;
/// Logical time between submissions (mean of an exponential gap).
constexpr double kMeanGap = 0.6;

Draw random_shape(sda::util::Rng& rng, int nodes) {
  auto node = [&] { return static_cast<int>(rng.uniform_int(0, nodes - 1)); };
  auto ex = [&] { return std::round(rng.uniform(0.2, 2.0) * 100.0) / 100.0; };
  Draw d;
  double critical = 0.0;
  if (rng.bernoulli(0.5)) {
    const int width = static_cast<int>(rng.uniform_int(2, 4));
    d.tree = "[";
    for (int i = 0; i < width; ++i) {
      const double e = ex();
      critical = std::max(critical, e);
      d.tree += (i ? " || " : "") + leaf(node(), e);
    }
    d.tree += "]";
  } else {
    const int stages = static_cast<int>(rng.uniform_int(2, 3));
    d.tree = "[";
    for (int s = 0; s < stages; ++s) {
      if (s) d.tree += " ";
      const int width = static_cast<int>(rng.uniform_int(1, 3));
      if (width == 1) {
        const double e = ex();
        critical += e;
        d.tree += leaf(node(), e);
        continue;
      }
      double stage = 0.0;
      d.tree += "[";
      for (int i = 0; i < width; ++i) {
        const double e = ex();
        stage = std::max(stage, e);
        d.tree += (i ? " || " : "") + leaf(node(), e);
      }
      d.tree += "]";
      critical += stage;
    }
    d.tree += "]";
  }
  d.rel_deadline = std::round(critical * rng.uniform(1.5, 4.0) * 100.0) / 100.0;
  return d;
}

/// The same templates in every run (the seed draws the sequence), so the
/// work per submission does not swing with the seed.
std::vector<Draw> templates() {
  sda::util::Rng fixed(0x7e3a1a7e5);
  std::vector<Draw> t;
  for (int i = 0; i < 8; ++i) t.push_back(random_shape(fixed, kServeNodes));
  return t;
}

Draw draw(const std::vector<Draw>& templates, sda::util::Rng& rng) {
  auto pick = [&]() -> const Draw& {
    return templates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(templates.size()) - 1))];
  };
  const double u = rng.uniform01();
  if (u < 0.70) return pick();
  if (u < 0.85) return random_shape(rng, kServeNodes);
  Draw tight = pick();
  tight.rel_deadline =
      std::round(sda::task::critical_path_pex(*sda::task::parse_notation(tight.tree)) *
                 rng.uniform(0.9, 1.2) * 100.0) /
      100.0;
  return tight;
}

// --- the script ---------------------------------------------------------------

struct Script {
  ServeOptions options;
  std::vector<std::string> lines;       ///< protocol lines, send order
  std::vector<std::size_t> slot_begin;  ///< first line of each slot (+ end)
  /// Reply index that must have arrived before slot j goes out (the admit
  /// answered by a `done` in the slot); -1 = none.
  std::vector<long> slot_wait;
  /// Replies produced by lines of slots [0, j], cumulative.
  std::vector<std::size_t> replies_after_slot;
  /// Per slot: index of the submission's immediate decision reply, or -1
  /// when it was parked (decided later by a pump).
  std::vector<long> slot_decision;
  std::vector<std::string> replies;  ///< reference replies, incl. drain flush
  std::size_t replies_before_finish = 0;
  std::uint64_t fingerprint = 0;  ///< reference state before the drain flush
  sda::exp::ServeResult result;   ///< reference result after finish()

  std::size_t slots() const { return slot_wait.size(); }
};

bool is_admit(const std::string& reply) {
  return reply.find("\"decision\":\"admit") != std::string::npos;
}

Script build_script(const RunArgs& args, std::size_t n_slots) {
  sda::util::Rng rng(args.seed * 0x2545f4914f6cdd1dULL + 0x5e47e);
  const std::vector<Draw> mix = templates();
  sda::exp::ExperimentConfig config = sda::exp::baseline_config();
  config.k = kServeNodes;
  config.psp = "ud";
  config.ssp = "eqf";
  Script s;
  s.options.admission = config.admission_config();
  ServeSession ref(s.options);

  std::map<std::size_t, std::vector<std::pair<std::string, long>>> dones;
  std::vector<ServeSession::Reply> out;
  std::size_t slot = 0;
  long decision_of_sub = -1;
  std::uint64_t sub_id = 0;
  auto feed = [&](const std::string& line) {
    s.lines.push_back(line);
    out.clear();
    ref.handle_line(line, out);
    for (ServeSession::Reply& r : out) {
      if (r.kind != ServeSession::ReplyKind::kDecision) {
        throw std::logic_error("script line rejected: " + line + " -> " + r.line);
      }
      const long idx = static_cast<long>(s.replies.size());
      if (r.id == sub_id) decision_of_sub = idx;
      if (is_admit(r.line)) {
        // React to the admit: whole-run done, or a leaf done then the rest.
        const std::string id = "done id=" + std::to_string(r.id);
        if (r.line.find("\"leaves\":[{") != std::string::npos &&
            r.line.find("},{") != std::string::npos && rng.bernoulli(0.3)) {
          dones[slot + kDoneLag].emplace_back(id + " leaf=0", idx);
          dones[slot + 2 * kDoneLag].emplace_back(id, idx);
        } else {
          dones[slot + kDoneLag].emplace_back(id, idx);
        }
      }
      s.replies.push_back(std::move(r.line));
    }
  };

  double at = 0.0;
  for (slot = 0; slot < n_slots; ++slot) {
    s.slot_begin.push_back(s.lines.size());
    long wait = -1;
    sub_id = 0;
    if (auto it = dones.find(slot); it != dones.end()) {
      for (const auto& [line, prereq] : it->second) {
        wait = std::max(wait, prereq);
        feed(line);
      }
      dones.erase(it);
    }
    at += rng.exponential(kMeanGap);
    const Draw d = draw(mix, rng);
    sub_id = slot + 1;
    decision_of_sub = -1;
    feed("sub id=" + std::to_string(sub_id) + " at=" + fmt(at, 6) +
         " deadline=" + fmt(d.rel_deadline, 3) + " tree=" + d.tree);
    s.slot_wait.push_back(wait);
    s.slot_decision.push_back(decision_of_sub);
    s.replies_after_slot.push_back(s.replies.size());
  }
  s.slot_begin.push_back(s.lines.size());
  s.replies_before_finish = s.replies.size();
  s.fingerprint = ref.state_fingerprint();
  out.clear();
  ref.finish(out);
  for (ServeSession::Reply& r : out) {
    if (r.kind == ServeSession::ReplyKind::kDecision) {
      s.replies.push_back(std::move(r.line));
    }
  }
  s.result = ref.result();
  return s;
}

// --- sessions --------------------------------------------------------------------

/// Session options journaling to a fresh file at @p journal.  With
/// @p fsync_at_drain, every accepted line is journaled but the fsync is
/// batched to the drain: fsync latency on a shared disk ranges from 0.1 to
/// tens of ms within minutes and would set the measured figures by itself.
/// The default batching's cost is measured in-process instead
/// (exp.journal.overhead_ns, exp.journal.fsyncs).
ServeOptions journaled(const Script& s, const std::string& journal,
                       bool fsync_at_drain) {
  std::filesystem::remove(journal);
  ServeOptions opt = s.options;
  opt.journal_path = journal;
  if (fsync_at_drain) {
    opt.journal_flush_every = std::size_t{1} << 40;
    opt.journal_flush_interval_ms = 24 * 3600 * 1000;
  }
  return opt;
}

struct SessionStats {
  std::vector<double> latency_us;  ///< immediate decisions, from schedule
  std::vector<std::size_t> latency_slot;  ///< slot of each latency sample
  std::vector<double> echo_us;            ///< echo round trips (paced)
  std::vector<std::size_t> echo_slot;     ///< slots answered before each
  std::vector<double> late_us;     ///< generator: send time - scheduled
  std::uint64_t subs_sent = 0;
  std::uint64_t subs_failed = 0;  ///< no decision, error reply, or evicted
  std::size_t mismatches = 0;     ///< replies differing from the reference
  bool complete = false;          ///< every expected reply arrived in time
  bool abandoned = false;         ///< did not end in time
  double throughput = 0.0;        ///< subs/s, first send to last reply
  std::string live_fingerprint;   ///< from the drain summary's journal block
};

std::string summary_fingerprint(const std::string& summary) {
  const std::string key = "\"fingerprint\":\"";
  const std::size_t at = summary.find(key);
  if (at == std::string::npos) return "";
  return summary.substr(at + key.size(), 16);
}

std::uint64_t reply_id(const std::string& line, bool* is_decision,
                       bool* is_error) {
  *is_decision = line.find("\"schema\":\"sda.admit.v1\"") != std::string::npos;
  *is_error = line.find("\"schema\":\"sda.error.v1\"") != std::string::npos;
  const std::size_t at = line.find("\"id\":");
  return at == std::string::npos ? 0 : std::strtoull(line.c_str() + at + 5, nullptr, 10);
}

constexpr int kOne = 1;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the server failed");
  }
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &kOne, sizeof kOne);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// A loopback echo over the path a decision takes (client write, TCP
/// loopback, a thread woken from epoll_wait, its write back) with none of
/// the service's code: the host's round-trip cost at that moment.  Socket
/// latencies shift by tens of percent between runs with the host's wake-up
/// and loopback costs, which a CPU kernel does not see.
class EchoPeer {
 public:
  EchoPeer() {
    const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (lfd < 0) throw std::runtime_error("echo socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(lfd, 1) != 0 ||
        ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(lfd);
      throw std::runtime_error("echo listen failed");
    }
    try {
      client_ = connect_loopback(ntohs(addr.sin_port));
    } catch (...) {
      ::close(lfd);
      throw;
    }
    const int peer = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
    ::close(lfd);
    if (peer < 0) {
      ::close(client_);
      throw std::runtime_error("echo accept failed");
    }
    ::setsockopt(peer, IPPROTO_TCP, TCP_NODELAY, &kOne, sizeof kOne);
    thread_ = std::thread([peer] {
      const int ep = ::epoll_create1(EPOLL_CLOEXEC);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = peer;
      ::epoll_ctl(ep, EPOLL_CTL_ADD, peer, &ev);
      char buf[256];
      for (;;) {
        epoll_event got{};
        if (::epoll_wait(ep, &got, 1, -1) < 0 && errno != EINTR) break;
        const ssize_t n = ::read(peer, buf, sizeof buf);
        if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) break;
        if (n > 0 && ::write(peer, buf, static_cast<std::size_t>(n)) != n) break;
      }
      ::close(ep);
      ::close(peer);
    });
  }
  ~EchoPeer() {
    ::shutdown(client_, SHUT_RDWR);  // the peer reads end of file and exits
    thread_.join();
    ::close(client_);
  }
  EchoPeer(const EchoPeer&) = delete;
  EchoPeer& operator=(const EchoPeer&) = delete;
  int fd() const { return client_; }

 private:
  int client_ = -1;
  std::thread thread_;
};

/// How a session sends its slots.
struct Pacing {
  /// Scheduled submissions per second; 0 = as fast as the window allows.
  double rate = 0.0;
  /// Most slots in flight (sent, replies not all back); 0 = unbounded, an
  /// open loop.  With a window, latency runs from each slot's actual send;
  /// in an open loop, from its scheduled send.
  std::size_t window = 0;
  /// When set, one echo round trip goes out each time every sent slot
  /// has been answered (between submissions, on the same client loop).
  EchoPeer* echo = nullptr;
};

/// Serves slots [0, n_slots) of @p s over TCP loopback against a fresh
/// server journaling to @p journal.  When every slot is sent the drain
/// flush is checked too.  A session that has not ended ten seconds after
/// its schedule is abandoned (incomplete).
SessionStats socket_session(const Script& s, std::size_t n_slots,
                            const Pacing& pacing, const std::string& journal) {
  SessionStats st;
  ServeSession session(journaled(s, journal, true));
  std::string diag;
  if (!session.open_journal(&diag)) throw std::runtime_error("journal: " + diag);
  sda::exp::net::ServerOptions so;
  so.listen.host = "127.0.0.1";
  so.listen.port = 0;
  sda::exp::net::ServeServer server(session, so);
  if (!server.start(&diag)) throw std::runtime_error("server start: " + diag);
  std::ostringstream control;
  int server_rc = 0;
  std::thread loop([&] { server_rc = server.run(control); });
  // Stops and joins the loop on every way out of this function.
  struct LoopGuard {
    sda::exp::net::ServeServer& server;
    std::thread& loop;
    ~LoopGuard() {
      if (loop.joinable()) {
        server.request_stop();
        loop.join();
      }
    }
  } guard{server, loop};
  struct Socket {
    int fd;
    ~Socket() { ::close(fd); }
  } client{connect_loopback(server.bound_port())};
  const int fd = client.fd;

  std::vector<std::int64_t> arrival, sent_at;
  arrival.reserve(s.replies.size());
  std::vector<char> answered(n_slots + 1, 0);
  std::string outbuf, inbuf;
  std::size_t out_off = 0;
  const double gap_ns = pacing.rate > 0.0 ? 1e9 / pacing.rate : 0.0;
  const std::int64_t start = now_ns() + 2'000'000;  // first send in 2 ms
  auto scheduled = [&](std::size_t j) {
    return start + static_cast<std::int64_t>(gap_ns * static_cast<double>(j));
  };
  const std::int64_t give_up =
      start + static_cast<std::int64_t>(gap_ns * static_cast<double>(n_slots)) +
      10'000'000'000LL;
  std::size_t next = 0;       // slots sent
  std::size_t completed = 0;  // slots whose replies have all arrived
  bool stop_sent = false, eof = false;
  std::int64_t echo_sent_at = 0;  // 0 = no echo in flight
  std::size_t echo_after = 0;     // slots answered before the last echo
  char buf[65536];
  while (!eof) {
    std::int64_t now = now_ns();
    if (now > give_up) {
      st.abandoned = true;
      break;
    }
    while (completed < next && arrival.size() >= s.replies_after_slot[completed]) {
      ++completed;
    }
    while (next < n_slots && scheduled(next) <= now &&
           s.slot_wait[next] < static_cast<long>(arrival.size()) &&
           (pacing.window == 0 || next - completed < pacing.window)) {
      for (std::size_t l = s.slot_begin[next]; l < s.slot_begin[next + 1]; ++l) {
        outbuf += s.lines[l];
        outbuf += '\n';
      }
      st.late_us.push_back(static_cast<double>(now - scheduled(next)) * 1e-3);
      sent_at.push_back(now);
      ++next;
      ++st.subs_sent;
    }
    while (out_off < outbuf.size()) {
      const ssize_t n = ::write(fd, outbuf.data() + out_off, outbuf.size() - out_off);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &kOne, sizeof kOne);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    if (out_off == outbuf.size()) {
      outbuf.clear();
      out_off = 0;
    }
    if (!stop_sent && next == n_slots && outbuf.empty() &&
        arrival.size() >= s.replies_after_slot[n_slots - 1]) {
      server.request_stop();  // drain: flush parked decisions, close
      stop_sent = true;
    }
    // The generator polls without sleeping: waking a sleeping thread on a
    // virtualised host can take milliseconds, which would show up as
    // server latency.
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n == 0) {
        eof = true;
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) eof = true;
        break;
      }
      const std::int64_t t = now_ns();
      // The server does not set TCP_NODELAY: acknowledge at once, so
      // Nagle holds its next reply for one loopback round trip instead of
      // a delayed-ACK timeout.
      ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &kOne, sizeof kOne);
      inbuf.append(buf, static_cast<std::size_t>(n));
      std::size_t pos = 0;
      for (std::size_t nl; (nl = inbuf.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        const std::string line = inbuf.substr(pos, nl + 1 - pos);
        const std::size_t k = arrival.size();
        arrival.push_back(t);
        const std::size_t expected =
            next == s.slots() ? s.replies.size()
                              : (next == 0 ? 0 : s.replies_after_slot[next - 1]);
        const bool checked = k < expected;
        if (checked && line != s.replies[k]) ++st.mismatches;
        bool decision = false, error = false;
        const std::uint64_t id = reply_id(line, &decision, &error);
        if (error) ++st.subs_failed;
        if (decision && id >= 1 && id <= n_slots) answered[id] = 1;
      }
      inbuf.erase(0, pos);
    }
    if (pacing.echo != nullptr && !stop_sent) {
      const int efd = pacing.echo->fd();
      while (completed < next && arrival.size() >= s.replies_after_slot[completed]) {
        ++completed;
      }
      if (echo_sent_at == 0 && completed == next && next > 0 &&
          next > echo_after) {
        if (::write(efd, "e\n", 2) == 2) {
          echo_sent_at = now_ns();
          echo_after = next;
        }
      } else if (echo_sent_at != 0) {
        char e[16];
        if (::read(efd, e, sizeof e) > 0) {
          st.echo_us.push_back(static_cast<double>(now_ns() - echo_sent_at) * 1e-3);
          st.echo_slot.push_back(echo_after);
          echo_sent_at = 0;
        }
      }
    }
  }
  if (!stop_sent) server.request_stop();
  loop.join();
  const bool full = next == s.slots();
  st.complete = server_rc == 0 && !st.abandoned && next == n_slots &&
                arrival.size() >= s.replies_after_slot[n_slots - 1] &&
                (!full || arrival.size() == s.replies.size());
  for (std::size_t id = 1; id <= st.subs_sent; ++id) {
    if (!answered[id]) ++st.subs_failed;
  }
  for (std::size_t j = 0; j < next; ++j) {
    const long k = s.slot_decision[j];
    if (k >= 0 && static_cast<std::size_t>(k) < arrival.size()) {
      const std::int64_t from = pacing.window > 0 ? sent_at[j] : scheduled(j);
      st.latency_us.push_back(
          static_cast<double>(arrival[static_cast<std::size_t>(k)] - from) * 1e-3);
      st.latency_slot.push_back(j);
    }
  }
  if (next > 0 && st.complete) {
    st.throughput = static_cast<double>(next) /
                    (static_cast<double>(arrival[s.replies_after_slot[next - 1] - 1] -
                                         sent_at.front()) *
                     1e-9);
  }
  st.live_fingerprint = summary_fingerprint(control.str());
  return st;
}

struct WindowStats {
  double p50 = 0.0;         ///< median of the window medians
  double p50_scaled = 0.0;  ///< median of the echo-normalized window medians
  double echo_p50 = 0.0;    ///< median echo round trip
  std::vector<double> p99s;  ///< every window's p99, sorted
};

/// Latency over consecutive windows of kWindowSlots slots.  Each window
/// with at least kMinEchoes echoes also gives its median relative to the
/// median echo round trip in the same window, rescaled to a host whose
/// loopback echo takes kEchoNominalUs (a session too short for that uses
/// its whole-session medians).
WindowStats window_stats(const SessionStats& st, std::size_t n_slots) {
  WindowStats ws;
  std::vector<double> p50s, scaled, p99s;
  std::size_t i = 0, k = 0;  // next latency sample, next echo sample
  for (std::size_t b = 0; b < n_slots; b += kWindowSlots) {
    const std::size_t e = std::min(n_slots, b + kWindowSlots);
    if (e - b < kWindowSlots && b != 0) break;  // drop a short tail
    std::vector<double> w, echo;
    for (; i < st.latency_us.size() && st.latency_slot[i] < e; ++i) {
      w.push_back(st.latency_us[i]);
    }
    for (; k < st.echo_us.size() && st.echo_slot[k] <= e; ++k) {
      echo.push_back(st.echo_us[k]);
    }
    if (w.empty()) continue;
    p50s.push_back(median(w));
    p99s.push_back(quantile(w, 0.99));
    if (echo.size() >= kMinEchoes) {
      scaled.push_back(median(w) / median(echo) * kEchoNominalUs);
    }
  }
  if (scaled.empty() && !st.echo_us.empty()) {  // short sessions
    scaled.push_back(median(st.latency_us) / median(st.echo_us) * kEchoNominalUs);
  }
  std::sort(p99s.begin(), p99s.end());
  ws.p50 = median(p50s);
  ws.p50_scaled = median(scaled);
  ws.echo_p50 = median(st.echo_us);
  ws.p99s = std::move(p99s);
  return ws;
}

// --- in-process passes -------------------------------------------------------------

struct PassStats {
  double wall_s = 0.0;
  std::vector<double> line_ns;  ///< per-line handle_line time (when timed)
  std::vector<double> sub_line_ns;
  bool replies_match = true;
  std::uint64_t fingerprint = 0;
  std::uint64_t fsyncs = 0;
};

/// Feeds the whole script through a fresh ServeSession (journal at
/// @p journal, none when empty), then finish().  wall_s times the lines
/// alone: opening and closing the journal fsync it.
PassStats in_process_pass(const Script& s, const std::string& journal,
                          bool fsync_at_drain, bool time_lines) {
  PassStats ps;
  const ServeOptions opt =
      journal.empty() ? s.options : journaled(s, journal, fsync_at_drain);
  const std::uint64_t fsyncs0 = g_fsyncs.load();
  std::vector<ServeSession::Reply> out;
  std::vector<std::string> replies;
  replies.reserve(s.replies.size());
  ServeSession session(opt);
  std::string diag;
  if (!session.open_journal(&diag)) throw std::runtime_error("journal: " + diag);
  const std::int64_t t0 = now_ns();
  for (std::size_t j = 0; j < s.slots(); ++j) {
    for (std::size_t l = s.slot_begin[j]; l < s.slot_begin[j + 1]; ++l) {
      out.clear();
      const std::int64_t a = time_lines ? now_ns() : 0;
      session.handle_line(s.lines[l], out);
      if (time_lines) {
        const double ns = static_cast<double>(now_ns() - a);
        ps.line_ns.push_back(ns);
        if (l + 1 == s.slot_begin[j + 1]) ps.sub_line_ns.push_back(ns);
      }
      for (ServeSession::Reply& r : out) replies.push_back(std::move(r.line));
    }
  }
  ps.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  ps.fingerprint = session.state_fingerprint();
  out.clear();
  session.finish(out);
  ps.fsyncs = g_fsyncs.load() - fsyncs0;
  for (ServeSession::Reply& r : out) {
    if (r.kind == ServeSession::ReplyKind::kDecision) replies.push_back(std::move(r.line));
  }
  ps.replies_match = replies == s.replies;
  return ps;
}

/// Replays @p journal read-only; returns the wall seconds of
/// open_journal and the recovered state fingerprint.
std::pair<double, std::uint64_t> recover(const Script& s, const std::string& journal) {
  ServeOptions opt = s.options;
  opt.journal_path = journal;
  opt.journal_replay_only = true;
  const std::int64_t t0 = now_ns();
  ServeSession session(opt);
  std::string diag;
  if (!session.open_journal(&diag)) throw std::runtime_error("recovery: " + diag);
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  return {wall, session.state_fingerprint()};
}

void check_session(const SessionStats& st, const Script& s, Outcome& out,
                   const char* what) {
  out.attempted += st.subs_sent;
  out.failed += st.subs_failed;
  if (st.mismatches != 0) {
    out.fail_check(std::string(what) + ": " + std::to_string(st.mismatches) +
                   " replies differ from the reference session");
  }
  if (!st.complete) out.fail_check(std::string(what) + ": replies missing");
  if (st.live_fingerprint != hex64(s.fingerprint)) {
    out.fail_check(std::string(what) + ": live state fingerprint " +
                   st.live_fingerprint + " != reference " + hex64(s.fingerprint));
  }
}

/// Sustained submissions per second over the socket: a flood of a longer
/// script from the same seed, kFloodWindow slots in flight (so the backlog
/// cannot grow), from the first send to the last reply.  A prefix ends
/// with a drain flush the reference did not see, so only the replies
/// before it are compared.
double flood(const RunArgs& args, const Script& s, const std::string& dir,
             Outcome& out) {
  const Script flood_script =
      build_script(args, args.short_mode ? s.slots() : kFloodSubs);
  const SessionStats st = socket_session(flood_script, flood_script.slots(),
                                         Pacing{0.0, kFloodWindow}, dir + "flood.journal");
  std::filesystem::remove(dir + "flood.journal");
  out.attempted += st.subs_sent;
  out.failed += st.subs_failed;
  if (st.mismatches != 0) out.fail_check("flood replies differ from the reference");
  if (!st.complete) out.fail_check("flood replies missing");
  return st.throughput;
}

}  // namespace

std::uint64_t serve_digest(const RunArgs& args) {
  return build_script(args, args.short_mode ? kShortSubs : kFixedSubs)
      .fingerprint;
}

void run_serve_part(const RunArgs& args, double budget_s, Outcome& out,
                    Values& v) {
  const std::int64_t start = now_ns();
  const double rate = kOfferedRate;
  const Script s = build_script(args, args.short_mode ? kShortSubs : kFixedSubs);
  std::fprintf(stderr,
               "perfbench: %s serve script: %zu subs, %zu lines, %zu replies, "
               "admitted %llu degraded %llu rejected %llu shed %llu queued %llu "
               "backpressure %llu, cache hits %llu misses %llu\n",
               args.workload.c_str(), s.slots(), s.lines.size(), s.replies.size(),
               static_cast<unsigned long long>(s.result.stats.admitted),
               static_cast<unsigned long long>(s.result.stats.admitted_degraded),
               static_cast<unsigned long long>(s.result.stats.rejected),
               static_cast<unsigned long long>(s.result.stats.shed),
               static_cast<unsigned long long>(s.result.stats.queued),
               static_cast<unsigned long long>(s.result.stats.backpressure),
               static_cast<unsigned long long>(s.result.cache.hits),
               static_cast<unsigned long long>(s.result.cache.misses));

  // The reference session's state after the script pins its decisions.
  const std::string pinned =
      args.digests_path.empty()
          ? ""
          : pinned_digest(args.digests_path, "serve-socket",
                          args.short_mode ? "serve-short" : "serve", args.seed);
  const std::string digest = hex64(s.fingerprint);
  if (!pinned.empty() && pinned != digest) {
    out.fail_check(args.workload + " serve decisions digest " + digest +
                   " != pinned " + pinned);
  }
  std::fprintf(stderr, "perfbench: %s serve digest %s%s\n", args.workload.c_str(),
               digest.c_str(), pinned.empty() ? " (unpinned)" : " (pinned)");

  const std::string dir = args.work_dir + "/";
  const std::string journal = dir + "serve.journal";

  // The fixed-rate session: a fresh server fed the whole script, paced at
  // the offered rate with one slot in flight, an echo round trip between
  // submissions; full reply and state check.
  SessionStats last;
  {
    EchoPeer echo;
    last = socket_session(s, s.slots(), Pacing{rate, 1, &echo}, journal);
  }
  check_session(last, s, out, "fixed-rate session");
  const WindowStats paced = window_stats(last, s.slots());
  std::fprintf(stderr,
               "perfbench: %s serve paced at %.0f/s: %zu latency samples, p50 %.1f us, "
               "p99 %.1f us, generator late p99 %.1f us; %zu echoes, p50 %.1f us; "
               "window p99s (us):",
               args.workload.c_str(), rate, last.latency_us.size(), paced.p50,
               quantile(last.latency_us, 0.99), quantile(last.late_us, 0.99),
               last.echo_us.size(), paced.echo_p50);
  for (const double p : paced.p99s) std::fprintf(stderr, " %.0f", p);
  std::fprintf(stderr, "\n");
  if (!is_sim_workload(args.workload)) v["peak_rss_mb"] = peak_rss_mb();

  // Recovery: replay the journal the session wrote, as after kill -9.  One
  // untimed replay first, so every timed one reads the file from the page
  // cache; the timed ones alternate with the in-process passes below.
  auto replay = [&] {
    const auto [wall, fp] = recover(s, journal);
    if (hex64(fp) != last.live_fingerprint) {
      out.fail_check("journal replay fingerprint " + hex64(fp) +
                     " != live session " + last.live_fingerprint);
    }
    return wall;
  };
  replay();

  if (args.trace) {
    // The same script open loop: every submission on schedule whatever is
    // in flight, latency from the schedule, so host stalls and the backlog
    // behind them count (the figures the paced session keeps out).
    const SessionStats open = socket_session(s, s.slots(), Pacing{rate, 0}, journal);
    check_session(open, s, out, "open-loop session");
    v["exp.serve.open_loop_p50_us"] = median(open.latency_us);
    v["exp.serve.open_loop_p99_us"] = quantile(open.latency_us, 0.99);
    v["exp.serve.generator_late_p99_us"] = quantile(open.late_us, 0.99);
    v["exp.net.paced_p99_us"] = quantile(last.latency_us, 0.99);
    v["exp.net.flood_per_s"] = flood(args, s, dir, out);

    // In-process passes over the same script: per-line session time,
    // journal on minus off, parse time, admission decide time.
    const PassStats with_journal =
        in_process_pass(s, dir + "pass.journal", false, true);
    const PassStats without = in_process_pass(s, "", false, true);
    if (!with_journal.replies_match || !without.replies_match) {
      out.fail_check("in-process pass replies differ from the reference");
    }
    double sum_with = 0.0, sum_without = 0.0;
    for (const double ns : with_journal.line_ns) sum_with += ns;
    for (const double ns : without.line_ns) sum_without += ns;
    const double lines = static_cast<double>(s.lines.size());

    const std::int64_t p0 = now_ns();
    std::size_t parsed_ok = 0;
    for (const std::string& line : s.lines) {
      parsed_ok += sda::exp::parse_serve_line(line, s.options.limits).error.empty();
    }
    const double parse_ns = static_cast<double>(now_ns() - p0) / lines;
    if (parsed_ok != s.lines.size()) out.fail_check("script line failed to parse");

    // The controller alone, driven the way the session drives it.
    sda::core::AdmissionController ctl(s.options.admission);
    std::vector<double> decide_ns;
    double clock = 0.0;
    for (const std::string& text : s.lines) {
      const sda::exp::ParsedLine line = sda::exp::parse_serve_line(text, s.options.limits);
      if (line.verb == "done") {
        if (line.has_leaf) {
          ctl.on_leaf_finished(line.id, line.leaf);
        } else {
          ctl.on_finished(line.id);
        }
        ctl.pump(clock);
        continue;
      }
      sda::task::TreePtr tree = sda::task::parse_notation(line.tree);
      clock = line.at;
      ctl.pump(clock);
      const std::int64_t a = now_ns();
      ctl.submit(std::move(tree), line.at, line.at + line.deadline, line.id);
      decide_ns.push_back(static_cast<double>(now_ns() - a));
    }
    std::uint64_t admits = 0;
    for (std::size_t k = 0; k < s.replies_before_finish; ++k) admits += is_admit(s.replies[k]);
    if (ctl.stats().admitted + ctl.stats().admitted_degraded != admits) {
      out.fail_check("admission controller driven alone diverged from the session");
    }
    v["exp.serve.handle_line_ns.p50"] = median(with_journal.line_ns);
    v["exp.serve.handle_line_ns.p99"] = quantile(with_journal.line_ns, 0.99);
    v["exp.protocol.parse_ns"] = parse_ns;
    v["exp.journal.overhead_ns"] = (sum_with - sum_without) / lines;
    v["core.admission.decide_ns.p50"] = median(decide_ns);
    v["core.admission.decide_ns.p99"] = quantile(decide_ns, 0.99);
    v["exp.net.overhead_us"] =
        median(last.latency_us) - median(with_journal.sub_line_ns) * 1e-3;
    v["exp.serve.samples"] = static_cast<double>(last.latency_us.size());
    v["exp.journal.fsyncs"] = static_cast<double>(with_journal.fsyncs);
    const auto& st = s.result.stats;
    v["core.admission.admitted"] = static_cast<double>(st.admitted);
    v["core.admission.degraded"] = static_cast<double>(st.admitted_degraded);
    v["core.admission.rejected"] = static_cast<double>(st.rejected);
    v["core.admission.shed"] = static_cast<double>(st.shed);
    v["core.admission.queued"] = static_cast<double>(st.queued);
    v["core.admission.backpressure"] = static_cast<double>(st.backpressure);
    const auto& cache = s.result.cache;
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    v["core.plan_cache.lookups"] = lookups;
    v["core.plan_cache.hit_ratio"] =
        lookups > 0.0 ? static_cast<double>(cache.hits) / lookups : 0.0;
    v["core.plan_cache.evictions"] = static_cast<double>(cache.evictions);
    std::filesystem::remove(dir + "pass.journal");
    std::filesystem::remove(journal);
    return;
  }

  // Set-up of the service: session, journal open, server start (the
  // serve-socket workload's setup_s), a block of kSetupRuns after each
  // pass.  The journal exists (a restart with an empty journal): creating
  // one fsyncs the file and its directory, and fsync latency on a shared
  // disk varies a hundredfold within minutes.
  const bool time_setup = !is_sim_workload(args.workload);
  ServeOptions setup_opt = s.options;
  setup_opt.journal_path = dir + "setup.journal";
  if (time_setup) {
    std::filesystem::remove(setup_opt.journal_path);
    ServeSession create(setup_opt);
    std::string diag;
    if (!create.open_journal(&diag)) throw std::runtime_error(diag);
  }
  auto setup = [&] {
    const std::int64_t t0 = now_ns();
    ServeSession session(setup_opt);
    std::string diag;
    if (!session.open_journal(&diag)) throw std::runtime_error(diag);
    sda::exp::net::ServerOptions so;
    sda::exp::net::ServeServer server(session, so);
    if (!server.start(&diag)) throw std::runtime_error(diag);
    return seconds_since(t0);
  };

  // Rounds of one in-process pass, one journal replay and (serve-socket)
  // one block of set-ups: at least kMinRounds, and until the budget is
  // spent.  A pass feeds the whole script through a fresh ServeSession
  // with a journal (its fsync at the drain, as live), timing every line:
  // the service's decision latency and throughput without the socket.
  // Host stalls (CPU steal on a shared virtualised host, milliseconds
  // long) hit a line here only while it runs, not the queue behind it, so
  // these tails stay measurable where the socket's do not.  serve-socket's
  // "replication" is one such pass.  Each pass and replay is
  // host-normalized by the kernel runs that bracket it.
  HostSpeed speed(1, dir + "kernel.scratch");
  Series passes, pass_p99s, recoveries, setups;
  while (passes.raw().size() < kMinRounds || seconds_since(start) < budget_s) {
    const PassStats ps = in_process_pass(s, dir + "pass.journal", true, true);
    const double kernel_s = speed.bracket();
    ++out.attempted;
    if (!ps.replies_match || ps.fingerprint != s.fingerprint) {
      ++out.failed;
      out.fail_check("in-process pass differs from the reference session");
    }
    passes.add(ps.wall_s, kernel_s);
    pass_p99s.add(quantile(ps.sub_line_ns, 0.99) * 1e-3, kernel_s);
    const double replay_s = replay();
    recoveries.add(replay_s, speed.bracket());
    if (time_setup) add_interleaved(setups, speed, kSetupRuns, setup);
  }
  std::filesystem::remove(setup_opt.journal_path);
  std::filesystem::remove(dir + "pass.journal");
  std::filesystem::remove(journal);

  v["serve_p50_us"] = paced.p50_scaled;
  v["serve_p99_us"] = pass_p99s.median_scaled();
  v["serve_capacity_per_s"] = static_cast<double>(s.slots()) / passes.median_scaled();
  v["recovery_s"] = recoveries.median_scaled();
  if (!is_sim_workload(args.workload)) {
    v["replication_s"] = passes.median_scaled();
    v["setup_s"] = setups.median_scaled();
  }
  std::fprintf(stderr,
               "perfbench: %s %zu in-process passes: sub p99 %.1f us, %.0f subs/s; "
               "%zu replays %.4f s; paced p50 %.1f us (raw medians)\n",
               args.workload.c_str(), passes.raw().size(), pass_p99s.median_raw(),
               static_cast<double>(s.slots()) / passes.median_raw(),
               recoveries.raw().size(), recoveries.median_raw(), paced.p50);
  std::fprintf(stderr, "perfbench: %s replays (s): %s\n", args.workload.c_str(),
               json_list(recoveries.raw()).c_str());
  if (!setups.empty()) {
    std::fprintf(stderr, "perfbench: %s set-up block medians (s): %s\n",
                 args.workload.c_str(), json_list(setups.raw()).c_str());
  }
}

}  // namespace perfbench
