// The benchmark's client side: a `ganc_serve` child process and a
// single-threaded poll() load generator over a few TCP connections.
//
// Open loop: every request has a due time fixed before the phase starts
// (seeded Poisson arrivals); it is sent at that time whether or not
// earlier ones were answered, and its latency runs from the due time, so
// a stall is charged to every request it delays. How late the generator
// itself ran is recorded per request (`sent - due`).
//
// Closed loop: each connection is a caller with one request in flight,
// sending the next as soon as the previous one is answered.
//
// Responses on one connection come back in request order (the server
// handles a connection's lines one at a time), so each connection
// matches responses to requests with a FIFO.

#ifndef GANC_BENCH_E2E_LOADGEN_H_
#define GANC_BENCH_E2E_LOADGEN_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace ganc::e2e {

/// A `ganc_serve --port=0` child (see SpawnChild). Launch blocks until
/// the server prints "LISTENING port=N"; the destructor stops it and
/// waits for it.
class ServerProcess {
 public:
  static std::unique_ptr<ServerProcess> Launch(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path) {
    std::vector<std::string> argv = {binary};
    argv.insert(argv.end(), args.begin(), args.end());
    int out[2];
    if (pipe2(out, O_CLOEXEC) != 0) Die("pipe2 failed");
    const int log_fd =
        open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    const int null_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (log_fd < 0 || null_fd < 0) Die("cannot open " + log_path);
    const pid_t pid = SpawnChild(binary, argv, null_fd, out[1], log_fd);
    close(out[1]);
    close(log_fd);
    close(null_fd);
    auto server =
        std::unique_ptr<ServerProcess>(new ServerProcess(pid, out[0]));
    server->log_path_ = log_path;
    server->port_ = server->AwaitListening(120.0);
    return server;
  }

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM (the server's clean-shutdown signal), then SIGKILL if it has
  /// not exited within 10 s; always reaps the child.
  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      bool exited = false;
      for (int i = 0; i < 1000 && !exited; ++i) {
        exited = waitpid(pid_, nullptr, WNOHANG) == pid_;
        if (!exited) usleep(10000);
      }
      if (!exited) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) close(stdout_fd_);
    stdout_fd_ = -1;
  }

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  int AwaitListening(double timeout_s) {
    std::string buf;
    const double deadline = Now() + timeout_s;
    while (Now() < deadline) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      const int rc = poll(&pfd, 1, 100);
      if (rc < 0 && errno != EINTR) break;
      if (rc <= 0) continue;
      char chunk[256];
      const ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
      if (n <= 0) break;  // server exited before listening
      buf.append(chunk, static_cast<size_t>(n));
      const size_t pos = buf.find("LISTENING port=");
      if (pos != std::string::npos &&
          buf.find('\n', pos) != std::string::npos) {
        return std::atoi(buf.c_str() + pos + 15);
      }
    }
    Stop();
    Die("ganc_serve did not start (log: " + log_path_ + "):\n" +
        ReadFile(log_path_));
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  std::string log_path_;
};

/// Connects to 127.0.0.1:port with TCP_NODELAY (the client must never be
/// the side that holds small segments back) and returns a non-blocking
/// socket.
inline int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) Die("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    Die("connect() to port " + std::to_string(port) + " failed");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One request of a phase. `due` is seconds from the phase start (open
/// loop only); `conn` indexes the generator's connections.
struct Request {
  double due = 0.0;
  int conn = 0;
  std::string line;
};

/// What happened to one request. Times are seconds from the phase start.
struct Outcome {
  double sent = -1.0;
  double done = -1.0;
  std::string response;
};

class LoadGen {
 public:
  /// Opens `num_conns` traffic connections plus one control connection
  /// (index num_conns) for PUBLISH and metrics scrapes.
  LoadGen(int port, int num_conns) : num_conns_(num_conns) {
    for (int c = 0; c <= num_conns; ++c) {
      conns_.emplace_back();
      conns_.back().fd = ConnectLoopback(port);
    }
  }
  ~LoadGen() {
    for (Conn& c : conns_) close(c.fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  int control() const { return num_conns_; }

  /// Sends each request at its due time (requests sorted by `due`) and
  /// collects responses until all arrived or `timeout_s` passed since the
  /// last due time.
  std::vector<Outcome> RunOpenLoop(const std::vector<Request>& reqs,
                                   double timeout_s) {
    std::vector<Outcome> out(reqs.size());
    const double t0 = Now();
    const double deadline =
        t0 + (reqs.empty() ? 0.0 : reqs.back().due) + timeout_s;
    size_t next = 0;
    size_t answered = 0;
    on_response_ = [&](size_t idx, std::string&& line) {
      out[idx].done = Now() - t0;
      out[idx].response = std::move(line);
      ++answered;
    };
    while (answered < reqs.size()) {
      const double now = Now();
      while (next < reqs.size() && t0 + reqs[next].due <= now) {
        Enqueue(reqs[next].conn, reqs[next].line, next);
        out[next].sent = now - t0;
        ++next;
      }
      if (now >= deadline) break;
      const double wait =
          next < reqs.size() ? t0 + reqs[next].due - now : deadline - now;
      PollOnce(wait);
    }
    Abandon();
    return out;
  }

  /// Keeps one request in flight on every traffic connection for
  /// `duration_s`; `next(conn)` produces that connection's next request
  /// line. Returns every request sent with its outcome, in send order.
  std::vector<std::pair<Request, Outcome>> RunClosedLoop(
      double duration_s,
      const std::function<std::string(int)>& next, double timeout_s) {
    std::vector<std::pair<Request, Outcome>> out;
    const double t0 = Now();
    const double end = t0 + duration_s;
    size_t in_flight = 0;
    auto send_next = [&](int conn) {
      Request r;
      r.conn = conn;
      r.line = next(conn);
      r.due = Now() - t0;
      Outcome o;
      o.sent = r.due;
      Enqueue(conn, r.line, out.size());
      out.emplace_back(std::move(r), std::move(o));
      ++in_flight;
    };
    on_response_ = [&](size_t idx, std::string&& line) {
      const double now = Now();
      out[idx].second.done = now - t0;
      out[idx].second.response = std::move(line);
      --in_flight;
      if (now < end) send_next(out[idx].first.conn);
    };
    for (int c = 0; c < num_conns_; ++c) send_next(c);
    for (;;) {
      const double now = Now();
      if (in_flight == 0 || now >= end + timeout_s) break;
      PollOnce(now < end ? end - now : end + timeout_s - now);
    }
    Abandon();
    return out;
  }

  /// Blocking single-line round trip on the control connection.
  std::string RoundTrip(const std::string& line, double timeout_s) {
    std::string response;
    bool done = false;
    on_response_ = [&](size_t, std::string&& l) {
      response = std::move(l);
      done = true;
    };
    Enqueue(control(), line, 0);
    const double deadline = Now() + timeout_s;
    while (!done && Now() < deadline) PollOnce(deadline - Now());
    Abandon();
    if (!done) Die("no response to '" + line + "'");
    return response;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_pos = 0;
    std::string in;
    std::deque<size_t> inflight;  // request indices, send order
  };

  void Enqueue(int conn, const std::string& line, size_t idx) {
    Conn& c = conns_[static_cast<size_t>(conn)];
    c.out += line;
    c.out.push_back('\n');
    c.inflight.push_back(idx);
    Flush(c);
  }

  void Flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n =
          send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
        Die("send() failed: " + std::string(strerror(errno)));
      }
      c.out_pos += static_cast<size_t>(n);
    }
    c.out.clear();
    c.out_pos = 0;
  }

  /// Waits up to `wait_s` for socket activity, then writes pending
  /// output and dispatches every complete response line.
  void PollOnce(double wait_s) {
    std::vector<pollfd> fds(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      const short events = conns_[i].out.empty() ? POLLIN : POLLIN | POLLOUT;
      fds[i] = {conns_[i].fd, events, 0};
    }
    wait_s = std::max(0.0, wait_s);
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec =
        static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
    const int rc = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0) {
      if (errno == EINTR) return;
      Die("ppoll() failed");
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Flush(c);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[65536];
      for (;;) {
        const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        Die("server closed connection " + std::to_string(i));
      }
      size_t start = 0;
      for (size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        if (c.inflight.empty()) Die("unsolicited response line");
        const size_t idx = c.inflight.front();
        c.inflight.pop_front();
        on_response_(idx, c.in.substr(start, nl - start));
      }
      c.in.erase(0, start);
    }
  }

  /// Ends a phase. A request still unanswered after the phase timeout
  /// means the server hung; its late response could not be told apart
  /// from the next phase's, so the run stops here without a result.
  void Abandon() {
    for (const Conn& c : conns_) {
      if (!c.inflight.empty()) {
        Die(std::to_string(c.inflight.size()) +
            " requests unanswered at the phase timeout");
      }
    }
    on_response_ = nullptr;
  }

  int num_conns_;
  std::vector<Conn> conns_;
  std::function<void(size_t, std::string&&)> on_response_;
};

}  // namespace ganc::e2e

#endif  // GANC_BENCH_E2E_LOADGEN_H_
