#include "serve/process_shard.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <utility>

namespace ganc {

namespace {

// Parses the decimal value of the space-delimited `key=` token in
// `line`; false when the key is absent or malformed.
bool ValueOf(std::string_view line, std::string_view key, uint64_t* out) {
  const std::string needle = std::string(key) + "=";
  for (size_t pos = line.find(needle); pos != std::string_view::npos;
       pos = line.find(needle, pos + 1)) {
    if (pos != 0 && line[pos - 1] != ' ') continue;
    const char* first = line.data() + pos + needle.size();
    const char* last = line.data() + line.size();
    const auto [end, ec] = std::from_chars(first, last, *out);
    return ec == std::errc{} && end != first && (end == last || *end == ' ');
  }
  return false;
}

// Parses a comma-separated id list; the empty string is the empty list.
bool ParseIds(std::string_view csv, std::vector<ItemId>* out) {
  out->clear();
  if (csv.empty()) return true;
  const char* p = csv.data();
  const char* last = csv.data() + csv.size();
  for (;;) {
    ItemId id = 0;
    const auto [end, ec] = std::from_chars(p, last, id);
    if (ec != std::errc{}) return false;
    out->push_back(id);
    if (end == last) return true;
    if (*end != ',') return false;
    p = end + 1;
  }
}

bool WaitFor(pid_t pid, int timeout_ms) {
  const timespec tick{0, 10 * 1000 * 1000};  // 10 ms
  for (int waited = 0; waited <= timeout_ms; waited += 10) {
    if (waitpid(pid, nullptr, WNOHANG) == pid) return true;
    nanosleep(&tick, nullptr);
  }
  return false;
}

}  // namespace

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = write(fd, data.data(), data.size());
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

ProcessShard::ProcessShard(ShardSpec spec, pid_t pid, int in_fd, FILE* out)
    : spec_(spec), pid_(pid), in_fd_(in_fd), out_(out) {}

ProcessShard::~ProcessShard() { Stop(); }

Result<std::unique_ptr<ProcessShard>> ProcessShard::Spawn(
    const std::vector<std::string>& argv, ShardSpec spec) {
  if (argv.empty()) return Status::InvalidArgument("child argv is empty");
  std::signal(SIGPIPE, SIG_IGN);
  const std::string label =
      std::to_string(spec.index) + "/" + std::to_string(spec.num_shards);
  // Built before fork: between fork and exec the child may only make
  // async-signal-safe calls.
  std::vector<std::string> args = argv;
  args.push_back("--shard=" + label);
  std::vector<char*> exec_argv;
  for (std::string& a : args) exec_argv.push_back(a.data());
  exec_argv.push_back(nullptr);
  // O_CLOEXEC on every parent-side end: a later child must not inherit
  // (and hold open) an earlier child's pipes, or EOF-based shutdown
  // would deadlock. dup2 clears the flag on the child's stdio copies.
  int req[2], resp[2];
  if (pipe2(req, O_CLOEXEC) != 0) return Status::IOError("pipe2() failed");
  if (pipe2(resp, O_CLOEXEC) != 0) {
    close(req[0]);
    close(req[1]);
    return Status::IOError("pipe2() failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    for (const int fd : {req[0], req[1], resp[0], resp[1]}) close(fd);
    return Status::IOError("fork() failed");
  }
  if (pid == 0) {
    // stderr is inherited, so shard logs land in the router's stream.
    dup2(req[0], STDIN_FILENO);
    dup2(resp[1], STDOUT_FILENO);
    execv(exec_argv[0], exec_argv.data());
    _exit(127);
  }
  close(req[0]);
  close(resp[1]);
  FILE* out = fdopen(resp[0], "r");
  if (out == nullptr) close(resp[0]);
  // From here the destructor reaps the child on every exit path.
  std::unique_ptr<ProcessShard> shard(new ProcessShard(spec, pid, req[1], out));
  if (out == nullptr) return Status::IOError("fdopen() failed");
  {
    // The router must never route traffic a child cannot serve yet.
    std::lock_guard<std::mutex> lock(shard->mu_);
    Result<std::string> ready = shard->ReadLineLocked();
    if (!ready.ok() || ready->rfind("READY ", 0) != 0) {
      return Status::IOError("shard " + label + " failed to start" +
                             (ready.ok() ? " (got '" + *ready + "')" : ""));
    }
    shard->NoteSnapshotLocked(*ready);
    shard->ready_ = std::move(ready).value();
  }
  return shard;
}

Status ProcessShard::TopNInto(UserId user, int n,
                              std::span<const ItemId> exclusions,
                              std::vector<ItemId>* out,
                              uint64_t* served_version, RequestTrace* trace) {
  std::string line =
      "TOPNV user=" + std::to_string(user) + " n=" + std::to_string(n);
  for (size_t i = 0; i < exclusions.size(); ++i) {
    line += i == 0 ? " exclude=" : ",";
    line += std::to_string(exclusions[i]);
  }
  if (trace != nullptr) trace->shard = static_cast<int>(spec_.index);
  const Result<std::string> reply = RoundTrip(line);
  if (!reply.ok()) return reply.status();
  if (reply->rfind("ERR ", 0) == 0) {
    return Status::InvalidArgument(reply->substr(4));
  }
  // OK user=<u> n=<n> version=<v> items=<id>,<id>,...
  const size_t items = reply->find(" items=");
  uint64_t version = 0;
  if (reply->rfind("OK ", 0) != 0 || items == std::string::npos ||
      !ValueOf(*reply, "version", &version) ||
      !ParseIds(std::string_view(*reply).substr(items + 7), out)) {
    return Status::Internal(Name() + " returned malformed reply: " + *reply);
  }
  if (served_version != nullptr) *served_version = version;
  if (trace != nullptr) trace->version = version;
  return Status::OK();
}

Status ProcessShard::Publish(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Result<std::string> reply = RoundTripLocked("PUBLISH path=" + path);
  if (!reply.ok()) return reply.status();
  if (reply->rfind("ERR ", 0) == 0) {
    return Status::InvalidArgument(reply->substr(4));
  }
  NoteSnapshotLocked(*reply);
  return Status::OK();
}

Status ProcessShard::AttachStore(const std::shared_ptr<const TopNStore>&) {
  return Status::FailedPrecondition(
      Name() + " runs in a child process; it attaches --store itself");
}

uint64_t ProcessShard::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::string ProcessShard::source() const {
  std::lock_guard<std::mutex> lock(mu_);
  return source_;
}

Status ProcessShard::MergeMetricsInto(
    MetricsSnapshot* snap, std::vector<const MetricsRegistry*>* /*merged*/) {
  static constexpr std::string_view kPrefix = "OK metricsnap ";
  const Result<std::string> reply = RoundTrip("METRICSNAP");
  if (!reply.ok()) return reply.status();
  if (reply->rfind(kPrefix, 0) != 0) {
    return Status::Internal(Name() + " returned malformed metricsnap: " +
                            *reply);
  }
  Result<MetricsSnapshot> child =
      MetricsSnapshot::Parse(std::string_view(*reply).substr(kPrefix.size()));
  if (!child.ok()) return child.status();
  snap->MergeFrom(*child);
  return Status::OK();
}

Status ProcessShard::AppendTraces(size_t count, std::string* payload) {
  std::lock_guard<std::mutex> lock(mu_);
  Result<std::string> header =
      RoundTripLocked("TRACE n=" + std::to_string(count));
  if (!header.ok()) return header.status();
  uint64_t lines = 0;
  if (header->rfind("OK traces ", 0) != 0 ||
      !ValueOf(*header, "lines", &lines)) {
    return Status::Internal(Name() + " trace dump failed");
  }
  for (uint64_t i = 0; i < lines; ++i) {
    Result<std::string> line = ReadLineLocked();
    if (!line.ok()) return line.status();
    payload->append(*line);
    payload->push_back('\n');
  }
  return Status::OK();
}

void ProcessShard::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (in_fd_ >= 0) close(in_fd_);
  in_fd_ = -1;
  if (out_ != nullptr) fclose(out_);
  out_ = nullptr;
  if (pid_ < 0) return;
  // stdin EOF first (clean drain and shutdown report), escalating only
  // when the child fails to exit.
  if (!WaitFor(pid_, 5000)) {
    kill(pid_, SIGTERM);
    if (!WaitFor(pid_, 2000)) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  pid_ = -1;
}

Result<std::string> ProcessShard::RoundTrip(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  return RoundTripLocked(line);
}

Result<std::string> ProcessShard::RoundTripLocked(const std::string& line) {
  if (in_fd_ < 0 || !WriteAll(in_fd_, line + "\n")) {
    return Status::IOError(Name() + " write failed");
  }
  return ReadLineLocked();
}

Result<std::string> ProcessShard::ReadLineLocked() {
  char* buf = nullptr;
  size_t cap = 0;
  ssize_t len = out_ == nullptr ? -1 : getline(&buf, &cap, out_);
  if (len < 0) {
    free(buf);
    return Status::IOError(Name() + " exited");
  }
  while (len > 0 && (buf[len - 1] == '\n' || buf[len - 1] == '\r')) --len;
  std::string line(buf, static_cast<size_t>(len));
  free(buf);
  return line;
}

void ProcessShard::NoteSnapshotLocked(const std::string& reply) {
  ValueOf(reply, "version", &version_);
  const size_t source = reply.find(" source=");
  if (source != std::string::npos) source_ = reply.substr(source + 8);
}

}  // namespace ganc
