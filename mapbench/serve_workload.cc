// serve_hot: an in-process ComposeServer driven over loopback by one
// load-generator thread holding `nproc` connections, each with one request
// outstanding (closed loop — mapcomp's callers wait for a reply before
// sending the next request). The hot set of distinct problems is cached
// during set-up, so every request is answered by the admission probe on
// the I/O thread.
//
// Replies are checked byte-for-byte against an expected body built in
// set-up, masking only request_id and cache_hit; nothing is parsed in the
// timed loop.

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <utility>

#include "src/common/rand.h"
#include "src/runtime/compose_service.h"
#include "src/serve/compose_client.h"
#include "src/serve/compose_server.h"
#include "src/serve/protocol.h"
#include "workloads.h"

namespace mapbench {

using mapcomp::runtime::ComposeService;
using mapcomp::runtime::ServedResult;
using mapcomp::serve::ComposeServer;
using mapcomp::serve::FrameDecoder;
using mapcomp::serve::FrameType;
using mapcomp::serve::ServeReply;
using mapcomp::serve::ServeRequest;

namespace {

/// Bytes before the body in a request frame: u32 length + magic, version,
/// frame type. The body starts with the u64 request_id.
constexpr size_t kFrameBodyOffset = 8;

/// Hot-set shape: reconciliation tasks at three schema sizes plus the
/// literature suite — 22 + 3 * 32 = 118 distinct problems, below the
/// service's default 128-entry cache. Popularity ranks follow corpus
/// order, which interleaves the three sizes, so every prefix of the ranks
/// holds all of them; the literature problems are the least popular.
/// The sizes stay close together: a wider spread (say 5 to 15 relations)
/// gives each seed a few much larger problems whose cost moves the
/// per-request mean and the tail from seed to seed.
const std::vector<ReconciliationShape> kShapes = {
    {/*schema_size=*/6, /*num_edits=*/8, /*max_arity=*/10},
    {/*schema_size=*/8, /*num_edits=*/8, /*max_arity=*/10},
    {/*schema_size=*/10, /*num_edits=*/8, /*max_arity=*/10},
};
constexpr int kTasksPerShape = 32;
constexpr double kZipf = 0.8;

struct Item {
  Task task;
  std::string frame;     ///< request frame, request_id 0
  std::string expected;  ///< expected kOk reply body, request_id 0
  mapcomp::CompositionResult oracle;
};

void PutId(std::string* s, size_t offset, uint64_t id) {
  for (int i = 0; i < 8; ++i) {
    (*s)[offset + static_cast<size_t>(i)] =
        static_cast<char>((id >> (8 * i)) & 0xff);
  }
}

std::string ExpectedBody(const mapcomp::CompositionResult& result) {
  std::string body;
  ServeReply::OkReply(0, ServedResult::FromResult(result), /*hit=*/false)
      .SerializeTo(&body);
  return body;
}

/// Builds one item; false when the problem cannot cross the wire.
bool PrepareItem(Task task, Item* out) {
  std::string body;
  if (!ServeRequest::Of(task.problem).SerializeTo(&body).ok()) return false;
  mapcomp::serve::EncodeFrame(FrameType::kRequest, body, &out->frame);
  out->oracle = mapcomp::Compose(task.problem);
  out->expected = ExpectedBody(out->oracle);
  out->task = std::move(task);
  return true;
}

struct ServeSetup {
  std::vector<Item> items;
  std::unique_ptr<ComposeService> service;
  std::unique_ptr<ComposeServer> server;
  double gen_s = 0.0;
  bool ok = true;
  std::string error;
};

/// Generates the problems, computes the oracle, starts the server and
/// warms it: every item is sent once, so the cache holds the whole set.
std::unique_ptr<ServeSetup> Setup() {
  auto s = std::make_unique<ServeSetup>();
  Clock::time_point gen_start = Clock::now();
  std::vector<Task> recon = ReconciliationTasks(
      kShapes, kTasksPerShape, mapcomp::rnd::DeriveSeed(kCorpusSeed, 1));
  std::vector<Task> lit = LiteratureTasks();
  s->gen_s = SecondsSince(gen_start);

  for (Task& t : lit) recon.push_back(std::move(t));
  for (Task& task : recon) {
    const std::string name = task.name;
    Item item;
    if (!PrepareItem(std::move(task), &item)) {
      s->ok = false;
      s->error = "problem " + name + " cannot be served";
      return s;
    }
    s->items.push_back(std::move(item));
  }

  s->service = std::make_unique<ComposeService>();
  s->server =
      std::make_unique<ComposeServer>(s->service.get(), mapcomp::serve::ServerOptions{});
  mapcomp::Status started = s->server->Start();
  if (!started.ok()) {
    s->ok = false;
    s->error = "server start: " + started.ToString();
    return s;
  }
  auto client = mapcomp::serve::ComposeClient::Connect("127.0.0.1",
                                                       s->server->port());
  if (!client.ok()) {
    s->ok = false;
    s->error = "warm-up connect: " + client.status().ToString();
    return s;
  }
  for (const Item& item : s->items) {
    mapcomp::Status sent = (*client)->SendRaw(item.frame);
    mapcomp::Result<ServeReply> reply =
        sent.ok() ? (*client)->Recv() : mapcomp::Result<ServeReply>(sent);
    if (!reply.ok() || reply->status != mapcomp::serve::WireStatus::kOk) {
      s->ok = false;
      s->error = "warm-up request for " + item.task.name + " failed";
      return s;
    }
  }
  return s;
}

/// One op of a traced phase, kept for the replay.
struct IssuedOp {
  uint64_t id = 0;
  size_t item = 0;
};

/// A window is whole requests over at least a quarter second, about two
/// thousand of them, so its rate is the machine's speed in that quarter
/// second, not the request mix. When it is due, no new request is sent;
/// the last reply closes it, and the gauge moves the server's threads to
/// the fastest CPU and the load generator to the next, with nothing in
/// flight.
constexpr double kWindowSeconds = 0.25;

struct PhaseOutput {
  explicit PhaseOutput(double planned_seconds)
      : timing(planned_seconds, kWindowSeconds) {}
  Tally tally;
  PhaseTiming timing;
  std::vector<IssuedOp> issued;
  double seconds = 0.0;
  double loadgen_cpu_us = 0.0;
};

/// Single-threaded closed-loop load generator over `conns` connections.
class LoadGen {
 public:
  /// The seed draws the request sequence.
  LoadGen(const std::vector<Item>& items, uint64_t seed, CoreGauge* gauge)
      : items_(items), gauge_(gauge),
        zipf_(static_cast<int>(items.size()), kZipf),
        rng_(mapcomp::rnd::DeriveSeed(seed, 2)) {}

  ~LoadGen() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epfd_ >= 0) ::close(epfd_);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool Connect(int port, int count) {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) return false;
    conns_.resize(static_cast<size_t>(count));
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) return false;
      sockaddr_in addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<uint16_t>(port));
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        return false;
      }
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
      epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, c.fd, &ev) != 0) return false;
    }
    return true;
  }

  /// Issues requests for `seconds`, then waits (bounded) for the replies
  /// still outstanding; a reply that never comes counts as missing.
  PhaseOutput Run(double seconds, Tracer* tracer) {
    out_ = std::make_unique<PhaseOutput>(seconds);
    tracer_ = tracer;
    const double cpu_start = ThreadCpuMicros();
    const Clock::time_point start = Clock::now();
    clock_ = PhaseClock();
    stop_at_ = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    clock_.Read(&out_->timing, [this] { return gauge_->PinApart(); });
    IssueAll();
    const Clock::time_point drain_deadline =
        stop_at_ + std::chrono::seconds(10);
    epoll_event events[16];
    while (Outstanding() > 0 && Clock::now() < drain_deadline) {
      int n = ::epoll_wait(epfd_, events, 16, 100);
      for (int i = 0; i < n; ++i) {
        Conn& c = conns_[events[i].data.u64];
        if (c.fd < 0) continue;
        if (events[i].events & (EPOLLERR | EPOLLHUP)) {
          Fail(c, Outcome::kTransport);
          continue;
        }
        if (events[i].events & EPOLLOUT) Flush(c);
        if (c.fd >= 0 && (events[i].events & EPOLLIN)) Read(c);
      }
    }
    for (Conn& c : conns_) {
      if (c.busy) Fail(c, Outcome::kMissing);
    }
    out_->seconds = SecondsSince(start);
    out_->loadgen_cpu_us = ThreadCpuMicros() - cpu_start;
    return std::move(*out_);
  }

 private:
  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    std::string out;
    size_t out_pos = 0;
    bool busy = false;
    bool want_out = false;
    IssuedOp op;
    Clock::time_point sent_at;
    uint32_t op_span = Tracer::kNoParent;
    uint32_t phase_span = Tracer::kNoParent;
  };

  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.busy ? 1 : 0;
    return n;
  }

  void IssueAll() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) Issue(c);
    }
  }

  void Issue(Conn& c) {
    if (Clock::now() >= stop_at_) return;
    IssuedOp op;
    op.id = ++next_id_;
    op.item = static_cast<size_t>(zipf_.Sample(&rng_));
    const Item& item = items_[op.item];
    c.out = item.frame;
    PutId(&c.out, kFrameBodyOffset, op.id);
    c.op = op;
    c.out_pos = 0;
    c.busy = true;
    c.op_span = tracer_->Begin("client.op", op.id);
    c.phase_span = tracer_->Begin("client.write", op.id, c.op_span);
    c.sent_at = Clock::now();
    Flush(c);
  }

  void Arm(Conn& c, bool want_out) {
    if (c.want_out == want_out) return;
    c.want_out = want_out;
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<uint64_t>(&c - conns_.data());
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void Flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      ssize_t n = ::write(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos);
      if (n > 0) {
        c.out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        Arm(c, true);
        return;
      }
      Fail(c, Outcome::kTransport);
      return;
    }
    Arm(c, false);
    if (c.busy && c.phase_span != Tracer::kNoParent) {
      tracer_->End(c.phase_span);
      c.phase_span = tracer_->Begin("client.wait", c.op.id, c.op_span);
    }
  }

  void Read(Conn& c) {
    char buf[65536];
    ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n == 0) {
      Fail(c, Outcome::kTransport);
      return;
    }
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        Fail(c, Outcome::kTransport);
      }
      return;
    }
    c.decoder.Feed(reinterpret_cast<const uint8_t*>(buf), static_cast<size_t>(n));
    FrameType type;
    std::string body;
    for (;;) {
      FrameDecoder::Next next = c.decoder.Poll(&type, &body);
      if (next == FrameDecoder::Next::kNeedMore) return;
      if (next == FrameDecoder::Next::kError || !c.busy) {
        Fail(c, Outcome::kTransport);
        return;
      }
      OnReply(c, body);
      if (c.fd < 0) return;
    }
  }

  void OnReply(Conn& c, const std::string& body) {
    const Clock::time_point done = Clock::now();
    tracer_->End(c.phase_span);
    Outcome outcome;
    {
      ScopedSpan check(tracer_, "client.check", c.op.id, c.op_span);
      outcome = ClassifyReply(body, items_[c.op.item].expected, c.op.id);
    }
    tracer_->End(c.op_span);
    out_->tally.Record(outcome);
    if (outcome == Outcome::kOk) out_->timing.Add(MicrosBetween(c.sent_at, done));
    if (tracer_->enabled()) out_->issued.push_back(c.op);
    c.busy = false;
    if (!out_->timing.Due(clock_.Active(done))) {
      Issue(c);
    } else if (Outstanding() == 0) {
      out_->timing.Boundary(clock_.Active(done));
      clock_.Read(&out_->timing, [this] { return gauge_->PinApart(); });
      IssueAll();
    }
  }

  /// Records the outstanding op (if any) as failed and drops the
  /// connection.
  void Fail(Conn& c, Outcome outcome) {
    if (c.busy) {
      out_->tally.Record(outcome);
      c.busy = false;
    }
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
  }

  const std::vector<Item>& items_;
  CoreGauge* gauge_;
  mapcomp::rnd::ZipfSampler zipf_;
  std::mt19937_64 rng_;
  int epfd_ = -1;
  std::vector<Conn> conns_;
  PhaseClock clock_;
  Clock::time_point stop_at_;
  uint64_t next_id_ = 0;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<PhaseOutput> out_;
};

/// Replays traced ops in-process through the server's layer calls, in the
/// server's order: decode → parse → key → probe → serialize. Runs after the
/// load phases on the now idle service. Returns false when a replayed probe
/// misses the cache, which a hot request never may.
bool Replay(const std::vector<Item>& items, const std::vector<IssuedOp>& ops,
            double budget_s, ComposeService* service, Tracer* tracer) {
  const Clock::time_point start = Clock::now();
  for (const IssuedOp& op : ops) {
    if (SecondsSince(start) >= budget_s) break;
    const Item& item = items[op.item];
    std::string frame = item.frame;
    PutId(&frame, kFrameBodyOffset, op.id);

    ScopedSpan root(tracer, "replay.request", op.id);
    std::string body;
    {
      ScopedSpan span(tracer, "serve.frame_decode", op.id, root.id());
      FrameDecoder decoder;
      decoder.Feed(frame);
      FrameType type;
      (void)decoder.Poll(&type, &body);
    }
    mapcomp::Result<ServeRequest> request = mapcomp::Status::Internal("unparsed");
    {
      ScopedSpan span(tracer, "serve.request_parse", op.id, root.id());
      request = ServeRequest::Parse(
          reinterpret_cast<const uint8_t*>(body.data()), body.size());
    }
    if (!request.ok()) return false;
    {
      // The key is computed again inside TryServeCached; this span times
      // that part on its own.
      ScopedSpan span(tracer, "serve.cache_key", op.id, root.id());
      std::string key = service->default_options().Fingerprint() + "\n" +
                        request->problem.Fingerprint();
      (void)key;
    }
    ComposeService::ResultPtr result;
    {
      ScopedSpan span(tracer, "runtime.probe", op.id, root.id());
      result = service->TryServeCached(*request);
    }
    if (result == nullptr) return false;
    {
      ScopedSpan span(tracer, "serve.reply_serialize", op.id, root.id());
      std::string reply_body, reply_frame;
      ServeReply::OkReply(op.id, *result, /*hit=*/true).SerializeTo(&reply_body);
      mapcomp::serve::EncodeFrame(FrameType::kReply, reply_body, &reply_frame);
    }
  }
  return true;
}

}  // namespace

WorkloadResult RunServeHot(const RunConfig& config) {
  WorkloadResult r;
  CoreGauge gauge;
  std::unique_ptr<ServeSetup> setup;
  SetupTimes setup_times;
  auto one_setup = [&] {
    setup.reset();  // stop the previous server before timing the next
    ColdInterner();
    TimeSetup(&gauge, &setup_times, [&] { setup = Setup(); });
    if (!setup->ok) {
      r.setup_ok = false;
      r.notes.push_back("set-up failed: " + setup->error);
    }
    return setup->ok;
  };
  while (setup_times.NeedAnother(kSetupSecondsBefore)) {
    if (!one_setup()) return r;
  }
  r.layer["simulator.gen_s"] = setup->gen_s;

  ComposeAgg quality;
  for (const Item& item : setup->items) quality.Add(item.oracle);
  r.eliminated_fraction = quality.EliminatedFraction();
  r.output_ops = quality.MeanOutputOps();

  LoadGen gen(setup->items, config.seed, &gauge);
  if (!gen.Connect(setup->server->port(), config.nproc)) {
    r.setup_ok = false;
    r.notes.push_back("load generator could not connect");
    return r;
  }

  Tracer off(false);
  const double untraced_s =
      config.trace ? config.seconds * kUntracedShare : config.seconds;
  mapcomp::serve::ServerStats server_before = setup->server->Stats();
  mapcomp::runtime::ServiceStats service_before = setup->service->Stats();
  mapcomp::InternerStats interner_before =
      mapcomp::ExprInterner::Global().Stats();
  PhaseOutput phase = gen.Run(untraced_s, &off);
  mapcomp::InternerStats interner_after = mapcomp::ExprInterner::Global().Stats();
  mapcomp::serve::ServerStats server_after = setup->server->Stats();
  mapcomp::runtime::ServiceStats service_after = setup->service->Stats();

  r.tally = phase.tally;
  r.timing = phase.timing.Summarize();
  r.notes.push_back("loadgen: " + std::to_string(config.nproc) +
                    " connections, " +
                    std::to_string(phase.loadgen_cpu_us /
                                   std::max(1.0, static_cast<double>(
                                                     phase.tally.attempted))) +
                    " us generator CPU per op");
  if (!config.trace) {
    while (setup_times.NeedAnother(kSetupSeconds)) {
      if (!one_setup()) return r;
    }
    r.setup_s = setup_times.Seconds();
    r.notes.push_back(setup_times.Note());
    r.notes.push_back(GaugeNote(gauge));
    return r;
  }

  // ---- traced run: counters from the untraced phase ----
  std::map<std::string, double>& L = r.layer;
  const double parsed = static_cast<double>(std::max<uint64_t>(
      1, server_after.requests_parsed - server_before.requests_parsed));
  L["serve.request_bytes"] =
      static_cast<double>(server_after.bytes_read - server_before.bytes_read) /
      parsed;
  L["serve.reply_bytes"] = static_cast<double>(server_after.bytes_written -
                                               server_before.bytes_written) /
                           parsed;
  L["serve.bypass_ratio"] = static_cast<double>(server_after.cache_bypass -
                                                server_before.cache_bypass) /
                            parsed;
  L["serve.protocol_errors"] = static_cast<double>(
      server_after.protocol_errors - server_before.protocol_errors);
  const uint64_t hits = service_after.hits - service_before.hits;
  const uint64_t misses = service_after.misses - service_before.misses;
  L["runtime.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  L["runtime.cache_bytes_peak"] =
      static_cast<double>(service_after.cache_bytes_peak);
  // A hot request composes nothing; its interner traffic is per request.
  EmitInternerDelta(interner_before, interner_after, phase.tally.attempted, &L);
  L["bench.loadgen_cpu_us_per_op"] =
      phase.loadgen_cpu_us /
      std::max(1.0, static_cast<double>(phase.tally.attempted));

  // ---- traced phase ----
  Tracer tracer(true);
  PhaseOutput traced = gen.Run(config.seconds * kTracedShare, &tracer);
  r.tally.MergeFrom(traced.tally);
  L["bench.tracing_overhead"] = TracingOverhead(
      phase.tally.ok(), phase.seconds, traced.tally.ok(), traced.seconds);
  const double client_p50 = traced.timing.All().Median();
  L["serve.client_p50_us"] = client_p50;

  // ---- replay of the traced ops through the server's layer calls ----
  if (!Replay(setup->items, traced.issued, config.seconds * kReplayShare,
              setup->service.get(), &tracer)) {
    r.setup_ok = false;
    r.notes.push_back("a replayed hot request missed the cache");
  }
  L["serve.frame_decode_us"] = tracer.MedianSelfMicros("serve.frame_decode");
  L["serve.request_parse_us"] = tracer.MedianSelfMicros("serve.request_parse");
  L["serve.cache_key_us"] = tracer.MedianSelfMicros("serve.cache_key");
  L["runtime.probe_us"] = tracer.MedianSelfMicros("runtime.probe");
  L["serve.reply_serialize_us"] = tracer.MedianSelfMicros("serve.reply_serialize");
  // The probe computes the cache key itself, so the key is not added again.
  const double server_path_us = L["serve.frame_decode_us"] +
                                L["serve.request_parse_us"] +
                                L["runtime.probe_us"] +
                                L["serve.reply_serialize_us"];
  L["serve.unaccounted_us"] = client_p50 - server_path_us;
  r.notes.push_back(
      "server path (replayed p50s): decode " +
      std::to_string(L["serve.frame_decode_us"]) + " + parse " +
      std::to_string(L["serve.request_parse_us"]) + " + probe " +
      std::to_string(L["runtime.probe_us"]) + " + serialize " +
      std::to_string(L["serve.reply_serialize_us"]) + " + unaccounted " +
      std::to_string(L["serve.unaccounted_us"]) + " = client p50 " +
      std::to_string(client_p50) + " us");

  // compose.*: the workload's distinct compositions, composed directly.
  ComposeAgg distinct;
  uint64_t op = 0;
  for (const Item& item : setup->items) {
    Clock::time_point t0 = Clock::now();
    mapcomp::CompositionResult res;
    {
      ScopedSpan span(&tracer, "compose.distinct", op++);
      res = mapcomp::Compose(item.task.problem);
    }
    distinct.Add(res, MicrosBetween(t0, Clock::now()));
  }
  distinct.Emit(&L);

  std::vector<std::string> texts;
  for (const Item& item : setup->items) texts.push_back(item.task.text);
  L["parser.bytes_per_s"] = ParserBytesPerSecond(texts, 0.2, &tracer);

  if (!config.span_path.empty() && !tracer.WriteJsonl(config.span_path)) {
    r.notes.push_back("could not write spans to " + config.span_path);
  }
  r.notes.push_back("spans recorded: " + std::to_string(tracer.size()));
  return r;
}

}  // namespace mapbench
