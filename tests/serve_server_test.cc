// Loopback integration tests for the serving tier: fingerprint parity with
// direct composition, cache-aware admission (probe bypass + hit flag),
// protocol-error handling (framing desync closes, malformed bodies don't),
// and deterministic backpressure — a provably full admission queue sheds
// with kOverloaded while admitted work completes correctly. The TSan CI
// job runs this file (I/O thread + dispatchers + compose pool).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/wire_format.h"
#include "src/parser/parser.h"
#include "src/runtime/compose_service.h"
#include "src/serve/compose_client.h"
#include "src/serve/compose_server.h"
#include "src/simulator/scenarios.h"

namespace mapcomp {
namespace serve {
namespace {

using runtime::ComposeService;
using runtime::ComposeServiceOptions;

std::unique_ptr<ComposeClient> MustConnect(int port) {
  Result<std::unique_ptr<ComposeClient>> client =
      ComposeClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.ok() ? std::move(*client) : nullptr;
}

/// A well-formed request frame over σ1 {R(2)}, σ2 {S(2)}, σ3 {T(2)} whose
/// Σ12 is `sigma12` and whose Σ23 is `S <= T`.
std::string RequestFrame(uint64_t request_id, const std::string& sigma12) {
  Signature s1, s2, s3;
  EXPECT_TRUE(s1.AddRelation("R", 2).ok());
  EXPECT_TRUE(s2.AddRelation("S", 2).ok());
  EXPECT_TRUE(s3.AddRelation("T", 2).ok());
  std::string body;
  common::PutU64(&body, request_id);
  common::PutU8(&body, 0);  // no options
  common::PutString(&body, "hostile");
  s1.AppendTo(&body);
  s2.AppendTo(&body);
  s3.AppendTo(&body);
  common::PutString(&body, sigma12);
  common::PutString(&body, "S <= T");
  common::PutStringList(&body, {});
  std::string frame;
  EncodeFrame(FrameType::kRequest, body, &frame);
  return frame;
}

TEST(ComposeServerTest, LoopbackComposeMatchesDirectCompose) {
  ComposeService service;
  ComposeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  for (int width = 2; width <= 6; ++width) {
    CompositionProblem problem = sim::BuildFanoutProblem(width);
    std::string direct_fp =
        Compose(problem, service.default_options()).Fingerprint();

    Result<ServeReply> reply = client->Call(
        ServeRequest::Of(std::move(problem), static_cast<uint64_t>(width)));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->status, WireStatus::kOk);
    EXPECT_EQ(reply->request_id, static_cast<uint64_t>(width));
    // The wire answer is the direct answer: one fingerprint, two paths.
    EXPECT_EQ(reply->result.Fingerprint(), direct_fp);
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_parsed, 5u);
  EXPECT_GE(stats.replies_sent, 5u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ComposeServerTest, HotTrafficBypassesTheQueueWithHitFlag) {
  ComposeService service;
  ComposeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  Result<ServeReply> cold =
      client->Call(ServeRequest::Of(sim::BuildFanoutProblem(4), 1));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->status, WireStatus::kOk);
  EXPECT_FALSE(cold->cache_hit);

  Result<ServeReply> warm =
      client->Call(ServeRequest::Of(sim::BuildFanoutProblem(4), 2));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->status, WireStatus::kOk);
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->result.Fingerprint(), cold->result.Fingerprint());

  // The warm request never touched the admission queue.
  EXPECT_GE(server.Stats().cache_bypass, 1u);
}

TEST(ComposeServerTest, FramingDesyncRepliesThenCloses) {
  ComposeService service;
  ComposeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  // A frame with corrupted magic: the stream cannot be re-trusted.
  std::string frame;
  EncodeFrame(FrameType::kRequest, "whatever", &frame);
  frame[4] = 'Z';
  ASSERT_TRUE(client->SendRaw(frame).ok());

  Result<ServeReply> reply = client->Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, WireStatus::kInvalidArgument);

  // ...and then the server closes (clean EOF on our side).
  Result<ServeReply> eof = client->Recv();
  EXPECT_FALSE(eof.ok());
  EXPECT_GE(server.Stats().protocol_errors, 1u);
}

TEST(ComposeServerTest, MalformedBodyRefusesRequestKeepsConnection) {
  ComposeService service;
  ComposeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  // Well-framed garbage body carrying a recognizable request_id prefix.
  std::string body;
  uint64_t id = 0xDEADBEEF;
  for (int i = 0; i < 8; ++i) {
    body.push_back(static_cast<char>((id >> (8 * i)) & 0xff));
  }
  body += "\x07garbage-after-the-id";
  std::string frame;
  EncodeFrame(FrameType::kRequest, body, &frame);
  ASSERT_TRUE(client->SendRaw(frame).ok());

  Result<ServeReply> refused = client->Recv();
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status, WireStatus::kInvalidArgument);
  // The salvaged id lets the client match the refusal to its request.
  EXPECT_EQ(refused->request_id, id);

  // The length prefix kept the stream in sync: the connection still works.
  Result<ServeReply> ok =
      client->Call(ServeRequest::Of(sim::BuildFanoutProblem(3), 5));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, WireStatus::kOk);
  EXPECT_EQ(ok->request_id, 5u);
}

TEST(ComposeServerTest, DeeplyNestedConstraintRefusesRequestKeepsConnection) {
  ComposeService service;
  ComposeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  // A well-formed request body whose Σ12 text nests `pi[1,2](` 20 000
  // levels deep: about 180 KB, far below the frame cap, far past the
  // parser's nesting bound.
  std::string deep = "R <= ";
  for (int i = 0; i < 20000; ++i) deep += "pi[1,2](";
  deep += "S" + std::string(20000, ')');
  ASSERT_TRUE(client->SendRaw(RequestFrame(9, deep)).ok());

  Result<ServeReply> refused = client->Recv();
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status, WireStatus::kInvalidArgument);
  EXPECT_EQ(refused->request_id, 9u);

  Result<ServeReply> ok =
      client->Call(ServeRequest::Of(sim::BuildFanoutProblem(3), 10));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, WireStatus::kOk);
  EXPECT_EQ(ok->request_id, 10u);
}

TEST(ComposeServerTest, FlatChainRefusesRequestKeepsConnection) {
  ComposeService service;
  ComposeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  // `R + R + … + R` with 20 000 terms (80 KB): no parenthesis nests, but
  // the parser builds a union chain 20 000 levels deep, past its bound.
  std::string chain = "R";
  for (int i = 1; i < 20000; ++i) chain += " + R";
  ASSERT_TRUE(client->SendRaw(RequestFrame(11, chain + " <= S")).ok());

  Result<ServeReply> refused = client->Recv();
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status, WireStatus::kInvalidArgument);
  EXPECT_EQ(refused->request_id, 11u);

  Result<ServeReply> ok =
      client->Call(ServeRequest::Of(sim::BuildFanoutProblem(3), 12));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, WireStatus::kOk);
  EXPECT_EQ(ok->request_id, 12u);
}

TEST(ComposeServerTest, ResultDeeperThanParserBoundIsRefusedNotCached) {
  ComposeService service;
  ComposeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  // Each side is a 300-term union chain, within the parser's bound, but
  // unfolding V nests one chain inside the other: about 600 levels.
  std::string s1, s3 = "U(1); ", v = "R0", u = "V";
  for (int i = 0; i < 300; ++i) s1 += "R" + std::to_string(i) + "(1); ";
  for (int i = 1; i < 300; ++i) v += " + R" + std::to_string(i);
  for (int i = 0; i < 299; ++i) {
    s3 += "T" + std::to_string(i) + "(1); ";
    u += " + T" + std::to_string(i);
  }
  Result<CompositionProblem> problem = Parser().ParseProblem(
      "schema s1 { " + s1 + "}\nschema s2 { V(1); }\nschema s3 { " + s3 +
      "}\nmap m12 { V = " + v + "; }\nmap m23 { U <= " + u + "; }\n");
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();

  for (uint64_t id : {13, 14}) {
    Result<ServeReply> refused =
        client->Call(ServeRequest::Of(*problem, id));
    ASSERT_TRUE(refused.ok()) << refused.status().ToString();
    EXPECT_EQ(refused->status, WireStatus::kResourceExhausted);
    EXPECT_NE(refused->message.find("levels deep"), std::string::npos)
        << refused->message;
    EXPECT_EQ(refused->request_id, id);
  }
  // Not cached: the second request composed again.
  runtime::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.cache_entries, 0u);

  Result<ServeReply> ok =
      client->Call(ServeRequest::Of(sim::BuildFanoutProblem(3), 15));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, WireStatus::kOk);
  EXPECT_EQ(ok->request_id, 15u);
}

TEST(ComposeServerTest, FullQueueShedsWithOverloadedAdmittedWorkCompletes) {
  ComposeService service;
  ServerOptions options;
  options.admission_capacity = 2;
  options.dispatch_threads = 1;
  // Hold the queue provably full: dispatchers cannot pop until the gate
  // opens, so exactly capacity requests are admitted and the rest shed.
  options.admission_gate = std::make_shared<std::atomic<bool>>(false);
  ComposeServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  // Pipeline 8 distinct (uncached) problems in one burst.
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(
        client
            ->Send(ServeRequest::Of(
                sim::BuildFanoutProblem(2 + i, /*chain_overlap=*/true),
                static_cast<uint64_t>(100 + i)))
            .ok());
  }

  // Sheds come back immediately (written by the I/O thread); collect them
  // before opening the gate so the full-queue state is observed, not
  // raced.
  std::map<uint64_t, ServeReply> replies;
  for (int i = 0; i < kBurst - 2; ++i) {
    Result<ServeReply> r = client->Recv();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, WireStatus::kOverloaded);
    replies.emplace(r->request_id, std::move(*r));
  }

  options.admission_gate->store(true);
  for (int i = 0; i < 2; ++i) {
    Result<ServeReply> r = client->Recv();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, WireStatus::kOk) << "id " << r->request_id;
    replies.emplace(r->request_id, std::move(*r));
  }
  ASSERT_EQ(replies.size(), static_cast<size_t>(kBurst));

  // FIFO admission: the first two requests were admitted, the rest shed —
  // and the admitted ones composed the right answers.
  for (int i = 0; i < kBurst; ++i) {
    uint64_t id = static_cast<uint64_t>(100 + i);
    ASSERT_TRUE(replies.count(id)) << "missing reply " << id;
    const ServeReply& reply = replies.at(id);
    if (i < 2) {
      EXPECT_EQ(reply.status, WireStatus::kOk) << "id " << id;
      std::string direct_fp =
          Compose(sim::BuildFanoutProblem(2 + i, /*chain_overlap=*/true),
                  service.default_options())
              .Fingerprint();
      EXPECT_EQ(reply.result.Fingerprint(), direct_fp);
    } else {
      EXPECT_EQ(reply.status, WireStatus::kOverloaded) << "id " << id;
    }
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.sheds, static_cast<uint64_t>(kBurst - 2));
  EXPECT_EQ(stats.queue_depth_watermark, 2u);
  EXPECT_EQ(stats.requests_parsed, static_cast<uint64_t>(kBurst));
}

TEST(ComposeServerTest, StaleQueuedRequestsTimeOutInsteadOfComposing) {
  ComposeService service;
  ServerOptions options;
  options.queue_timeout_ms = 20;
  options.dispatch_threads = 1;
  options.admission_gate = std::make_shared<std::atomic<bool>>(false);
  ComposeServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(
      client->Send(ServeRequest::Of(sim::BuildFanoutProblem(5), 9)).ok());
  // Let the request age past the deadline while the gate holds it queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  options.admission_gate->store(true);

  Result<ServeReply> reply = client->Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, WireStatus::kTimeout);
  EXPECT_EQ(reply->request_id, 9u);
  EXPECT_EQ(server.Stats().timeouts, 1u);
}

TEST(ComposeServerTest, ManyConcurrentClientsAgreeWithDirectCompose) {
  ComposeService service;
  ServerOptions options;
  options.dispatch_threads = 3;
  ComposeServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 12;
  std::vector<std::string> direct(5);
  for (int w = 0; w < 5; ++w) {
    direct[w] = Compose(sim::BuildFanoutProblem(2 + w),
                        service.default_options())
                    .Fingerprint();
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = MustConnect(server.port());
      if (!client) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRequestsEach; ++i) {
        int w = (c + i) % 5;
        Result<ServeReply> reply = client->Call(ServeRequest::Of(
            sim::BuildFanoutProblem(2 + w), static_cast<uint64_t>(i)));
        if (!reply.ok() || reply->status != WireStatus::kOk) {
          ++failures;
          continue;
        }
        if (reply->result.Fingerprint() != direct[w]) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // 96 requests over 5 distinct problems: almost everything was a cache
  // answer (bypass or join), and nothing raced (TSan-checked).
  EXPECT_EQ(server.Stats().requests_parsed,
            static_cast<uint64_t>(kClients * kRequestsEach));
}

TEST(ComposeServerTest, StopDrainsAdmittedWorkBeforeClosing) {
  ComposeService service;
  ServerOptions options;
  options.dispatch_threads = 1;
  // The closed gate pins the request in the admission queue until Stop —
  // draining overrides the gate, so the shutdown itself must compose and
  // answer it. No accepted request is silently dropped.
  options.admission_gate = std::make_shared<std::atomic<bool>>(false);
  ComposeServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  ASSERT_NE(client, nullptr);

  CompositionProblem problem = sim::BuildFanoutProblem(4);
  std::string direct_fp =
      Compose(problem, service.default_options()).Fingerprint();
  ASSERT_TRUE(client->Send(ServeRequest::Of(std::move(problem), 11)).ok());
  // Wait until the request is provably queued, then stop mid-admission.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.Stats().queue_depth_watermark < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.Stats().queue_depth_watermark, 1u);
  server.Stop();

  Result<ServeReply> reply = client->Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, WireStatus::kOk);
  EXPECT_EQ(reply->request_id, 11u);
  EXPECT_EQ(reply->result.Fingerprint(), direct_fp);
  // After the drained reply, the connection is gone — clean EOF.
  EXPECT_FALSE(client->Recv().ok());
}

TEST(ComposeServerTest, StopWhileIdleAndDoubleStopAreClean) {
  ComposeService service;
  auto server = std::make_unique<ComposeServer>(&service, ServerOptions{});
  ASSERT_TRUE(server->Start().ok());
  int port = server->port();
  EXPECT_GT(port, 0);
  server->Stop();
  server->Stop();  // idempotent
  server.reset();

  // A fresh server can bind a fresh ephemeral port right away.
  ComposeServer again(&service, ServerOptions{});
  ASSERT_TRUE(again.Start().ok());
  auto client = MustConnect(again.port());
  ASSERT_NE(client, nullptr);
  Result<ServeReply> reply =
      client->Call(ServeRequest::Of(sim::BuildFanoutProblem(3), 1));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, WireStatus::kOk);
}

TEST(ComposeClientTest, OutOfRangePortIsRefusedBeforeDialing) {
  // Cast to uint16_t, 99999 would dial 34463 and -1 would dial 65535; port
  // 0 would spend the whole ECONNREFUSED retry budget before failing.
  for (int port : {-1, 0, 65536, 99999}) {
    auto start = std::chrono::steady_clock::now();
    Result<std::unique_ptr<ComposeClient>> client =
        ComposeClient::Connect("127.0.0.1", port, /*retry_ms=*/2000);
    auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(client.ok()) << port;
    EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument) << port;
    EXPECT_LT(elapsed, std::chrono::milliseconds(200)) << port;
  }
}

}  // namespace
}  // namespace serve
}  // namespace mapcomp
