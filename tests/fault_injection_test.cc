// Deterministic fault-injection suite: arms the fault points of
// src/common/fault.h against real compose / eval / serve paths and checks
// the robustness contracts — deadlines interrupt mid-compose with valid
// partial results, allocation failure surfaces as a Status (not a crash or
// a poisoned cache), a mid-reply socket reset is a client-side transport
// error with clean server stats, cancellation is counted exactly, and a
// run that completes under an unexpired token is byte-identical to an
// unbounded run at any lane count.
//
// Every test skips on builds without fault points compiled in
// (Release without -DMAPCOMP_FAULT_INJECTION=ON); the CI TSan job runs
// this file in Debug (points auto-on) and the ASan job in Release with
// the flag set.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/fault.h"
#include "src/compose/compose.h"
#include "src/eval/soundness.h"
#include "src/parser/parser.h"
#include "src/runtime/compose_service.h"
#include "src/serve/compose_client.h"
#include "src/serve/compose_server.h"
#include "src/simulator/scenarios.h"

namespace mapcomp {
namespace {

using common::CancelSource;
using common::CancelToken;
using common::Deadline;
using common::fault::FaultPoint;
using common::fault::ScopedFault;
using runtime::ComposeService;
using runtime::ServedOutcome;

/// Bounded poll until every in-flight computation has drained — the
/// observable "dispatcher lanes returned to idle" condition.
void WaitServiceIdle(ComposeService& service) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.Stats().in_flight > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

#define SKIP_WITHOUT_FAULT_POINTS()                                   \
  do {                                                                \
    if (!common::fault::kFaultPointsCompiled) {                       \
      GTEST_SKIP() << "fault points not compiled into this build";    \
    }                                                                 \
  } while (0)

TEST(FaultInjectionTest, SlowWaveDeadlineInterruptsMidCompose) {
  SKIP_WITHOUT_FAULT_POINTS();
  // Every elimination stalls 25ms; the deadline allows roughly two of
  // them. The driver must stop at a poll point with a well-formed partial
  // result: untouched symbols become residuals, the interrupt carries
  // kDeadlineExceeded, and the warning names the interruption.
  ScopedFault slow(FaultPoint::kSlowEliminationWave, /*arg=*/25);
  ComposeOptions options;
  options.cancel = CancelToken::WithDeadline(Deadline::After(40));
  CompositionResult result = Compose(sim::BuildFanoutProblem(8), options);

  EXPECT_FALSE(result.interrupt.ok());
  EXPECT_EQ(result.interrupt.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(result.residual_sigma2.empty());
  EXPECT_LT(result.eliminated_count, result.total_count);
  bool warned = false;
  for (const std::string& w : result.warnings) {
    warned = warned || w.find("composition interrupted") != std::string::npos;
  }
  EXPECT_TRUE(warned) << "interrupted run must carry a warning";
  EXPECT_GE(slow.hits(), 1u) << "the slow-wave fault never fired";
}

TEST(FaultInjectionTest, PreCancelledTokenYieldsAllResidualInterrupt) {
  SKIP_WITHOUT_FAULT_POINTS();
  CancelSource source;
  source.Cancel();
  ComposeOptions options;
  options.cancel = source.token();
  CompositionResult result = Compose(sim::BuildFanoutProblem(5), options);

  // The very first round-boundary poll fires: nothing attempted, every
  // sigma2 symbol residual, and the code is kCancelled (explicit
  // cancellation, not a deadline).
  EXPECT_EQ(result.interrupt.code(), StatusCode::kCancelled);
  EXPECT_EQ(result.eliminated_count, 0);
  EXPECT_EQ(static_cast<int>(result.residual_sigma2.size()),
            result.total_count);
}

TEST(FaultInjectionTest, CompletedRunMatchesUnboundedRunAtJobs1And8) {
  SKIP_WITHOUT_FAULT_POINTS();
  // Determinism contract: a run that completes without its token firing
  // is byte-identical to an unbounded run — the token carries no schedule
  // state — and lane count never changes results.
  CompositionProblem problem = sim::BuildFanoutProblem(7,
                                                       /*chain_overlap=*/true);
  ComposeOptions unbounded;
  const std::string baseline = Compose(problem, unbounded).Fingerprint();

  CancelSource source;  // never cancelled
  for (int jobs : {1, 8}) {
    ComposeOptions bounded;
    bounded.elim_jobs = jobs;
    bounded.cancel = source.token(Deadline::After(60000));
    CompositionResult result = Compose(problem, bounded);
    ASSERT_TRUE(result.interrupt.ok()) << "token must not fire";
    EXPECT_EQ(result.Fingerprint(), baseline) << "jobs=" << jobs;
  }
}

TEST(FaultInjectionTest, InternerAllocFailureSurfacesAsStatusNotCrash) {
  SKIP_WITHOUT_FAULT_POINTS();
  // The problem is parsed (and its input expressions interned) before
  // arming; eliminating A must then unfold the view into the enclosing
  // projection, building pi(sel(R)) — a tree that cannot exist yet
  // because the selection constant is unique to this test. That first
  // interner miss throws bad_alloc inside the pool task; the service
  // converts it to a failed outcome, and nothing is cached.
  Parser parser;
  const char* text =
      "schema s1 { R(2); } schema s2 { A(2); } schema s3 { T(1); } "
      "map m12 { A = sel[#1=987654321](R); } "
      "map m23 { pi[1](A) <= T; }";
  Result<CompositionProblem> problem = parser.ParseProblem(text);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();

  ComposeService service;
  ServedOutcome outcome = [&] {
    ScopedFault alloc(FaultPoint::kAllocFailInterner);
    return service.Submit(serve::ServeRequest::Of(std::move(*problem))).Wait();
  }();

  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
  runtime::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.cache_entries, 0u) << "a failed run must not be cached";

  // Disarmed, the same submission succeeds — the failure poisoned
  // nothing.
  Result<CompositionProblem> again = parser.ParseProblem(text);
  ASSERT_TRUE(again.ok());
  ServedOutcome retry =
      service.Submit(serve::ServeRequest::Of(std::move(*again))).Wait();
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(FaultInjectionTest, HandleCancelCountsAndUnwindsComputation) {
  SKIP_WITHOUT_FAULT_POINTS();
  // Slow waves give Cancel a computation that is reliably still in
  // flight. The cancel must count, the run must unwind as kCancelled
  // (counted completed, not failed), and the service must drain to idle.
  ScopedFault slow(FaultPoint::kSlowEliminationWave, /*arg=*/50);
  ComposeService service;
  ComposeService::Handle handle =
      service.Submit(serve::ServeRequest::Of(
          sim::BuildFanoutProblem(6, /*chain_overlap=*/true)));
  EXPECT_TRUE(handle.Cancel()) << "computation should still be in flight";
  EXPECT_FALSE(handle.Cancel()) << "a second cancel withdraws nothing";

  ServedOutcome outcome = handle.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);

  WaitServiceIdle(service);
  runtime::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u) << "interrupted runs count completed";
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(FaultInjectionTest, ExpiredDeadlineAtSubmitShortCircuits) {
  SKIP_WITHOUT_FAULT_POINTS();
  ComposeService service;
  ComposeService::Handle handle = service.Submit(
      serve::ServeRequest::Of(sim::BuildFanoutProblem(4)), Deadline::After(0));
  ASSERT_TRUE(handle.Ready()) << "expired submit must not reach the pool";
  EXPECT_EQ(handle.Wait().status().code(), StatusCode::kDeadlineExceeded);

  runtime::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.misses, 0u) << "no composition may have started";
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(FaultInjectionTest, SlowEvalSlotDeadlineInterruptsSoundnessCheck) {
  SKIP_WITHOUT_FAULT_POINTS();
  // The eval tier polls the same token family at slot boundaries: a
  // stalled slot under a tight deadline aborts the check with
  // kDeadlineExceeded instead of hanging, on one lane and on four.
  CompositionProblem problem = sim::BuildFanoutProblem(4);
  CompositionResult composed = Compose(problem, ComposeOptions{});
  ASSERT_TRUE(composed.interrupt.ok());

  ScopedFault slow(FaultPoint::kSlowEvalSlot, /*arg=*/30);
  for (int jobs : {1, 4}) {
    CompositionCheckOptions check_options;
    check_options.eval.jobs = jobs;
    check_options.eval.cancel = CancelToken::WithDeadline(Deadline::After(20));
    Result<CompositionCheck> check =
        CheckComposition(problem, composed, /*generator_seed=*/42,
                         /*n_instances=*/4, check_options);
    ASSERT_FALSE(check.ok()) << "jobs " << jobs;
    EXPECT_EQ(check.status().code(), StatusCode::kDeadlineExceeded)
        << "jobs " << jobs;
  }
}

TEST(FaultInjectionTest, SocketResetMidReplyIsClientTransportError) {
  SKIP_WITHOUT_FAULT_POINTS();
  ComposeService service;
  serve::ComposeServer server(&service, serve::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Result<std::unique_ptr<serve::ComposeClient>> client =
      serve::ComposeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  {
    // The server hard-resets (RST via SO_LINGER) after writing exactly 16
    // reply bytes — mid-frame, deterministically. The client must surface
    // a transport error, never a truncated parse.
    ScopedFault reset(FaultPoint::kSocketResetAfterNBytes, /*arg=*/16);
    Result<serve::ServeReply> reply =
        (*client)->Call(serve::ServeRequest::Of(sim::BuildFanoutProblem(4), 7));
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reset.hits(), 1u) << "the reset fault never fired";
  }

  // Server-side state stays clean: the reset is a client-visible fault,
  // not a server-side protocol violation, and fresh connections serve.
  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  Result<std::unique_ptr<serve::ComposeClient>> again =
      serve::ComposeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  Result<serve::ServeReply> ok =
      (*again)->Call(serve::ServeRequest::Of(sim::BuildFanoutProblem(4), 8));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, serve::WireStatus::kOk);
}

TEST(FaultInjectionTest, CallWithRetryRetriesOnlyOverloadedReplies) {
  SKIP_WITHOUT_FAULT_POINTS();
  ComposeService service;
  serve::ServerOptions options;
  options.admission_capacity = 1;
  options.dispatch_threads = 1;
  options.admission_gate = std::make_shared<std::atomic<bool>>(false);
  serve::ComposeServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  Result<std::unique_ptr<serve::ComposeClient>> filler =
      serve::ComposeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(filler.ok());
  Result<std::unique_ptr<serve::ComposeClient>> caller =
      serve::ComposeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(caller.ok());

  // Fill the one-slot queue behind the closed gate, then retry against
  // the provably full server: every attempt is shed, and the final
  // verdict is the shed — CallWithRetry never converts it into an error.
  ASSERT_TRUE(
      (*filler)->Send(serve::ServeRequest::Of(sim::BuildFanoutProblem(3), 1))
          .ok());
  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.jitter_seed = 7;  // deterministic pacing
  Result<serve::ServeReply> shed = (*caller)->CallWithRetry(
      serve::ServeRequest::Of(sim::BuildFanoutProblem(4), 2), policy);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, serve::WireStatus::kOverloaded);
  EXPECT_GE(server.Stats().sheds, 3u) << "every attempt must have been shed";

  // Open the gate: the filler's admitted request completes, and a retried
  // call now succeeds on its first or a later attempt.
  options.admission_gate->store(true);
  Result<serve::ServeReply> admitted = (*filler)->Recv();
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->status, serve::WireStatus::kOk);
  Result<serve::ServeReply> served = (*caller)->CallWithRetry(
      serve::ServeRequest::Of(sim::BuildFanoutProblem(4), 3), policy);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->status, serve::WireStatus::kOk);
}

TEST(FaultInjectionTest, ServerCancelsWorkWhoseBudgetExpiresMidCompose) {
  SKIP_WITHOUT_FAULT_POINTS();
  // The zombie-lane contract end to end: slow waves push the composition
  // past the queue budget, the dispatcher answers kTimeout immediately
  // and withdraws interest, and the abandoned computation unwinds — it
  // must show up as cancelled, with the service back at idle, never as a
  // lane still burning pool time.
  ScopedFault slow(FaultPoint::kSlowEliminationWave, /*arg=*/60);
  ComposeService service;
  serve::ServerOptions options;
  options.queue_timeout_ms = 30;
  options.dispatch_threads = 1;
  serve::ComposeServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  Result<std::unique_ptr<serve::ComposeClient>> client =
      serve::ComposeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Result<serve::ServeReply> reply = (*client)->Call(serve::ServeRequest::Of(
      sim::BuildFanoutProblem(6, /*chain_overlap=*/true), 21));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, serve::WireStatus::kTimeout);
  EXPECT_EQ(reply->request_id, 21u);

  WaitServiceIdle(service);
  runtime::ServiceStats stats = service.Stats();
  EXPECT_GE(stats.cancelled, 1u);
  EXPECT_GE(stats.cancelled, server.Stats().timeouts);
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(FaultInjectionTest, PerRequestWireDeadlineTightensTheQueueBudget) {
  SKIP_WITHOUT_FAULT_POINTS();
  // No queue_timeout_ms at all: the bound comes entirely from the
  // request's own deadline_ms field riding the wire.
  ScopedFault slow(FaultPoint::kSlowEliminationWave, /*arg=*/60);
  ComposeService service;
  serve::ComposeServer server(&service, serve::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<std::unique_ptr<serve::ComposeClient>> client =
      serve::ComposeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  serve::ServeRequest request = serve::ServeRequest::Of(
      sim::BuildFanoutProblem(7, /*chain_overlap=*/true), 22);
  request.deadline_ms = 30;
  Result<serve::ServeReply> reply = (*client)->Call(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, serve::WireStatus::kTimeout);

  WaitServiceIdle(service);
  EXPECT_GE(service.Stats().cancelled, 1u);
  EXPECT_EQ(service.Stats().in_flight, 0);
}

TEST(FaultInjectionTest, AbandonedInFlightHandleCountsCancelled) {
  SKIP_WITHOUT_FAULT_POINTS();
  // Dropping every copy of an un-waited handle while the computation is
  // in flight is a cancellation: the zombie-lane guarantee does not
  // depend on clients being polite.
  ScopedFault slow(FaultPoint::kSlowEliminationWave, /*arg=*/50);
  ComposeService service;
  {
    service.Submit(serve::ServeRequest::Of(
        sim::BuildFanoutProblem(5, /*chain_overlap=*/true)));
  }
  WaitServiceIdle(service);
  runtime::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.in_flight, 0);
}

}  // namespace
}  // namespace mapcomp
