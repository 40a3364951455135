// mapcompc — command-line mapping composer.
//
// Reads one or more composition tasks in the library's text format (from
// files or stdin) and prints the composed mappings plus per-symbol
// statistics. With several task files the compositions are independent and
// can be fanned across worker threads with --jobs; output order and content
// stay identical whatever the thread count.
//
// Usage:
//   mapcompc [options] [task-file...]
//     --no-unfold          disable view unfolding (§3.2)
//     --no-left            disable left compose (§3.4)
//     --no-right           disable right compose (§3.5)
//     --no-simplify        skip output simplification
//     --blowup N           abort a symbol when output exceeds N x input
//                          operator count (default 100, paper §4)
//     --order s1,s2,...    eliminate the sigma2 symbols in this order
//                          (the paper's user-specified ordering, §3.1);
//                          overrides a task file's `order` directive
//                          (single-task mode only)
//     --rounds N           retry residual symbols for up to N elimination
//                          rounds (default 4; 1 = the paper's single pass)
//     --deadline-ms N      end-to-end deadline: local modes run compose and
//                          --check-eval under one cooperative cancel token
//                          that fires N ms after work starts (a run that
//                          beats the deadline is byte-identical to an
//                          unbounded one); --client sends N as the
//                          per-request wire deadline and --serve-demo
//                          submits each request with its own N ms budget.
//                          A fired deadline exits 6 — partial results are
//                          still printed, with their residuals
//     --jobs N             compose N tasks concurrently (default 1)
//     --elim-jobs N        within each task, eliminate independent sigma2
//                          symbols on up to N lanes (conflict-graph waves;
//                          results are identical for any N; default 1)
//     --serve-demo N       serve every task through a resident
//                          ComposeService for N passes (pass 2+ hits the
//                          result cache, keyed on the request's canonical
//                          wire bytes) and print ServiceStats — including
//                          cache bytes — to stderr; --jobs caps
//                          in-flight submissions; served results are the
//                          service's slim cache entries, so per-symbol
//                          attempt detail is not reprinted
//     --serve PORT         network mode: put a resident ComposeService on
//                          127.0.0.1:PORT (0 picks an ephemeral port,
//                          printed to stderr) speaking the length-prefixed
//                          binary protocol (src/serve/); --serve-requests N
//                          exits 0 after N requests were parsed (CI smoke);
//                          incompatible with task files and other modes
//     --serve-requests N   with --serve: exit after N parsed requests
//     --client HOST:PORT   network mode: send each task to a running
//                          --serve instance and print the served results
//                          (exit 1 on any error reply)
//     --registry-demo N    run N edits of the simulated schema registry
//                          (Zipf edit stream, incremental full-chain
//                          recomposition through a prefix-fingerprint
//                          cache) and print steady-state registry, service
//                          and chain-cache stats; incompatible with task
//                          files and the other modes
//     --fail-on-warnings   print composition warnings to stderr and exit 4
//                          when any result carries one
//     --check-eval N       semantic soundness harness: evaluate the composed
//                          vs. original mapping over N generated finite
//                          instances per task (paper §2 set semantics; the
//                          instances are checked on up to --jobs lanes,
//                          with identical output at any lane count) and
//                          print the verdict to stderr; exit 5 on any
//                          violation
//     --check-seed S       RNG seed for --check-eval instances (default 42)
//     --eval-stats         after --check-eval, print the aggregated
//                          evaluation counters (nodes, memo hits, tuples,
//                          hash-join vs nested-product node counts, memo
//                          bytes and tasks) to stderr
//     --intern-stats       print expression-interner statistics to stderr
//     --quiet              print only the composed constraints

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/interner.h"
#include "src/compose/compose.h"
#include "src/eval/soundness.h"
#include "src/parser/parser.h"
#include "src/runtime/compose_many.h"
#include "src/runtime/compose_service.h"
#include "src/serve/compose_client.h"
#include "src/serve/compose_server.h"
#include "src/simulator/registry.h"

namespace {

bool ReadInput(const std::string& path, std::string* text) {
  if (path == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    *text = buffer.str();
    return true;
  }
  std::ifstream file(path);
  if (!file) return false;
  std::stringstream buffer;
  buffer << file.rdbuf();
  *text = buffer.str();
  return true;
}

void PrintResult(const mapcomp::CompositionResult& result, bool quiet) {
  if (!quiet) {
    std::printf("%s\n", result.Report().c_str());
    if (!result.residual_sigma2.empty()) {
      std::printf("residual sigma2 symbols:");
      for (const std::string& s : result.residual_sigma2) {
        std::printf(" %s", s.c_str());
      }
      std::printf("\n\n");
    }
  }
  std::printf("%s", mapcomp::ConstraintSetToString(result.constraints).c_str());
}

// Serve-demo variant: the service caches slim entries, so the summary is
// ServedResult::Report() (counts + warnings) instead of the full
// per-symbol table.
void PrintResult(const mapcomp::runtime::ServedResult& result, bool quiet) {
  if (!quiet) {
    std::printf("%s\n", result.Report().c_str());
    if (!result.residual_sigma2.empty()) {
      std::printf("residual sigma2 symbols:");
      for (const std::string& s : result.residual_sigma2) {
        std::printf(" %s", s.c_str());
      }
      std::printf("\n\n");
    }
  }
  std::printf("%s", mapcomp::ConstraintSetToString(result.constraints).c_str());
}

// The registry loop behind --registry-demo: a resident service + registry,
// N Zipf-drawn edits, each followed by an incremental full-chain
// recomposition; steady-state stats land on stderr like --serve-demo's.
int RunRegistryDemo(int steps, const mapcomp::ComposeOptions& options) {
  mapcomp::runtime::ComposeServiceOptions service_options;
  service_options.compose = options;
  service_options.cache_capacity = 4096;
  mapcomp::runtime::ComposeService service(service_options);

  mapcomp::sim::RegistryOptions registry_options;
  registry_options.compose = options;
  mapcomp::sim::SchemaRegistry registry(registry_options, &service);
  for (int step = 0; step < steps; ++step) {
    mapcomp::Result<mapcomp::runtime::ChainResult> result = registry.Step();
    if (!result.ok()) {
      std::fprintf(stderr, "registry step %d failed: %s\n", step,
                   result.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("%s", registry.stats().ToString().c_str());
  std::printf("registry: %d families, %d schema versions\n",
              registry.families(), registry.TotalVersions());
  std::fprintf(stderr, "%s", service.Stats().ToString().c_str());
  std::fprintf(stderr, "%s",
               registry.chain_composer()->Stats().ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  mapcomp::ComposeOptions options;
  bool quiet = false;
  bool intern_stats = false;
  bool eval_stats = false;
  bool fail_on_warnings = false;
  int jobs = 1;
  int deadline_ms = 0;    // 0 = no --deadline-ms
  int serve_passes = 0;   // 0 = no --serve-demo
  int serve_port = -1;    // -1 = no --serve; 0 = ephemeral
  int serve_requests = 0; // 0 = serve forever
  std::string client_target;  // empty = no --client
  int client_port = 0;
  int registry_steps = 0; // 0 = no --registry-demo
  int check_eval = 0;     // 0 = no --check-eval
  uint64_t check_seed = 42;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--no-unfold") == 0) {
      options.eliminate.enable_unfold = false;
    } else if (std::strcmp(arg, "--no-left") == 0) {
      options.eliminate.enable_left_compose = false;
    } else if (std::strcmp(arg, "--no-right") == 0) {
      options.eliminate.enable_right_compose = false;
    } else if (std::strcmp(arg, "--no-simplify") == 0) {
      options.simplify_output = false;
    } else if (std::strcmp(arg, "--blowup") == 0 && i + 1 < argc) {
      options.eliminate.max_blowup_factor = std::atoi(argv[++i]);
    } else if (std::strcmp(arg, "--rounds") == 0 && i + 1 < argc) {
      options.max_rounds = std::atoi(argv[++i]);
      if (options.max_rounds < 1) {
        std::fprintf(stderr, "--rounds expects an integer >= 1\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atoi(argv[++i]);
      if (deadline_ms < 1) {
        std::fprintf(stderr, "--deadline-ms expects an integer >= 1\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
      if (jobs < 1) {
        std::fprintf(stderr, "--jobs expects an integer >= 1\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--elim-jobs") == 0 && i + 1 < argc) {
      options.elim_jobs = std::atoi(argv[++i]);
      if (options.elim_jobs < 1) {
        std::fprintf(stderr, "--elim-jobs expects an integer >= 1\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--serve-demo") == 0 && i + 1 < argc) {
      serve_passes = std::atoi(argv[++i]);
      if (serve_passes < 1) {
        std::fprintf(stderr, "--serve-demo expects an integer >= 1\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--serve") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
      if (serve_port < 0 || serve_port > 65535) {
        std::fprintf(stderr, "--serve expects a port in [0, 65535]\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--serve-requests") == 0 && i + 1 < argc) {
      serve_requests = std::atoi(argv[++i]);
      if (serve_requests < 1) {
        std::fprintf(stderr, "--serve-requests expects an integer >= 1\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--client") == 0 && i + 1 < argc) {
      client_target = argv[++i];
      size_t colon = client_target.rfind(':');
      const char* port_text =
          colon == std::string::npos ? "" : client_target.c_str() + colon + 1;
      char* end = nullptr;
      long port = std::strtol(port_text, &end, 10);
      if (*port_text == '\0' || *end != '\0' || port < 1 || port > 65535) {
        std::fprintf(stderr,
                     "--client expects HOST:PORT with PORT in [1, 65535]\n");
        return 2;
      }
      client_port = static_cast<int>(port);
    } else if (std::strcmp(arg, "--registry-demo") == 0 && i + 1 < argc) {
      registry_steps = std::atoi(argv[++i]);
      if (registry_steps < 1) {
        std::fprintf(stderr, "--registry-demo expects an integer >= 1\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--check-eval") == 0 && i + 1 < argc) {
      check_eval = std::atoi(argv[++i]);
      if (check_eval < 1) {
        std::fprintf(stderr, "--check-eval expects an integer >= 1\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--check-seed") == 0 && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      check_seed = static_cast<uint64_t>(std::strtoull(text, &end, 10));
      if (end == text || *end != '\0') {
        std::fprintf(stderr, "--check-seed expects an unsigned integer\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--fail-on-warnings") == 0) {
      fail_on_warnings = true;
    } else if (std::strcmp(arg, "--eval-stats") == 0) {
      eval_stats = true;
    } else if (std::strcmp(arg, "--intern-stats") == 0) {
      intern_stats = true;
    } else if (std::strcmp(arg, "--order") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--order expects a comma-separated symbol list\n");
        return 2;
      }
      std::string list = argv[++i];
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        std::string symbol = list.substr(start, comma - start);
        if (!symbol.empty()) options.order.push_back(std::move(symbol));
        start = comma + 1;
      }
      if (options.order.empty()) {
        std::fprintf(stderr, "--order expects a comma-separated symbol list\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (arg[0] == '-' && std::strcmp(arg, "-") != 0) {
      std::fprintf(stderr, "unknown option %s\n", arg);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (eval_stats && check_eval == 0) {
    std::fprintf(stderr, "--eval-stats requires --check-eval\n");
    return 2;
  }
  if (registry_steps > 0) {
    // The registry generates its own workload: no task files, and no other
    // mode to mix with.
    if (!paths.empty() || serve_passes > 0 || check_eval > 0 ||
        !options.order.empty()) {
      std::fprintf(stderr,
                   "--registry-demo generates its own tasks; it cannot be "
                   "combined with task files, --serve-demo, --check-eval or "
                   "--order\n");
      return 2;
    }
    int rc = RunRegistryDemo(registry_steps, options);
    if (intern_stats) {
      std::fprintf(stderr, "%s",
                   mapcomp::ExprInterner::Global().Stats().ToString().c_str());
    }
    return rc;
  }
  if (serve_port >= 0) {
    if (!paths.empty() || serve_passes > 0 || check_eval > 0 ||
        !client_target.empty() || !options.order.empty()) {
      std::fprintf(stderr,
                   "--serve runs a network server; it cannot be combined "
                   "with task files, --serve-demo, --check-eval, --client "
                   "or --order\n");
      return 2;
    }
    mapcomp::runtime::ComposeServiceOptions service_options;
    service_options.compose = options;
    mapcomp::runtime::ComposeService service(service_options);
    mapcomp::serve::ServerOptions server_options;
    server_options.port = serve_port;
    mapcomp::serve::ComposeServer server(&service, server_options);
    mapcomp::Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "--serve: %s\n", started.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "mapcompc: serving on 127.0.0.1:%d\n",
                 server.port());
    if (serve_requests > 0) {
      // CI smoke shape: serve exactly N requests, then report and exit 0.
      while (server.Stats().requests_parsed <
             static_cast<uint64_t>(serve_requests)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    } else {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    // Let in-flight replies flush before reporting.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::fprintf(stderr, "%s", server.Stats().ToString().c_str());
    std::fprintf(stderr, "%s", service.Stats().ToString().c_str());
    return 0;
  }
  if (serve_requests > 0) {
    std::fprintf(stderr, "--serve-requests requires --serve\n");
    return 2;
  }
  if (!client_target.empty() && serve_passes > 0) {
    std::fprintf(stderr, "--client cannot be combined with --serve-demo\n");
    return 2;
  }
  if (paths.empty()) paths.push_back("-");  // read a single task from stdin
  if (paths.size() > 1 && !options.order.empty()) {
    std::fprintf(stderr,
                 "--order applies to a single task; it cannot be combined "
                 "with multiple task files\n");
    return 2;
  }

  mapcomp::Parser parser;
  std::vector<mapcomp::CompositionProblem> problems;
  problems.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string text;
    if (!ReadInput(path, &text)) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    mapcomp::Result<mapcomp::CompositionProblem> problem =
        parser.ParseProblem(text);
    if (!problem.ok()) {
      std::fprintf(stderr, "%s: parse error: %s\n",
                   path == "-" ? "<stdin>" : path.c_str(),
                   problem.status().ToString().c_str());
      return 1;
    }
    problems.push_back(std::move(*problem));
  }

  if (!options.order.empty()) {
    // Every --order symbol must exist in sigma2, and sigma2 symbols left
    // out are appended in declaration order — otherwise they would silently
    // never be attempted yet not show up as residual either.
    std::vector<std::string> sigma2 = problems[0].sigma2.names();
    for (size_t i = 0; i < options.order.size(); ++i) {
      const std::string& s = options.order[i];
      if (std::find(sigma2.begin(), sigma2.end(), s) == sigma2.end()) {
        std::fprintf(stderr, "--order: '%s' is not a sigma2 symbol\n",
                     s.c_str());
        return 2;
      }
      if (std::find(options.order.begin(), options.order.begin() + i, s) !=
          options.order.begin() + i) {
        std::fprintf(stderr, "--order: '%s' listed twice\n", s.c_str());
        return 2;
      }
    }
    for (const std::string& s : sigma2) {
      if (std::find(options.order.begin(), options.order.end(), s) ==
          options.order.end()) {
        options.order.push_back(s);
      }
    }
  }

  std::vector<mapcomp::CompositionResult> results;
  std::vector<mapcomp::runtime::ComposeService::ResultPtr> served;
  const bool use_served = serve_passes > 0 || !client_target.empty();
  if (!client_target.empty()) {
    // Network mode: ship each task to a --serve instance. The reply's
    // ServedResult prints through the same path as --serve-demo.
    size_t colon = client_target.rfind(':');
    std::string host = client_target.substr(0, colon);
    mapcomp::Result<std::unique_ptr<mapcomp::serve::ComposeClient>> client =
        mapcomp::serve::ComposeClient::Connect(host, client_port);
    if (!client.ok()) {
      std::fprintf(stderr, "--client: %s\n",
                   client.status().ToString().c_str());
      return 2;
    }
    served.reserve(problems.size());
    for (size_t i = 0; i < problems.size(); ++i) {
      // The CLI's option flags travel with the request (wire-safe
      // subset), so a --no-simplify client gets --no-simplify results
      // whatever the server's defaults are.
      mapcomp::serve::ServeRequest request =
          mapcomp::serve::ServeRequest::WithOptions(
              problems[i], options, static_cast<uint64_t>(i + 1));
      if (deadline_ms > 0) {
        request.deadline_ms = static_cast<uint32_t>(deadline_ms);
      }
      mapcomp::Result<mapcomp::serve::ServeReply> reply =
          (*client)->Call(request);
      const char* label = paths[i] == "-" ? "<stdin>" : paths[i].c_str();
      if (!reply.ok()) {
        std::fprintf(stderr, "%s: transport error: %s\n", label,
                     reply.status().ToString().c_str());
        return 1;
      }
      if (reply->status != mapcomp::serve::WireStatus::kOk) {
        std::fprintf(stderr, "%s: server refused: %s (%s)\n", label,
                     mapcomp::serve::WireStatusName(reply->status),
                     reply->message.c_str());
        return (reply->status == mapcomp::serve::WireStatus::kTimeout ||
                reply->status == mapcomp::serve::WireStatus::kCancelled)
                   ? 6
                   : 1;
      }
      served.push_back(std::make_shared<mapcomp::runtime::ServedResult>(
          std::move(reply->result)));
    }
  } else if (serve_passes > 0) {
    // Loop mode: a resident ComposeService composes every task once and
    // serves passes 2..N from its cache (keyed on the options' and the
    // problem's canonical bytes) — same composed constraints, and the
    // stats printed at the end show the hit/miss split plus resident
    // cache bytes.
    mapcomp::runtime::ComposeServiceOptions service_options;
    service_options.compose = options;
    mapcomp::runtime::ComposeService service(service_options);
    std::vector<mapcomp::runtime::ComposeService::Handle> handles;
    for (int pass = 0; pass < serve_passes; ++pass) {
      handles.clear();
      handles.reserve(problems.size());
      for (size_t i = 0; i < problems.size(); ++i) {
        // --jobs caps serve-mode concurrency too: at most `jobs`
        // submissions in flight (a sliding window, since the service
        // itself fans out across the whole global pool).
        if (i >= static_cast<size_t>(jobs)) {
          handles[i - static_cast<size_t>(jobs)].Wait();
        }
        // Each submission gets its own budget: the deadline clock starts
        // at Submit, not at process start, matching the serving tier's
        // per-request semantics.
        handles.push_back(
            deadline_ms > 0
                ? service.Submit(
                      mapcomp::serve::ServeRequest::Of(problems[i]),
                      mapcomp::common::Deadline::After(deadline_ms))
                : service.Submit(
                      mapcomp::serve::ServeRequest::Of(problems[i])));
      }
      for (const auto& h : handles) h.Wait();
    }
    served.reserve(problems.size());
    for (const auto& h : handles) {
      mapcomp::runtime::ServedOutcome outcome = h.Wait();
      if (!outcome.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     outcome.status().ToString().c_str());
        return outcome.status().IsInterrupt() ? 6 : 1;
      }
      served.push_back(outcome.shared());
    }
    std::fprintf(stderr, "%s", service.Stats().ToString().c_str());
  } else {
    if (deadline_ms > 0) {
      // One run-wide budget: every task (and a later --check-eval) polls
      // the same token, so the whole invocation unwinds cooperatively
      // when it fires.
      options.cancel = mapcomp::common::CancelToken::WithDeadline(
          mapcomp::common::Deadline::After(deadline_ms));
    }
    results = mapcomp::runtime::ComposeMany(problems, options, jobs);
  }

  bool any_interrupt = false;
  for (const mapcomp::CompositionResult& r : results) {
    if (!r.interrupt.ok()) {
      any_interrupt = true;
      std::fprintf(stderr, "warning: partial result: %s\n",
                   r.interrupt.ToString().c_str());
    }
  }

  bool any_residual = false;
  bool any_warning = false;
  const size_t result_count = use_served ? served.size() : results.size();
  for (size_t i = 0; i < result_count; ++i) {
    if (result_count > 1) {
      std::printf("%s== %s ==\n", i == 0 ? "" : "\n", paths[i].c_str());
    }
    const std::vector<std::string>& residuals =
        use_served ? served[i]->residual_sigma2
                   : results[i].residual_sigma2;
    const std::vector<std::string>& warnings =
        use_served ? served[i]->warnings : results[i].warnings;
    if (use_served) {
      PrintResult(*served[i], quiet);
    } else {
      PrintResult(results[i], quiet);
    }
    any_residual = any_residual || !residuals.empty();
    if (fail_on_warnings) {
      for (const std::string& w : warnings) {
        any_warning = true;
        std::fprintf(stderr, "%s: warning: %s\n",
                     paths[i] == "-" ? "<stdin>" : paths[i].c_str(),
                     w.c_str());
      }
    }
  }

  bool any_violation = false;
  bool any_check_error = false;
  if (check_eval > 0) {
    mapcomp::EvalStats total_eval_stats;
    mapcomp::CompositionCheckOptions check_options;
    check_options.eval.jobs = jobs;
    check_options.eval.cancel = options.cancel;
    for (size_t i = 0; i < result_count; ++i) {
      // A served (slim) result still carries everything the soundness
      // harness reads: the composed signature, constraints and residuals.
      mapcomp::CompositionResult checked;
      if (use_served) {
        checked.sigma = served[i]->sigma;
        checked.constraints = served[i]->constraints;
        checked.residual_sigma2 = served[i]->residual_sigma2;
        checked.warnings = served[i]->warnings;
      }
      mapcomp::Result<mapcomp::CompositionCheck> check =
          mapcomp::CheckComposition(problems[i],
                                    use_served ? checked : results[i],
                                    check_seed, check_eval, check_options);
      const char* label = paths[i] == "-" ? "<stdin>" : paths[i].c_str();
      if (!check.ok()) {
        // Keep checking the remaining tasks — their verdicts (and a
        // possible exit-5 violation) matter even when one check errors.
        std::fprintf(stderr, "%s: check-eval error: %s\n", label,
                     check.status().ToString().c_str());
        any_check_error = true;
        continue;
      }
      std::fprintf(stderr, "%s: %s", label, check->Report().c_str());
      any_violation = any_violation || !check->sound;
      total_eval_stats.MergeFrom(check->eval_stats);
    }
    if (eval_stats) {
      std::fprintf(stderr, "aggregate %s\n",
                   total_eval_stats.ToString().c_str());
    }
  }

  if (intern_stats) {
    std::fprintf(stderr, "%s",
                 mapcomp::ExprInterner::Global().Stats().ToString().c_str());
  }
  if (any_violation) return 5;
  if (any_check_error) return 1;
  if (any_interrupt) return 6;
  if (any_warning) return 4;
  return any_residual ? 3 : 0;
}
