// wsnlinkd: the tuning-as-a-service daemon.
//
// Serves the paper's models and simulator over a line-delimited protocol on
// loopback TCP (docs/SERVING.md). Every answer is cached by canonical
// request key and appended to a journal file shared with campaign
// checkpoints, so a restarted daemon warms from disk instead of
// recomputing.
//
// Usage:
//   wsnlinkd [--port N] [--cache FILE] [--threads N] [--max-inflight N]
//            [--persist-every N] [--cache-max-entries N] [--abort-after N]
//
//   --port          TCP port on 127.0.0.1 (default 4710; 0 = ephemeral)
//   --cache         persistent result cache path (default: memory only)
//   --threads       most misses computing at once (0 = pool width)
//   --max-inflight  most distinct misses queued or computing before busy
//   --persist-every persist cadence in new entries (default 1 = every one)
//   --cache-max-entries  FIFO entry cap on the result cache (0 = unbounded)
//   --abort-after   crash drill: _Exit(3) once N replies are queued
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "serve/query_service.h"
#include "serve/server.h"
#include "util/args.h"

namespace {

wsnlink::serve::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->Stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnlink;
  try {
    const util::Args args(argc, argv,
                          {"--threads", "--cache", "--persist-every",
                           "--cache-max-entries", "--port", "--max-inflight",
                           "--abort-after"},
                          {});
    serve::ServiceOptions service_options;
    service_options.threads =
        static_cast<unsigned>(args.GetSize("--threads", 0));
    service_options.cache_path = args.GetString("--cache", "");
    service_options.persist_every = args.GetSize("--persist-every", 1);
    service_options.cache_max_entries = args.GetSize("--cache-max-entries", 0);

    serve::ServerOptions server_options;
    server_options.port =
        static_cast<std::uint16_t>(args.GetSize("--port", 4710));
    server_options.max_inflight = args.GetSize("--max-inflight", 64);
    server_options.abort_after =
        static_cast<std::uint64_t>(args.GetSize("--abort-after", 0));

    serve::QueryService service(service_options);
    const serve::ServiceStats warm = service.Stats();
    serve::Server server(service, server_options);
    g_server = &server;
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);

    // The "listening" line is the readiness handshake scripts wait for;
    // keep its shape stable.
    std::printf("wsnlinkd listening 127.0.0.1:%u warm_loaded=%llu"
                " corrupt_dropped=%llu\n",
                static_cast<unsigned>(server.Port()),
                static_cast<unsigned long long>(warm.warm_loaded),
                static_cast<unsigned long long>(warm.corrupt_dropped));
    std::fflush(stdout);

    server.Run();
    g_server = nullptr;

    const serve::ServiceStats stats = service.Stats();
    std::printf("wsnlinkd done requests=%llu hits=%llu misses=%llu"
                " errors=%llu\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses),
                static_cast<unsigned long long>(stats.parse_errors));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsnlinkd: %s\n", e.what());
    return 1;
  }
}
