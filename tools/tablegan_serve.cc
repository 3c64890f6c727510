// tablegan_serve — long-lived synthesis daemon.
//
//   tablegan_serve --models adult=adult.tgan[,health=health.tgan,...]
//                  [--host 127.0.0.1] [--port 0] [--workers 4]
//                  [--admission-depth 64] [--max-rows 1048576]
//
// Loads every named entry into an in-memory registry, then serves
// sample-range requests over the length-prefixed TCP protocol of
// serve/protocol.h (clients: tablegan_cli sample-remote, the
// serve::Client library, bench_e2e). An entry's format is sniffed:
// a model/checkpoint file samples through the generator, while a
// columnar table file (tablegan_cli convert/sample --format columnar)
// is mmap'd and serves its stored rows directly — same protocol, same
// clients, CRC-verified once at startup. The bound port is printed on
// stdout as `listening on HOST:PORT` — with --port 0 that line is how a
// supervisor learns the ephemeral port.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops first,
// in-flight requests run to completion and flush their responses, then
// the worker pool drains and the process exits 0 with a stats line.

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/status.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace tablegan {
namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*signum*/) { g_stop.store(true); }

void Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

int64_t ParseIntFlag(const char* flag, const char* text, int64_t min_value,
                     int64_t max_value) {
  Result<int64_t> parsed = args::ParseInt(text, min_value, max_value);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad value for --%s: %s\n", flag,
                 parsed.status().message().c_str());
    std::exit(2);
  }
  return *parsed;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tablegan_serve --models id=path[,id=path...]\n"
               "  [--host 127.0.0.1] [--port 0] [--workers 4]\n"
               "  [--admission-depth 64] [--max-rows 1048576]\n");
  return 2;
}

/// Splits "id=path[,id=path...]" and loads each checkpoint.
void LoadModels(const std::string& spec, serve::ModelRegistry* registry) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t eq = entry.find('=');
    if (entry.empty() || eq == std::string::npos || eq == 0 ||
        eq + 1 == entry.size()) {
      Fail(Status::InvalidArgument(
          "--models entries must look like id=path, got '" + entry + "'"));
    }
    const std::string id = entry.substr(0, eq);
    const std::string path = entry.substr(eq + 1);
    Status loaded = registry->Load(id, path);
    if (!loaded.ok()) Fail(loaded);
    std::printf("loaded model '%s' from %s\n", id.c_str(), path.c_str());
  }
}

int Run(int argc, char** argv) {
  std::string models_spec;
  serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--", 2) != 0 || i + 1 >= argc) return Usage();
    const std::string key = a + 2;
    const char* value = argv[++i];
    if (key == "models") {
      models_spec = value;
    } else if (key == "host") {
      options.host = value;
    } else if (key == "port") {
      options.port = static_cast<int>(ParseIntFlag("port", value, 0, 65535));
    } else if (key == "workers") {
      options.num_workers =
          static_cast<int>(ParseIntFlag("workers", value, 1, 4096));
    } else if (key == "admission-depth") {
      options.admission_depth = static_cast<int>(
          ParseIntFlag("admission-depth", value, 1, 1 << 20));
    } else if (key == "max-rows") {
      options.max_rows_per_request =
          ParseIntFlag("max-rows", value, 1, int64_t{1} << 40);
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return Usage();
    }
  }
  if (models_spec.empty()) return Usage();

  serve::ModelRegistry registry;
  LoadModels(models_spec, &registry);

  serve::Server server(&registry, options);
  Status started = server.Start();
  if (!started.ok()) Fail(started);

  // sigaction without SA_RESTART, so the pause() below actually wakes.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  std::printf("listening on %s:%d (%zu model%s, %d workers, depth %d)\n",
              options.host.c_str(), server.port(), registry.size(),
              registry.size() == 1 ? "" : "s", options.num_workers,
              options.admission_depth);
  std::fflush(stdout);

  while (!g_stop.load()) pause();

  std::printf("shutting down (draining in-flight requests)...\n");
  std::fflush(stdout);
  server.Shutdown();
  const serve::Server::Stats stats = server.stats();
  std::printf("served %llu ok / %llu error, %llu busy-rejected of %llu "
              "accepted\n",
              static_cast<unsigned long long>(stats.requests_ok),
              static_cast<unsigned long long>(stats.requests_error),
              static_cast<unsigned long long>(stats.rejected_busy),
              static_cast<unsigned long long>(stats.accepted));
  return 0;
}

}  // namespace
}  // namespace tablegan

int main(int argc, char** argv) { return tablegan::Run(argc, argv); }
