// perfbench: the qif pipeline benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--references FILE] [--commit ID]
//   perfbench --record-references NAME --seeds A-B [--references FILE]
//
// Prints a provenance line, one line per output check, the workload's
// numbers for people, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"} whose metrics are the
// end-to-end set (--trace 0) or the per-layer set (--trace 1).
// Exit status: 0 when the run completed (check failures are reported in
// the JSON), 2 on bad arguments or an exception.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "util.hpp"
#include "workloads.hpp"

namespace {

using perfbench::json_number;
using perfbench::json_string;

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument '" + key + "'");
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [k, v] : args) {
    static const char* const kKnown[] = {"workload", "seed",  "seconds",           "trace",
                                         "work-dir", "references", "commit",
                                         "record-references", "seeds"};
    bool known = false;
    for (const char* n : kKnown) known = known || k == n;
    if (!known) throw std::invalid_argument("unknown option --" + k);
  }
  return args;
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  std::size_t pos = 0;
  const unsigned long long v = std::stoull(s, &pos);
  if (pos != s.size()) throw std::invalid_argument(std::string("bad ") + what + " '" + s + "'");
  return v;
}

/// "workload seed hash" lines; '#' starts a comment.
std::map<std::string, std::string> load_references(const std::string& path) {
  std::map<std::string, std::string> refs;
  if (path.empty()) return refs;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, seed, hash;
    if (!(ls >> workload >> seed >> hash)) throw std::runtime_error("bad reference line: " + line);
    refs[workload + "/" + seed] = hash;
  }
  return refs;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int record_references(const std::map<std::string, std::string>& args) {
  const std::string workload = args.at("record-references");
  const std::string range = args.count("seeds") != 0 ? args.at("seeds") : "1-1";
  const std::size_t dash = range.find('-');
  const std::uint64_t lo = parse_u64(range.substr(0, dash), "seed range");
  const std::uint64_t hi =
      dash == std::string::npos ? lo : parse_u64(range.substr(dash + 1), "seed range");
  for (std::uint64_t s = lo; s <= hi; ++s) {
    std::string note;
    const std::string hash = perfbench::reference_hash(workload, s, &note);
    std::printf("%s %llu %s  # %s\n", workload.c_str(), static_cast<unsigned long long>(s),
                hash.c_str(), note.c_str());
    std::fflush(stdout);
  }
  return 0;
}

void print_result(const perfbench::RunOptions& o, const perfbench::RunResult& r) {
  const auto& metrics = o.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  std::printf("\n%s seed %llu (%s run)\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? "traced" : "untraced");
  for (const auto& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), r.metrics.at(m.name), m.unit.c_str());
  }
  for (const auto& [name, value] : r.info) {
    std::printf("  %-32s %16.6f\n", name.c_str(), value);
  }
  const auto attempted = r.ledger.total_attempted();
  const auto failed = r.ledger.total_failed();
  std::printf("  %-32s %16.6f (%llu failed of %llu attempted)\n", "error_rate",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    if (!first) json += ", ";
    first = false;
    json += json_string(m.name) + ": {\"value\": " + json_number(r.metrics.at(m.name)) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse_args(argc, argv);
    const auto get = [&args](const char* k, const char* def) {
      const auto it = args.find(k);
      return it == args.end() ? std::string(def) : it->second;
    };
    perfbench::RunOptions o;
    o.references = load_references(get("references", ""));
    if (args.count("record-references") != 0) return record_references(args);

    o.workload = get("workload", "");
    o.seed = parse_u64(get("seed", "1"), "--seed");
    o.seconds = static_cast<double>(parse_u64(get("seconds", "20"), "--seconds"));
    const std::string trace = get("trace", "0");
    if (trace != "0" && trace != "1") throw std::invalid_argument("--trace must be 0 or 1");
    o.trace = trace == "1";
    o.work_dir = get("work-dir", ".");
    bool known = false;
    for (const auto& w : perfbench::workload_names()) known = known || w == o.workload;
    if (!known) throw std::invalid_argument("unknown --workload '" + o.workload + "'");

    // The benchmark always builds the library without -march=native.
    std::printf("provenance: {\"workload\": %s, \"seed\": %llu, \"trace\": %d,"
                " \"nproc\": %u, \"campaign_jobs\": %d, \"compiler\": %s, \"build_type\": %s,"
                " \"qif_native\": false, \"commit\": %s}\n",
                json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? 1 : 0, std::thread::hardware_concurrency(),
                o.workload == "io500-pipeline" ? 4 : 1, json_string(compiler()).c_str(),
                json_string(PERFBENCH_BUILD_TYPE).c_str(),
                json_string(get("commit", "unknown")).c_str());
    std::fflush(stdout);
    const perfbench::RunResult r = perfbench::run_workload(o);
    print_result(o, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
