#include "util/bench_json.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/json.h"

namespace canids::util {

void write_bench_json(
    const std::string& name,
    std::initializer_list<std::pair<const char*, double>> fields) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  out << "{\"bench\": " << json_quoted(name);
  char buffer[64];
  for (const auto& [key, value] : fields) {
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
    out << ", " << json_quoted(key) << ": " << buffer;
  }
  out << "}\n";
  out.flush();
  // A truncated trajectory point uploaded silently would poison the perf
  // history; fail the bench instead.
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("perf -> %s\n", path.c_str());
}

}  // namespace canids::util
