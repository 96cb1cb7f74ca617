// The one rule for output files: the function that writes one flushes and
// checks it, and a file that never opened or lost a write (a full disk,
// /dev/full) is a WriteError. `canids` exits 66 on it, naming the file.
#pragma once

#include <ostream>
#include <stdexcept>
#include <string>

namespace canids::util {

class WriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Flush `out`; throw WriteError("<path>: cannot write <what>") when it
/// never opened or any write to it failed.
inline void check_written(std::ostream& out, const std::string& path,
                          const std::string& what) {
  out.flush();
  if (!out) throw WriteError(path + ": cannot write " + what);
}

}  // namespace canids::util
