#include "io/fs.h"
namespace lidi::kafka {
// Writing through std::ifstream / std::ofstream is named here in prose only.
Status Dump(io::Fs* fs, const std::string& path) {
  return fs->WriteFile(path, "segment");
}
}  // namespace lidi::kafka
