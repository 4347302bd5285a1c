#include <fstream>
namespace lidi::kafka {
// Writing through std::ifstream / std::ofstream is named here in prose only.
void Dump(const std::string& path) {
  std::ofstream out(path);
  out << "segment";
}
}  // namespace lidi::kafka
