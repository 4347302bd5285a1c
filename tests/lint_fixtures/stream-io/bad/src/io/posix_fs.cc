#include <fstream>
namespace lidi::io {
// src/io is the durable I/O layer: streams are allowed here.
bool Exists(const std::string& path) { return std::ifstream(path).good(); }
}  // namespace lidi::io
