#include <condition_variable>
int main() {
  std::condition_variable cv;
  return 0;
}
