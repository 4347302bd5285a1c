#include "common/sync.h"
int main() {
  lidi::CondVar cv;
  return 0;
}
